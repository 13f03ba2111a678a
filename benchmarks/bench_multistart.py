"""Benchmark: batched lockstep multi-start vs the serial 50-trial loop.

The solution-parallel execution engine advances all trials of the paper's
protocol in lockstep, turning the 50 per-iteration neighborhood evaluations
into one batched ``(S, n) -> (S, M)`` call.  This benchmark measures

* the **wall-clock** speedup of ``trial_mode="batched"`` over the serial
  trial loop on a small Table-1 instance (order 1), and
* the **simulated** transfer / launch savings of the single ``S x M`` GPU
  launch: uploading the solution block once and paying one launch overhead
  per iteration instead of once per replica per iteration.

Run it as a script (``python benchmarks/bench_multistart.py [--smoke]``) or
through ``pytest benchmarks/bench_multistart.py --benchmark-only``. The
script writes ``benchmarks/BENCH_multistart.json``, or with ``--smoke``
``.bench_out/smoke/BENCH_multistart.json`` (``--json`` overrides either).
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from _records import add_record_arguments, resolve_record_path

from repro.core import GPUEvaluator
from repro.harness import run_ppp_experiment
from repro.localsearch import MultiStartRunner, TabuSearch
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import instance_seed, make_table_instance

#: Small Table-1 configuration (the smoke-scale Table I instance, 1-Hamming).
SPEC = (25, 25)
ORDER = 1
TRIALS = 50
MAX_ITERATIONS = 200

#: Reduced configuration for CI smoke runs.
SMOKE_TRIALS = 15
SMOKE_MAX_ITERATIONS = 50

JSON_PATH = Path(__file__).resolve().parent / "BENCH_multistart.json"


def _run(trial_mode: str, trials: int = TRIALS, max_iterations: int = MAX_ITERATIONS):
    return run_ppp_experiment(
        SPEC, ORDER, trials=trials, max_iterations=max_iterations, trial_mode=trial_mode
    )


def measure_wall_clock(
    trials: int = TRIALS, max_iterations: int = MAX_ITERATIONS
) -> dict:
    """Wall-clock seconds of the serial loop vs the batched lockstep engine."""
    start = time.perf_counter()
    serial = _run("serial", trials, max_iterations)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    batched = _run("batched", trials, max_iterations)
    batched_s = time.perf_counter() - start
    records = lambda row: [(t.fitness, t.iterations, t.success) for t in row.trials]
    assert records(serial) == records(batched), "batched records diverged from serial"
    return {
        "serial_s": serial_s,
        "batched_s": batched_s,
        "speedup": serial_s / batched_s,
    }


def measure_simulated_savings(
    trials: int = TRIALS, max_iterations: int = MAX_ITERATIONS
) -> dict:
    """Simulated launch/transfer amortization of the single S x M GPU launch."""
    problem = make_table_instance(SPEC, trial=0)
    neighborhood = KHammingNeighborhood(problem.n, ORDER)
    seeds = [instance_seed(SPEC[0], SPEC[1], trial) for trial in range(trials)]

    serial_ev = GPUEvaluator(problem, neighborhood)
    search = TabuSearch(serial_ev, max_iterations=max_iterations)
    for seed in seeds:
        search.run(rng=seed)
    serial_stats = serial_ev.context.stats

    batched_ev = GPUEvaluator(problem, neighborhood)
    runner = MultiStartRunner(batched_ev, algorithm="tabu", max_iterations=max_iterations)
    runner.run(seeds=seeds)
    batched_stats = batched_ev.context.stats

    return {
        "serial_launches": serial_stats.kernel_launches,
        "batched_launches": batched_stats.kernel_launches,
        "serial_transfer_time_s": serial_stats.transfer_time,
        "batched_transfer_time_s": batched_stats.transfer_time,
        "serial_simulated_s": serial_stats.total_time,
        "batched_simulated_s": batched_stats.total_time,
        "serial_h2d_bytes": serial_stats.h2d_bytes,
        "serial_d2h_bytes": serial_stats.d2h_bytes,
        "batched_h2d_bytes": batched_stats.h2d_bytes,
        "batched_d2h_bytes": batched_stats.d2h_bytes,
        "launch_reduction": serial_stats.kernel_launches / batched_stats.kernel_launches,
        "transfer_time_reduction": (
            serial_stats.transfer_time / batched_stats.transfer_time
        ),
    }


@pytest.mark.benchmark(group="multistart")
def test_batched_multistart_speedup(benchmark):
    """Batched lockstep execution is >= 3x faster than the serial trial loop."""
    wall = benchmark.pedantic(measure_wall_clock, rounds=1, iterations=1, warmup_rounds=0)
    savings = measure_simulated_savings()
    benchmark.extra_info.update(wall)
    benchmark.extra_info.update(savings)
    assert wall["speedup"] >= 3.0, f"expected >= 3x, got x{wall['speedup']:.2f}"
    # The lockstep engine issues (at most) one launch per iteration instead
    # of one per replica per iteration.
    assert savings["batched_launches"] < savings["serial_launches"]
    assert savings["batched_transfer_time_s"] < savings["serial_transfer_time_s"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="batched lockstep multi-start vs the serial trial loop"
    )
    add_record_arguments(parser)
    args = parser.parse_args(argv)
    resolve_record_path(args, JSON_PATH)
    return args


def main() -> None:
    args = parse_args()
    trials = SMOKE_TRIALS if args.smoke else TRIALS
    max_iterations = SMOKE_MAX_ITERATIONS if args.smoke else MAX_ITERATIONS

    wall = measure_wall_clock(trials, max_iterations)
    print(f"instance {SPEC[0]} x {SPEC[1]}, {ORDER}-Hamming, {trials} trials, "
          f"cap {max_iterations} iterations")
    print(f"serial trial loop : {wall['serial_s']:.3f} s")
    print(f"batched lockstep  : {wall['batched_s']:.3f} s")
    print(f"wall-clock speedup: x{wall['speedup']:.1f}")
    savings = measure_simulated_savings(trials, max_iterations)
    print()
    print("simulated GPU accounting (one S x M launch per iteration):")
    print(f"  kernel launches : {savings['serial_launches']} -> "
          f"{savings['batched_launches']} (x{savings['launch_reduction']:.1f} fewer)")
    print(f"  transfer time   : {savings['serial_transfer_time_s']:.4f} s -> "
          f"{savings['batched_transfer_time_s']:.4f} s "
          f"(x{savings['transfer_time_reduction']:.1f} less)")
    print(f"  simulated total : {savings['serial_simulated_s']:.4f} s -> "
          f"{savings['batched_simulated_s']:.4f} s")
    payload = {
        "benchmark": "multistart_lockstep",
        "instance": {"m": SPEC[0], "n": SPEC[1], "order": ORDER},
        "trials": trials,
        "max_iterations": max_iterations,
        "smoke": args.smoke,
        "wall_clock": wall,
        "simulated": savings,
    }
    args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
