"""Benchmark: transfer modes of the device-resident search pipeline.

The paper's GPU implementation keeps the candidate solution resident on the
device and copies back only what the host needs.  This benchmark runs the
paper's multi-trial tabu protocol (batched lockstep trials on the simulated
GPU) under the three transfer modes and compares

* **PCIe traffic** — ``full`` re-uploads the ``(S, n)`` block and downloads
  all ``S x M`` fitnesses every iteration; ``delta`` uploads only flipped-bit
  pairs; ``reduced`` additionally fuses the argmin reduction on-device and
  downloads 16 bytes per replica;
* **simulated elapsed time** — the stream-timeline makespan, where transfers
  issued on the copy stream hide under kernel execution;
* **wall-clock time** — the host-side cost of shuffling less data.

All three modes produce bit-identical per-trial records (same seeds, same
trajectories); the benchmark asserts that before reporting.

Run as a script (``python benchmarks/bench_pipeline.py [--smoke]``) or via
``pytest benchmarks/bench_pipeline.py --benchmark-only``. The script writes
``benchmarks/BENCH_pipeline.json``, or with ``--smoke``
``.bench_out/smoke/BENCH_pipeline.json`` (``--json`` overrides either).
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from _records import add_record_arguments, resolve_record_path

from repro.harness import run_ppp_experiment
from repro.localsearch import TRANSFER_MODES

#: Paper-protocol configuration: a Table-2/3 sized instance, 2-Hamming
#: neighborhood, 50 independent tabu trials in batched lockstep.
SPEC = (73, 73)
ORDER = 2
TRIALS = 50
MAX_ITERATIONS = 40

#: Reduced configuration for CI smoke runs.  The neighborhood must stay
#: large enough (``S·M`` over the reduction-launch break-even) for the fused
#: reduction to beat the full fitness download — the same crossover the
#: paper observes for its small 1-Hamming kernels.
SMOKE_SPEC = (73, 73)
SMOKE_TRIALS = 20
SMOKE_MAX_ITERATIONS = 8

JSON_PATH = Path(__file__).resolve().parent / "BENCH_pipeline.json"


def run_mode(mode: str, spec, trials: int, max_iterations: int) -> dict:
    """One batched GPU experiment under ``mode``; returns records + accounting."""
    start = time.perf_counter()
    row = run_ppp_experiment(
        spec,
        ORDER,
        trials=trials,
        max_iterations=max_iterations,
        evaluator_factory="gpu",
        trial_mode="batched",
        transfer_mode=mode,
    )
    wall_s = time.perf_counter() - start
    return {
        "records": [(t.fitness, t.iterations, t.success) for t in row.trials],
        "wall_s": wall_s,
        # Split of the measured wall clock: time inside kernel bodies (the
        # NumPy evaluation math) vs everything else the simulator does
        # (transfer pricing, timeline accounting, selection bookkeeping).
        "eval_wall_s": row.eval_wall_s,
        "host_overhead_s": max(0.0, wall_s - row.eval_wall_s),
        "h2d_bytes": row.h2d_bytes,
        "d2h_bytes": row.d2h_bytes,
        "sim_elapsed_s": row.sim_elapsed_s,
        "overlap_saved_s": row.overlap_saved_s,
        "mean_iterations": row.mean_iterations,
    }


def measure(*, smoke: bool = False) -> dict:
    """Compare the three transfer modes; assert bit-identical trajectories."""
    spec = SMOKE_SPEC if smoke else SPEC
    trials = SMOKE_TRIALS if smoke else TRIALS
    max_iterations = SMOKE_MAX_ITERATIONS if smoke else MAX_ITERATIONS
    modes = {
        mode: run_mode(mode, spec, trials, max_iterations) for mode in TRANSFER_MODES
    }
    reference = modes["full"]["records"]
    for mode, result in modes.items():
        assert result["records"] == reference, f"{mode} trajectories diverged from full"
    payload = {
        "benchmark": "pipeline_transfer_modes",
        "instance": {"m": spec[0], "n": spec[1], "order": ORDER},
        "trials": trials,
        "max_iterations": max_iterations,
        "smoke": smoke,
        "modes": {
            mode: {key: value for key, value in result.items() if key != "records"}
            for mode, result in modes.items()
        },
    }
    full, reduced = modes["full"], modes["reduced"]
    payload["d2h_reduction"] = full["d2h_bytes"] / reduced["d2h_bytes"]
    payload["h2d_reduction"] = full["h2d_bytes"] / modes["delta"]["h2d_bytes"]
    payload["sim_speedup"] = full["sim_elapsed_s"] / reduced["sim_elapsed_s"]
    return payload


def write_json(payload: dict, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_transfer_modes(benchmark):
    """Reduced mode moves O(S) bytes per iteration and beats full on simulated time."""
    payload = benchmark.pedantic(
        lambda: measure(smoke=True), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(payload["modes"])
    full, reduced = payload["modes"]["full"], payload["modes"]["reduced"]
    assert reduced["d2h_bytes"] < full["d2h_bytes"]
    assert payload["modes"]["delta"]["h2d_bytes"] < full["h2d_bytes"]
    assert reduced["sim_elapsed_s"] < full["sim_elapsed_s"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_record_arguments(parser)
    args = parser.parse_args(argv)
    resolve_record_path(args, JSON_PATH)
    return args


def main() -> None:
    args = parse_args()
    payload = measure(smoke=args.smoke)
    spec = payload["instance"]
    print(f"instance {spec['m']} x {spec['n']}, {spec['order']}-Hamming, "
          f"{payload['trials']} trials, cap {payload['max_iterations']} iterations")
    header = (f"{'mode':<10} {'wall':>9} {'eval':>9} {'overhead':>9} "
              f"{'sim elapsed':>12} {'overlap':>10} {'h2d':>12} {'d2h':>12}")
    print(header)
    for mode in TRANSFER_MODES:
        result = payload["modes"][mode]
        print(f"{mode:<10} {result['wall_s']:>8.3f}s {result['eval_wall_s']:>8.3f}s "
              f"{result['host_overhead_s']:>8.3f}s "
              f"{result['sim_elapsed_s'] * 1e3:>10.2f}ms "
              f"{result['overlap_saved_s'] * 1e3:>8.2f}ms "
              f"{result['h2d_bytes']:>11d}B {result['d2h_bytes']:>11d}B")
    print(f"d2h bytes: x{payload['d2h_reduction']:.1f} less (reduced vs full); "
          f"h2d bytes: x{payload['h2d_reduction']:.1f} less (delta vs full); "
          f"simulated time: x{payload['sim_speedup']:.2f} faster (reduced vs full)")
    write_json(payload, args.json)
    print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
