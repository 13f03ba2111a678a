"""Benchmark: the persistent-kernel iteration loop vs per-iteration launches.

The device-resident pipeline (``reduced`` mode) already shrank per-iteration
PCIe traffic to ``O(S)``; the remaining per-iteration fixed cost is the
kernel launch overhead itself.  The ``persistent`` mode folds the whole
lockstep loop — delta scatter, neighborhood evaluation, fused reduction/
selection and tabu-memory update — into **one** launch per run, with the
host only draining a 16 B/replica result ring and writing ``O(S)``
early-stop flags.  This benchmark runs the paper's multi-trial tabu protocol
on the 73x73 2-Hamming instance and compares

* **kernel launches** — ``reduced`` pays one launch per lockstep iteration,
  ``persistent`` pays one per *run* (the headline launches/iteration →
  launches/run collapse);
* **PCIe traffic** — the persistent loop also drops the per-iteration delta
  packet and tabu stamps (the grid scatters its own selection);
* **simulated elapsed time** — the stream-timeline makespan, where the ring
  drain hides under the resident loop.

All modes produce bit-identical per-trial records (same seeds, same
trajectories); the benchmark asserts that, and asserts the launch count
drops by at least the lockstep iteration count, before reporting.

Run as a script (``python benchmarks/bench_persistent.py [--smoke]``) or via
``pytest benchmarks/bench_persistent.py --benchmark-only``. The script
writes ``benchmarks/BENCH_persistent.json``, or with ``--smoke``
``.bench_out/smoke/BENCH_persistent.json`` (``--json`` overrides either).
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from _records import add_record_arguments, resolve_record_path

from repro.harness import run_ppp_experiment

#: Paper-protocol configuration: the Table-2/3 73x73 instance, 2-Hamming
#: neighborhood, 50 independent tabu trials in batched lockstep.
SPEC = (73, 73)
ORDER = 2
TRIALS = 50
MAX_ITERATIONS = 40

#: Reduced configuration for CI smoke runs.
SMOKE_TRIALS = 20
SMOKE_MAX_ITERATIONS = 8

#: The modes being compared: the per-iteration-launch pipeline vs the
#: single persistent launch (``full`` rides along as the seed baseline).
MODES = ("full", "reduced", "persistent")

JSON_PATH = Path(__file__).resolve().parent / "BENCH_persistent.json"


def run_mode(mode: str, trials: int, max_iterations: int) -> dict:
    """One batched GPU experiment under ``mode``; returns records + accounting."""
    start = time.perf_counter()
    row = run_ppp_experiment(
        SPEC,
        ORDER,
        trials=trials,
        max_iterations=max_iterations,
        evaluator_factory="gpu",
        trial_mode="batched",
        transfer_mode=mode,
    )
    wall_s = time.perf_counter() - start
    # Tabu always moves, so every lockstep step advances each still-active
    # replica by one iteration: the lockstep count is the longest trial's.
    lockstep_iterations = max(t.iterations for t in row.trials)
    return {
        "records": [(t.fitness, t.iterations, t.success) for t in row.trials],
        "wall_s": wall_s,
        "kernel_launches": row.kernel_launches,
        "lockstep_iterations": lockstep_iterations,
        "launches_per_iteration": row.kernel_launches / lockstep_iterations,
        "h2d_bytes": row.h2d_bytes,
        "d2h_bytes": row.d2h_bytes,
        "sim_elapsed_s": row.sim_elapsed_s,
        "overlap_saved_s": row.overlap_saved_s,
    }


def measure(*, smoke: bool = False) -> dict:
    """Compare the launch economics of the three modes; assert bit-identity."""
    trials = SMOKE_TRIALS if smoke else TRIALS
    max_iterations = SMOKE_MAX_ITERATIONS if smoke else MAX_ITERATIONS
    modes = {mode: run_mode(mode, trials, max_iterations) for mode in MODES}
    reference = modes["full"]["records"]
    for mode, result in modes.items():
        assert result["records"] == reference, f"{mode} trajectories diverged from full"
    reduced, persistent = modes["reduced"], modes["persistent"]
    # The acceptance invariant: one launch per run, and the launch count
    # shrinks by at least the iteration count relative to reduced mode.
    assert persistent["kernel_launches"] == 1, persistent["kernel_launches"]
    launch_reduction = reduced["kernel_launches"] / persistent["kernel_launches"]
    assert launch_reduction >= persistent["lockstep_iterations"], (
        launch_reduction,
        persistent["lockstep_iterations"],
    )
    payload = {
        "benchmark": "persistent_kernel_loop",
        "instance": {"m": SPEC[0], "n": SPEC[1], "order": ORDER},
        "trials": trials,
        "max_iterations": max_iterations,
        "smoke": smoke,
        "modes": {
            mode: {key: value for key, value in result.items() if key != "records"}
            for mode, result in modes.items()
        },
        "launch_reduction": launch_reduction,
        "h2d_reduction": reduced["h2d_bytes"] / persistent["h2d_bytes"],
        "sim_speedup": reduced["sim_elapsed_s"] / persistent["sim_elapsed_s"],
    }
    return payload


def write_json(payload: dict, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="persistent")
def test_persistent_launch_collapse(benchmark):
    """Persistent mode issues one launch per run and beats reduced on elapsed time."""
    payload = benchmark.pedantic(
        lambda: measure(smoke=True), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(payload["modes"])
    reduced = payload["modes"]["reduced"]
    persistent = payload["modes"]["persistent"]
    assert persistent["kernel_launches"] == 1
    assert payload["launch_reduction"] >= persistent["lockstep_iterations"]
    assert persistent["sim_elapsed_s"] < reduced["sim_elapsed_s"]
    assert persistent["h2d_bytes"] < reduced["h2d_bytes"]


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
    header = (f"{'mode':<11} {'launches':>9} {'ln/iter':>8} {'wall':>9} "
              f"{'sim elapsed':>12} {'h2d':>12} {'d2h':>12}")
    print(header)
    for mode in MODES:
        result = payload["modes"][mode]
        print(f"{mode:<11} {result['kernel_launches']:>9d} "
              f"{result['launches_per_iteration']:>8.2f} {result['wall_s']:>8.3f}s "
              f"{result['sim_elapsed_s'] * 1e3:>10.2f}ms "
              f"{result['h2d_bytes']:>11d}B {result['d2h_bytes']:>11d}B")
    print(f"launches: x{payload['launch_reduction']:.0f} fewer (persistent vs reduced, "
          f">= {payload['modes']['persistent']['lockstep_iterations']} lockstep iterations); "
          f"h2d bytes: x{payload['h2d_reduction']:.1f} less; "
          f"simulated time: x{payload['sim_speedup']:.2f} faster")
    write_json(payload, args.json)
    print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
