"""Benchmark: elastic fleets under failure/join schedules, and checkpoint cost.

The lockstep runner guarantees that device failures, elastic rejoins and
checkpoint/restore cycles never change *what* is computed — only where and
when.  This benchmark runs the paper's batched tabu protocol (reduced
transfer mode) on a 4-device simulated fleet under four schedules and
compares their makespans:

* **static** — the undisturbed 4-device fleet (baseline);
* **fail** — one device dies mid-run; its replicas migrate to the
  survivors, which then carry the remaining iterations at 3/4 capacity;
* **rejoin** — the dead device comes back later in the run and the fleet
  re-expands to full width;
* **checkpointed** — the static schedule with periodic checkpoints to
  disk, followed by a restore-and-finish leg from the last snapshot.

Every schedule must reproduce the static per-trial records bit-for-bit,
and the checkpointed run's *simulated* accounting must equal the static
run exactly (checkpointing is free in simulated time; only wall clock
pays).  The benchmark asserts all of that before reporting

* the degraded-fleet slowdown (fail vs static makespan),
* the recovery won back by the rejoin,
* the wall-clock overhead of periodic checkpointing, and
* that the restored leg finishes with identical records.

Run as a script (``python benchmarks/bench_elastic.py [--smoke]``) or via
``pytest benchmarks/bench_elastic.py --benchmark-only``. The script writes
``benchmarks/BENCH_elastic.json``, or with ``--smoke``
``.bench_out/smoke/BENCH_elastic.json`` (``--json`` overrides either).
"""

import argparse
import json
import tempfile
import time
from pathlib import Path

import pytest

from _records import add_record_arguments, resolve_record_path

from repro.harness import run_ppp_experiment

#: Paper-protocol configuration: a Table-2/3 sized instance, 2-Hamming
#: neighborhood, 50 independent tabu trials in batched lockstep.
SPEC = (73, 73)
ORDER = 2
TRIALS = 50
MAX_ITERATIONS = 40
FAIL_AT = 15
JOIN_AT = 28
CHECKPOINT_EVERY = 16

#: Reduced configuration for CI smoke runs.
SMOKE_SPEC = (41, 41)
SMOKE_TRIALS = 12
SMOKE_MAX_ITERATIONS = 10
SMOKE_FAIL_AT = 4
SMOKE_JOIN_AT = 7
SMOKE_CHECKPOINT_EVERY = 4

DEVICES = 4
DEAD_DEVICE = 3

JSON_PATH = Path(__file__).resolve().parent / "BENCH_elastic.json"


def run_config(spec, trials, max_iterations, **kwargs) -> dict:
    """One batched reduced-mode experiment; returns records + accounting."""
    start = time.perf_counter()
    row = run_ppp_experiment(
        spec,
        ORDER,
        trials=trials,
        max_iterations=max_iterations,
        evaluator_factory="multi-gpu",
        trial_mode="batched",
        transfer_mode="reduced",
        devices=DEVICES,
        **kwargs,
    )
    wall_s = time.perf_counter() - start
    return {
        "records": [(t.fitness, t.iterations, t.success) for t in row.trials],
        "wall_s": wall_s,
        "sim_elapsed_s": row.sim_elapsed_s,
        "transfer_time_s": row.transfer_time_s,
        "h2d_bytes": row.h2d_bytes,
        "d2h_bytes": row.d2h_bytes,
        "p2p_bytes": row.p2p_bytes,
    }


def measure(*, smoke: bool = False) -> dict:
    """Run the four schedules; assert the resilience guarantees hold."""
    spec = SMOKE_SPEC if smoke else SPEC
    trials = SMOKE_TRIALS if smoke else TRIALS
    max_iterations = SMOKE_MAX_ITERATIONS if smoke else MAX_ITERATIONS
    fail_at = SMOKE_FAIL_AT if smoke else FAIL_AT
    join_at = SMOKE_JOIN_AT if smoke else JOIN_AT
    every = SMOKE_CHECKPOINT_EVERY if smoke else CHECKPOINT_EVERY

    configs: dict[str, dict] = {}
    configs["static"] = run_config(spec, trials, max_iterations)
    configs["fail"] = run_config(
        spec, trials, max_iterations, fault_plan=f"fail:{DEAD_DEVICE}@{fail_at}"
    )
    configs["rejoin"] = run_config(
        spec, trials, max_iterations,
        fault_plan=f"fail:{DEAD_DEVICE}@{fail_at},join:{DEAD_DEVICE}@{join_at}",
    )
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "checkpoint.json"
        configs["checkpointed"] = run_config(
            spec, trials, max_iterations,
            checkpoint_every=every, checkpoint_path=snapshot,
        )
        configs["restored"] = run_config(
            spec, trials, max_iterations, restore=snapshot
        )

    reference = configs["static"]["records"]
    for label, result in configs.items():
        assert result["records"] == reference, f"{label} trajectories diverged"
    static = configs["static"]
    # Checkpointing is free in simulated time: only the wall clock pays.
    assert configs["checkpointed"]["sim_elapsed_s"] == static["sim_elapsed_s"]
    # Losing a device mid-run must cost simulated time, and the rejoin must
    # win some of it back.
    assert configs["fail"]["sim_elapsed_s"] > static["sim_elapsed_s"]
    assert configs["rejoin"]["sim_elapsed_s"] <= configs["fail"]["sim_elapsed_s"]

    payload = {
        "benchmark": "elastic_fleet",
        "instance": {"m": spec[0], "n": spec[1], "order": ORDER},
        "trials": trials,
        "max_iterations": max_iterations,
        "devices": DEVICES,
        "fail_at": fail_at,
        "join_at": join_at,
        "checkpoint_every": every,
        "smoke": smoke,
        "configs": {
            label: {key: value for key, value in result.items() if key != "records"}
            for label, result in configs.items()
        },
        "degraded_slowdown": (
            configs["fail"]["sim_elapsed_s"] / static["sim_elapsed_s"]
        ),
        "rejoin_recovery": (
            configs["fail"]["sim_elapsed_s"] / configs["rejoin"]["sim_elapsed_s"]
        ),
        "checkpoint_wall_overhead": (
            configs["checkpointed"]["wall_s"] / static["wall_s"]
        ),
    }
    return payload


def write_json(payload: dict, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="elastic")
def test_elastic_fleet(benchmark):
    """Failure/join schedules and checkpointing preserve the trajectories."""
    payload = benchmark.pedantic(
        lambda: measure(smoke=True), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(payload["configs"])
    assert payload["degraded_slowdown"] > 1.0
    assert payload["rejoin_recovery"] >= 1.0


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
          f"{payload['trials']} trials, cap {payload['max_iterations']} iterations, "
          f"{payload['devices']} devices (fail@{payload['fail_at']}, "
          f"join@{payload['join_at']})")
    header = (f"{'schedule':<14} {'wall':>8} {'makespan':>10} "
              f"{'transfer':>10} {'h2d':>10} {'p2p':>10}")
    print(header)
    for label, result in payload["configs"].items():
        print(f"{label:<14} {result['wall_s']:>7.3f}s "
              f"{result['sim_elapsed_s'] * 1e3:>8.2f}ms "
              f"{result['transfer_time_s'] * 1e3:>8.2f}ms "
              f"{result['h2d_bytes']:>9d}B {result['p2p_bytes']:>9d}B")
    print(f"degraded fleet x{payload['degraded_slowdown']:.3f} slower, "
          f"rejoin wins back x{payload['rejoin_recovery']:.3f}; "
          f"checkpointing costs x{payload['checkpoint_wall_overhead']:.2f} wall")
    write_json(payload, args.json)
    print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
