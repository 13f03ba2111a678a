"""Benchmark: the concurrent multi-GPU scheduler and the pinned-memory model.

The paper's conclusion sketches the multi-GPU perspective — partition the
neighborhood, one partition per device.  This benchmark runs the paper's
multi-trial tabu protocol (batched lockstep trials, reduced transfer mode)
on a single simulated GTX 280 and on concurrently-scheduled pools of 2 and
4 of them, in both the pageable and the pinned host-memory model, and
compares

* **cross-device makespan vs the serialized per-device sum** — the pool's
  overlap-aware elapsed time must sit strictly below what the same work
  would cost run one device after another (true concurrent issue, not a
  per-step max);
* **pinned vs pageable transfer totals** — staging the per-iteration
  delta/result packets through pinned memory must strictly cut the summed
  transfer time of the same workload;
* **peer-to-peer routing** — the delta packets of non-hub devices travel
  over P2P links; their bytes appear in the p2p counters and never in the
  host-facing H2D/D2H counters.

Every configuration must reproduce the single-GPU per-trial records
bit-for-bit (same seeds, same trajectories); the benchmark asserts that
before reporting.

Run as a script (``python benchmarks/bench_multigpu.py [--smoke]``) or via
``pytest benchmarks/bench_multigpu.py --benchmark-only``. The script writes
``benchmarks/BENCH_multigpu.json``, or with ``--smoke``
``.bench_out/smoke/BENCH_multigpu.json`` (``--json`` overrides either).
"""

import argparse
import json
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

#: Reduced configuration for CI smoke runs.
SMOKE_SPEC = (41, 41)
SMOKE_TRIALS = 12
SMOKE_MAX_ITERATIONS = 10

JSON_PATH = Path(__file__).resolve().parent / "BENCH_multigpu.json"

#: Device-pool sizes compared against the single-GPU baseline.
POOL_SIZES = (2, 4)


def run_config(spec, trials, max_iterations, *, devices, pinned) -> dict:
    """One batched reduced-mode experiment; returns records + accounting."""
    start = time.perf_counter()
    row = run_ppp_experiment(
        spec,
        ORDER,
        trials=trials,
        max_iterations=max_iterations,
        evaluator_factory="multi-gpu" if devices > 1 else "gpu",
        trial_mode="batched",
        transfer_mode="reduced",
        devices=devices if devices > 1 else None,
        pinned=pinned,
    )
    wall_s = time.perf_counter() - start
    return {
        "records": [(t.fitness, t.iterations, t.success) for t in row.trials],
        "wall_s": wall_s,
        "sim_elapsed_s": row.sim_elapsed_s,
        "serialized_device_s": row.serialized_device_s,
        "cross_device_overlap_s": row.cross_device_overlap_s,
        "transfer_time_s": row.transfer_time_s,
        "h2d_bytes": row.h2d_bytes,
        "d2h_bytes": row.d2h_bytes,
        "p2p_bytes": row.p2p_bytes,
        "device_elapsed_s": row.device_elapsed_s,
        "num_devices": row.num_devices,
        "pinned": row.pinned,
    }


def measure(*, smoke: bool = False) -> dict:
    """Compare pool sizes and memory kinds; assert bit-identical trajectories."""
    spec = SMOKE_SPEC if smoke else SPEC
    trials = SMOKE_TRIALS if smoke else TRIALS
    max_iterations = SMOKE_MAX_ITERATIONS if smoke else MAX_ITERATIONS
    configs: dict[str, dict] = {}
    for devices in (1, *POOL_SIZES):
        for pinned in (False, True):
            label = f"gpu{devices}-{'pinned' if pinned else 'pageable'}"
            configs[label] = run_config(
                spec, trials, max_iterations, devices=devices, pinned=pinned
            )
    reference = configs["gpu1-pageable"]["records"]
    for label, result in configs.items():
        assert result["records"] == reference, f"{label} trajectories diverged"
    for devices in POOL_SIZES:
        for kind in ("pageable", "pinned"):
            multi = configs[f"gpu{devices}-{kind}"]
            assert multi["sim_elapsed_s"] < multi["serialized_device_s"], (
                f"gpu{devices}-{kind}: concurrent makespan must beat the "
                "serialized per-device sum"
            )
            assert multi["p2p_bytes"] > 0
    for devices in (1, *POOL_SIZES):
        pageable = configs[f"gpu{devices}-pageable"]
        pinned = configs[f"gpu{devices}-pinned"]
        assert pinned["transfer_time_s"] < pageable["transfer_time_s"], (
            f"gpu{devices}: pinned staging must cut the transfer total"
        )
    payload = {
        "benchmark": "multigpu_scheduler",
        "instance": {"m": spec[0], "n": spec[1], "order": ORDER},
        "trials": trials,
        "max_iterations": max_iterations,
        "smoke": smoke,
        "configs": {
            label: {key: value for key, value in result.items() if key != "records"}
            for label, result in configs.items()
        },
    }
    largest = configs[f"gpu{max(POOL_SIZES)}-pageable"]
    payload["cross_device_overlap_ratio"] = (
        largest["serialized_device_s"] / largest["sim_elapsed_s"]
    )
    payload["multi_gpu_speedup"] = (
        configs["gpu1-pageable"]["sim_elapsed_s"] / largest["sim_elapsed_s"]
    )
    payload["pinned_transfer_reduction"] = (
        configs["gpu1-pageable"]["transfer_time_s"]
        / configs["gpu1-pinned"]["transfer_time_s"]
    )
    return payload


def write_json(payload: dict, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="multigpu")
def test_multigpu_scheduler(benchmark):
    """Concurrent pools beat the serialized sum; pinned beats pageable."""
    payload = benchmark.pedantic(
        lambda: measure(smoke=True), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(payload["configs"])
    assert payload["cross_device_overlap_ratio"] > 1.0
    assert payload["pinned_transfer_reduction"] > 1.0
    assert payload["multi_gpu_speedup"] > 1.0


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
    header = (f"{'config':<16} {'wall':>8} {'makespan':>10} {'serialized':>11} "
              f"{'transfer':>10} {'h2d':>10} {'p2p':>10}")
    print(header)
    for label, result in payload["configs"].items():
        print(f"{label:<16} {result['wall_s']:>7.3f}s "
              f"{result['sim_elapsed_s'] * 1e3:>8.2f}ms "
              f"{result['serialized_device_s'] * 1e3:>9.2f}ms "
              f"{result['transfer_time_s'] * 1e3:>8.2f}ms "
              f"{result['h2d_bytes']:>9d}B {result['p2p_bytes']:>9d}B")
    print(f"largest pool: serialized/makespan x{payload['cross_device_overlap_ratio']:.2f}, "
          f"multi-GPU speedup x{payload['multi_gpu_speedup']:.2f} vs one device; "
          f"pinned transfer total x{payload['pinned_transfer_reduction']:.2f} less")
    write_json(payload, args.json)
    print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
