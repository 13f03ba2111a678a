"""Benchmark: continuous-batching solve server vs drain-and-refill.

An open-loop Poisson load generator submits solve jobs (1-8 replicas,
heterogeneous iteration budgets) to the solve server at a range of offered
loads, expressed as multiples of the batch's calibrated service capacity
(replica-iterations per simulated second).  Each (devices, load) point is
replayed twice over the identical trace:

* **continuous** — tenants join the live lockstep batch at step boundaries
  and retire the moment their budget or stopping rule fires; freed replica
  slots are refilled immediately from the queue;
* **drain** — the run-to-completion baseline: a new batch of queued jobs is
  admitted only once the previous batch fully drained to its straggler.

Reported per point: p50/p99 job latency, goodput (completions per simulated
second), mean batch occupancy and makespan.  The headline assertion — at a
saturating offered load on 4 simulated GPUs, continuous batching sustains
>= 1.5x the drain goodput at equal-or-lower p99 latency with mean occupancy
>= 80% — runs in both the full and the smoke configuration, and the smoke
wall clock is guarded against regressing more than 2x over the recorded
baseline.

Run as a script (``python benchmarks/bench_service.py [--smoke]``) or via
``pytest benchmarks/bench_service.py --benchmark-only``. The script writes
``benchmarks/BENCH_service.json``, or with ``--smoke``
``.bench_out/smoke/BENCH_service.json`` (``--json`` overrides either).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

from _records import add_record_arguments, resolve_record_path

from repro.core import GPUEvaluator, MultiGPUEvaluator
from repro.harness import format_service_table
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import PermutedPerceptronProblem
from repro.service import (
    SolveServer,
    calibrate_step_time,
    poisson_trace,
    saturating_rate,
)

#: Instance and batch configuration shared by every point.
SPEC = (31, 31)
ORDER = 1
INSTANCE_SEED = 7
TRACE_SEED = 11
TRANSFER_MODE = "reduced"
CAPACITY_PER_DEVICE = 16
REPLICAS = (1, 8)
BUDGET = (10, 150)

#: Full sweep: offered load x device count; the headline point is
#: ``HEADLINE_DEVICES`` at ``HEADLINE_LOAD`` (the saturating load).
DEVICES_SWEEP = (1, 2, 4, 8)
LOADS = (0.7, 1.0, 1.5)
NUM_JOBS = 100
HEADLINE_DEVICES = 4
HEADLINE_LOAD = 1.5

#: CI smoke: the headline point only, on a shorter trace.
SMOKE_DEVICES_SWEEP = (HEADLINE_DEVICES,)
SMOKE_LOADS = (HEADLINE_LOAD,)
SMOKE_NUM_JOBS = 80

#: Recorded smoke wall clock (reference machine); the CI guard fails the
#: benchmark when the measured smoke wall regresses past GUARD_FACTOR x this.
REFERENCE_SMOKE_WALL_S = 3.2
GUARD_FACTOR = 2.0

JSON_PATH = Path(__file__).resolve().parent / "BENCH_service.json"


def make_evaluator(problem, neighborhood, devices: int):
    if devices == 1:
        return GPUEvaluator(problem, neighborhood)
    return MultiGPUEvaluator(problem, neighborhood, devices=devices)


def run_point(problem, neighborhood, devices, capacity, jobs, policy) -> dict:
    evaluator = make_evaluator(problem, neighborhood, devices)
    try:
        server = SolveServer(
            evaluator,
            capacity=capacity,
            policy=policy,
            transfer_mode=TRANSFER_MODE,
        )
        report = server.run_trace(jobs)
    finally:
        evaluator.close()
    return report.summary_row()


def measure(*, smoke: bool = False) -> dict:
    """Sweep the (devices, load) grid; assert the headline criteria."""
    sweep = SMOKE_DEVICES_SWEEP if smoke else DEVICES_SWEEP
    loads = SMOKE_LOADS if smoke else LOADS
    num_jobs = SMOKE_NUM_JOBS if smoke else NUM_JOBS
    mean_job_work = (sum(REPLICAS) / 2) * (sum(BUDGET) / 2)

    start = time.perf_counter()
    problem = PermutedPerceptronProblem.generate(*SPEC, rng=INSTANCE_SEED)
    neighborhood = KHammingNeighborhood(problem.n, ORDER)

    step_times: dict[str, float] = {}
    results: dict[str, dict] = {}
    for devices in sweep:
        capacity = CAPACITY_PER_DEVICE * devices
        calibrator = make_evaluator(problem, neighborhood, devices)
        try:
            step_time = calibrate_step_time(
                calibrator, capacity=capacity, transfer_mode=TRANSFER_MODE
            )
        finally:
            calibrator.close()
        step_times[str(devices)] = step_time
        per_load: dict[str, dict] = {}
        for load in loads:
            rate = saturating_rate(step_time, capacity, mean_job_work, load=load)
            jobs = poisson_trace(
                num_jobs, rate, rng=TRACE_SEED, replicas=REPLICAS, budget=BUDGET
            )
            per_load[f"{load:.2f}"] = {
                policy: run_point(
                    problem, neighborhood, devices, capacity, jobs, policy
                )
                for policy in ("continuous", "drain")
            }
        results[str(devices)] = per_load
    wall_s = time.perf_counter() - start

    headline_point = results[str(HEADLINE_DEVICES)][f"{HEADLINE_LOAD:.2f}"]
    continuous = headline_point["continuous"]
    drain = headline_point["drain"]
    goodput_ratio = continuous["goodput"] / drain["goodput"]
    # The tentpole's acceptance criteria, checked on every run (smoke
    # included): continuous batching must beat drain-and-refill >= 1.5x on
    # goodput at equal-or-lower p99 latency, with mean occupancy >= 80%.
    assert goodput_ratio >= 1.5, f"goodput ratio {goodput_ratio:.2f} < 1.5"
    assert continuous["p99"] <= drain["p99"], (
        f"continuous p99 {continuous['p99']:.4f} > drain p99 {drain['p99']:.4f}"
    )
    assert continuous["occupancy"] >= 0.80, (
        f"mean occupancy {continuous['occupancy']:.2f} < 0.80"
    )

    return {
        "benchmark": "solve_service",
        "instance": {"m": SPEC[0], "n": SPEC[1], "order": ORDER},
        "transfer_mode": TRANSFER_MODE,
        "capacity_per_device": CAPACITY_PER_DEVICE,
        "replicas": list(REPLICAS),
        "budget": list(BUDGET),
        "num_jobs": num_jobs,
        "loads": list(loads),
        "devices": list(sweep),
        "smoke": smoke,
        "step_time_s": step_times,
        "results": results,
        "headline": {
            "devices": HEADLINE_DEVICES,
            "load": HEADLINE_LOAD,
            "goodput_ratio": goodput_ratio,
            "continuous_p99_s": continuous["p99"],
            "drain_p99_s": drain["p99"],
            "continuous_occupancy": continuous["occupancy"],
        },
        "guard_factor": GUARD_FACTOR,
        "reference_smoke_wall_s": REFERENCE_SMOKE_WALL_S,
        "wall_s": wall_s,
    }


def check_guard(payload: dict) -> list[str]:
    """Smoke regression guard: wall clock within GUARD_FACTOR of baseline."""
    if not payload["smoke"]:
        return []
    budget = REFERENCE_SMOKE_WALL_S * GUARD_FACTOR
    if payload["wall_s"] > budget:
        return [
            f"smoke wall {payload['wall_s']:.2f}s exceeds the "
            f"{budget:.2f}s regression budget"
        ]
    return []


def write_json(payload: dict, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="service")
def test_solve_service(benchmark):
    """The smoke sweep meets the headline criteria within the wall budget."""
    payload = benchmark.pedantic(
        lambda: measure(smoke=True), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(payload["headline"])
    assert payload["headline"]["goodput_ratio"] >= 1.5
    assert not check_guard(payload)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_record_arguments(
        parser,
        smoke_help="headline point only, for CI (also enables the wall-clock regression guard)",
    )
    args = parser.parse_args(argv)
    resolve_record_path(args, JSON_PATH)
    return args


def main() -> int:
    args = parse_args()
    payload = measure(smoke=args.smoke)
    spec = payload["instance"]
    print(f"instance {spec['m']} x {spec['n']}, {spec['order']}-Hamming, "
          f"{payload['num_jobs']} Poisson jobs per point, "
          f"{payload['transfer_mode']} transfers, "
          f"{payload['capacity_per_device']} replica slots per device")
    for devices in payload["devices"]:
        rows = []
        for load in payload["loads"]:
            for policy in ("continuous", "drain"):
                row = dict(payload["results"][str(devices)][f"{load:.2f}"][policy])
                row["load"] = load
                rows.append(row)
        print()
        print(format_service_table(
            rows, title=f"{devices} simulated GPU(s), "
                        f"capacity {payload['capacity_per_device'] * devices}"
        ))
    head = payload["headline"]
    print()
    print(f"headline ({head['devices']} GPUs @ {head['load']:.1f}x load): "
          f"continuous goodput x{head['goodput_ratio']:.2f} over drain, "
          f"p99 {head['continuous_p99_s'] * 1e3:.1f}ms vs "
          f"{head['drain_p99_s'] * 1e3:.1f}ms, "
          f"occupancy {head['continuous_occupancy']:.0%}")
    write_json(payload, args.json)
    print(f"wrote {args.json}")
    failures = check_guard(payload)
    if failures:
        for failure in failures:
            print(f"GUARD FAILED: {failure}")
        return 1
    if payload["smoke"]:
        print("smoke guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
