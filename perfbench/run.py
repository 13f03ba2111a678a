"""Layered benchmark of the GPU local-search reproduction, on two clocks.

Run from the repository root::

    python3 perfbench/run.py --workload lockstep_1gpu --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --list-metrics

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with the layer entry points wrapped and reports the
per-layer metrics.  Both check every pass's outputs (per-trial or per-job
results, simulated metrics and GPU counters) against the goldens pinned in
``perfbench/golden`` and print, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the machine context, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
GOLDEN_DIR = BENCH_DIR / "golden"
WORKLOAD_NAMES = ("paper_serial", "lockstep_1gpu", "lockstep_4gpu", "serve_trace")

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROCESSES = 5
SETUP_TIMEOUT_S = 120
READY = "SETUP_READY"


def _use_program_sources() -> None:
    """Import the program from this checkout's ``src`` tree."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["seeds"]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its workload being ready."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        ready = [line for line in proc.stdout.splitlines() if line.startswith(READY)]
        samples.append(float(ready[-1].split()[1]) - spawned)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(workload, inputs, seconds: float) -> tuple[list, float]:
    """Repeat the identical pass until ``seconds`` have elapsed (at least once).

    Also returns the peak RSS after the first pass: a fixed amount of work,
    so the figure does not grow with the number of passes a faster program
    fits into the run.
    """
    results, first_pass_rss = [], 0.0
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(workload.run_pass(inputs))
        first_pass_rss = first_pass_rss or peak_rss_mb()
    return results, first_pass_rss


def check_outputs(workload, inputs, results, golden: dict | None) -> tuple[int, list[str], str]:
    """Count failed operations: program drops plus passes whose outputs are wrong.

    With a pinned golden every pass must reproduce it exactly.  Without one
    the first pass must pass the workload's invariants and agree with an
    independent reference path, and every other pass must reproduce it.
    """
    notes = []
    failed = sum(r.dropped for r in results)
    if golden is not None:
        expected, status = golden["outputs_sha256"], "golden"
    else:
        first = results[0]
        expected, status = first.digest(), "reference"
        notes += workload.check_invariants(inputs, first)
        reference = workload.reference_items(inputs)
        if reference is not None and reference != first.items:
            notes.append("outputs differ from the reference evaluator's")
        if notes:
            expected = None
    for index, result in enumerate(results):
        if result.digest() != expected:
            failed += result.operations
            notes.append(f"pass {index}: outputs differ from the {status}")
    return failed, notes, status


def end_to_end_metrics(results, setup_samples, rss_mb: float) -> dict:
    first = results[0]
    rates = [r.replica_iters / r.wall_s for r in results]
    values = {
        "replica_iters_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
    }
    for name in ("sim_makespan_s", "acceleration", "paper_accel_rel_err", "mean_best_fitness",
                 "job_latency_sim_ms_p50", "job_latency_sim_ms_p95",
                 "goodput_jobs_per_sim_s"):
        values[name] = first.sim[name]
    return values


def layer_metrics(tracer, traced, untraced, retraced) -> tuple[dict, dict]:
    """Per-layer metrics from the traced setup + first pass, and the layer table.

    ``retraced`` are further traced passes, kept only for their wall time.
    """
    table = tracer.layer_table()
    phases = list(table.values())

    def total(layer: str, key: str):
        return sum(phase["layers"][layer][key] for phase in phases)

    def count(key: str) -> int:
        return sum(phase["counts"].get(key, 0) for phase in phases)

    engine_calls = sum(
        phase["layers"]["problems.engine"]["entries"].get("GainEngine.try_evaluate", {})
        .get("calls", 0)
        for phase in phases
    )
    steps = sorted(tracer.step_times_ms("pass"))
    pass_layers = table["pass"]["layers"]
    gpu_self_s = sum(
        pass_layers[layer]["self_s"] for layer in ("gpu.runtime", "gpu.streams", "gpu.interconnect")
    )
    sim_events = traced.counters["kernel_launches"] + table["pass"]["counts"].get("transfers", 0)
    base_wall = statistics.median(r.wall_s for r in untraced)
    traced_wall = statistics.median(r.wall_s for r in [traced] + retraced)
    sim = traced.sim
    values = {
        "problems.self_s": total("problems", "self_s"),
        "problems.calls": total("problems", "calls"),
        "problems.engine.self_s": total("problems.engine", "self_s"),
        "problems.engine.served_frac": count("engine_served") / engine_calls if engine_calls else 0.0,
        "problems.engine.reinit_rows": count("engine_reinit_rows"),
        "core.evaluators.self_s": total("core.evaluators", "self_s"),
        "core.evaluators.calls": total("core.evaluators", "calls"),
        "core.selection.self_s": total("core.selection", "self_s"),
        "core.selection.calls": total("core.selection", "calls"),
        "gpu.runtime.self_s": total("gpu.runtime", "self_s"),
        "gpu.runtime.calls": total("gpu.runtime", "calls"),
        "gpu.streams.self_s": total("gpu.streams", "self_s"),
        "gpu.interconnect.self_s": total("gpu.interconnect", "self_s"),
        "gpu.interconnect.transfers": count("transfers"),
        "gpu.interconnect.stall_sim_s": traced.counters["stall_sim_s"],
        "gpu.kernel_launches": traced.counters["kernel_launches"],
        "gpu.h2d_bytes": traced.counters["h2d_bytes"],
        "gpu.d2h_bytes": traced.counters["d2h_bytes"],
        "gpu.p2p_bytes": traced.counters["p2p_bytes"],
        "gpu.host_us_per_sim_event": gpu_self_s * 1e6 / sim_events if sim_events else 0.0,
        "localsearch.self_s": total("localsearch", "self_s"),
        "localsearch.step_host_ms_p50": _percentile(steps, 50),
        "localsearch.step_host_ms_p95": _percentile(steps, 95),
        "service.self_s": total("service", "self_s"),
        "service.runner.self_s": total("service.runner", "self_s"),
        "service.steps": sim.get("steps", 0),
        "service.preemptions": sim.get("preemptions", 0),
        "service.occupancy": sim.get("occupancy", 0.0),
        "service.queue_wait_sim_ms_p50": sim.get("queue_wait_sim_ms_p50", 0.0),
        "harness.self_s": total("harness", "self_s"),
        "mappings.self_s": total("mappings", "self_s"),
        "trace.overhead_frac": traced_wall / base_wall - 1.0,
    }
    return values, table


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit, clock and direction")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.list_metrics:
        from metrics import catalogue_lines

        print("\n".join(catalogue_lines()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    _use_program_sources()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.prepare(args.seed)
        print(f"{READY} {time.time()!r}", flush=True)
        return 0

    from context import context_differences, machine_context
    from metrics import END_TO_END, PER_LAYER

    context = machine_context()
    baseline_path = GOLDEN_DIR / "context.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.is_file() else {}
    differs = context_differences(context, baseline)
    golden = load_golden(args.workload).get(str(args.seed))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "context_differs_from_baseline": differs,
    }

    if args.trace == 0:
        setup_samples = measure_setup(args.workload, args.seed)
        inputs = workload.prepare(args.seed)
        results, rss_mb = timed_passes(workload, inputs, args.seconds)
        values = end_to_end_metrics(results, setup_samples, rss_mb)
        catalogue = END_TO_END
        record["setup_samples_s"] = setup_samples
        gaps = []
    else:
        from tracer import Tracer, coverage_gaps

        tracer = Tracer(run_id)
        inputs = tracer.trace("setup", workload.prepare, args.seed)
        untraced, _ = timed_passes(workload, inputs, args.seconds / 2)
        traced = tracer.trace("pass", workload.run_pass, inputs)
        # More traced passes for the overhead estimate; their spans are dropped.
        retraced = []
        while sum(r.wall_s for r in [traced] + retraced) < args.seconds / 2:
            retraced.append(Tracer(run_id).trace("pass", workload.run_pass, inputs))
        results = untraced + [traced] + retraced
        values, table = layer_metrics(tracer, traced, untraced, retraced)
        catalogue = PER_LAYER
        gaps = coverage_gaps(tracer.calls(), workload.required_calls)
        OUT_DIR.mkdir(exist_ok=True)
        layers_path = OUT_DIR / f"{run_id}-layers.json"
        layers_path.write_text(json.dumps(table, indent=1) + "\n")
        trace_path = OUT_DIR / f"{run_id}-chrome.json"
        spans = tracer.chrome_trace(trace_path)
        pass_layers = {k: v["self_s"] for k, v in table["pass"]["layers"].items()}
        expected = sum(pass_layers[layer] for layer in workload.dominant_layers)
        others = [v for k, v in pass_layers.items() if k not in workload.dominant_layers]
        record.update(
            coverage_gaps=gaps,
            spans=spans,
            layer_table=str(layers_path.relative_to(ROOT)),
            chrome_trace=str(trace_path.relative_to(ROOT)),
            pass_wall_s=table["pass"]["wall_s"],
            pass_self_sum_s=sum(pass_layers.values()),
            pass_layers_ranked=sorted(
                ([k, v] for k, v in pass_layers.items() if v > 0), key=lambda kv: -kv[1]
            ),
            dominant_layers={
                "expected": list(workload.dominant_layers),
                "share_of_pass": expected / table["pass"]["wall_s"],
                "holds": expected > max(others),
            },
        )

    failed, notes, status = check_outputs(workload, inputs, results, golden)
    attempted = sum(r.operations for r in results)
    first = results[0]
    record.update(
        golden=status,
        check_notes=notes,
        passes=[{"wall_s": r.wall_s, "replica_iters": r.replica_iters} for r in results],
        outputs_sha256=first.digest(),
        sim=first.sim,
        counters=first.counters,
        metrics=values,
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    if differs:
        print(f"note: machine context differs from the baseline on {', '.join(differs)}; "
              "do not compare host metrics with the baseline's")
    for note in notes + [f"coverage gap: {gap}" for gap in gaps]:
        print(f"check: {note}")
    print(f"{args.workload} seed={args.seed} passes={len(results)} golden={status} "
          f"record={OUT_DIR.name}/{run_id}.json")
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue}
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not gaps,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
