"""The benchmark's metric catalogue: name, unit, clock, direction, meaning.

``BENCHMARK.json`` lists the same names and units; ``test_perfbench.py``
checks that the two agree.  Clocks: ``host`` is what the simulator spends on
this machine, ``sim`` is the simulated GPU clock (deterministic for a seed,
so a change to a sim metric is a model change), ``count`` is accounted by
the program or counted at the layer entry points.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str
    better: str
    meaning: str
    #: End-to-end metrics: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float | None = None
    #: Per-layer metrics: the end-to-end metric and workloads it should move.
    moves: str = ""


END_TO_END = (
    Metric("replica_iters_per_s", "1/s", "host", "higher",
           "replica-iterations per host second, median over the run's timed passes",
           bound=0.25),
    Metric("setup_s", "s", "host", "lower",
           "fresh interpreter to ready-to-time: import, inputs from the seed, instance, "
           "move tables, evaluator, scorer and engine warm-up (serve: + calibration and "
           "trace); median of 5 fresh processes",
           bound=0.25),
    Metric("peak_rss_mb", "MiB", "host", "lower",
           "peak resident set of the measuring process after setup and its first pass",
           bound=0.10),
    Metric("sim_makespan_s", "sim_s", "sim", "lower",
           "simulated seconds from the first evaluation (serve: first arrival) to the "
           "last completion", bound=0.25),
    Metric("acceleration", "x", "sim", "higher",
           "modelled single-core CPU time / simulated GPU time; PPP workloads: the "
           "paper's per-iteration ratio; serve_trace: CPU time of the served "
           "replica-iterations / makespan", bound=0.10),
    Metric("paper_accel_rel_err", "ratio", "sim", "lower",
           "|modelled Table II 73x73 acceleration / paper's 9.9 - 1|", bound=0.01),
    Metric("mean_best_fitness", "fitness", "sim", "lower",
           "mean best PPP fitness over trials (serve: over completed jobs)", bound=0.25),
    Metric("job_latency_sim_ms_p50", "sim_ms", "sim", "lower",
           "median arrival-to-completion latency; PPP workloads: the 50 trials are one "
           "batch returned at the makespan", bound=0.25),
    Metric("job_latency_sim_ms_p95", "sim_ms", "sim", "lower",
           "95th-percentile latency (serve: 300 jobs, 15 beyond it)", bound=0.25),
    Metric("goodput_jobs_per_sim_s", "1/sim_s", "sim", "higher",
           "deadline-met jobs (trials) per simulated second; no job has a deadline",
           bound=0.25),
)

PER_LAYER = (
    Metric("problems.self_s", "s", "host", "lower", "PPP scoring self time (recompute path)",
           moves="replica_iters_per_s on lockstep_4gpu, serve_trace"),
    Metric("problems.calls", "count", "count", "lower", "problem entry-point calls",
           moves="replica_iters_per_s on lockstep_4gpu, serve_trace"),
    Metric("problems.engine.self_s", "s", "host", "lower", "GainEngine self time",
           moves="replica_iters_per_s on paper_serial, lockstep_1gpu"),
    Metric("problems.engine.served_frac", "ratio", "count", "higher",
           "try_evaluate calls served (not declined) / calls",
           moves="replica_iters_per_s on all; 0 on lockstep_4gpu and serve_trace today"),
    Metric("problems.engine.reinit_rows", "rows", "count", "lower",
           "engine rows re-derived from the solutions",
           moves="replica_iters_per_s on paper_serial, lockstep_1gpu"),
    Metric("core.evaluators.self_s", "s", "host", "lower", "evaluator self time",
           moves="replica_iters_per_s on lockstep_4gpu, serve_trace"),
    Metric("core.evaluators.calls", "count", "count", "lower", "evaluator entry-point calls",
           moves="replica_iters_per_s on lockstep_4gpu, serve_trace"),
    Metric("core.selection.self_s", "s", "host", "lower", "move-selection self time",
           moves="replica_iters_per_s on lockstep_4gpu, serve_trace"),
    Metric("core.selection.calls", "count", "count", "lower", "move-selection calls",
           moves="replica_iters_per_s on lockstep_4gpu, serve_trace"),
    Metric("gpu.runtime.self_s", "s", "host", "lower", "GPUContext self time",
           moves="replica_iters_per_s on serve_trace"),
    Metric("gpu.runtime.calls", "count", "count", "lower", "GPUContext entry-point calls",
           moves="replica_iters_per_s on serve_trace"),
    Metric("gpu.streams.self_s", "s", "host", "lower", "Stream.schedule self time",
           moves="replica_iters_per_s on serve_trace"),
    Metric("gpu.interconnect.self_s", "s", "host", "lower", "TransferEngine self time",
           moves="replica_iters_per_s on serve_trace; no change on paper_serial"),
    Metric("gpu.interconnect.transfers", "count", "count", "lower", "transfers priced",
           moves="replica_iters_per_s on serve_trace"),
    Metric("gpu.interconnect.stall_sim_s", "sim_s", "sim", "lower",
           "simulated time transfers stalled on shared links",
           moves="sim_makespan_s (model changes only)"),
    Metric("gpu.kernel_launches", "count", "count", "lower", "accounted kernel launches",
           moves="sim_makespan_s (model changes only)"),
    Metric("gpu.h2d_bytes", "bytes", "count", "lower", "accounted host-to-device bytes",
           moves="sim_makespan_s (model changes only)"),
    Metric("gpu.d2h_bytes", "bytes", "count", "lower", "accounted device-to-host bytes",
           moves="sim_makespan_s (model changes only)"),
    Metric("gpu.p2p_bytes", "bytes", "count", "lower", "accounted device-to-device bytes",
           moves="sim_makespan_s (model changes only)"),
    Metric("gpu.host_us_per_sim_event", "us", "host", "lower",
           "host microseconds in gpu.* per kernel launch or transfer",
           moves="replica_iters_per_s on serve_trace"),
    Metric("localsearch.self_s", "s", "host", "lower", "runner self time",
           moves="replica_iters_per_s on lockstep_1gpu, lockstep_4gpu"),
    Metric("localsearch.step_host_ms_p50", "ms", "host", "lower",
           "median host time per search step",
           moves="replica_iters_per_s on lockstep_1gpu, lockstep_4gpu"),
    Metric("localsearch.step_host_ms_p95", "ms", "host", "lower",
           "95th-percentile host time per search step",
           moves="replica_iters_per_s on lockstep_1gpu, lockstep_4gpu"),
    Metric("service.self_s", "s", "host", "lower", "scheduler: run_trace minus children",
           moves="replica_iters_per_s, job_latency_sim_* on serve_trace"),
    Metric("service.runner.self_s", "s", "host", "lower",
           "ContinuousRunner step/attach/detach/suspend/resume self time",
           moves="replica_iters_per_s on serve_trace"),
    Metric("service.steps", "count", "count", "lower", "lockstep steps the server ran",
           moves="job_latency_sim_* on serve_trace"),
    Metric("service.preemptions", "count", "count", "lower", "job suspensions",
           moves="job_latency_sim_* on serve_trace"),
    Metric("service.occupancy", "ratio", "sim", "higher", "busy-weighted slot occupancy",
           moves="goodput_jobs_per_sim_s on serve_trace"),
    Metric("service.queue_wait_sim_ms_p50", "sim_ms", "sim", "lower",
           "median arrival-to-admission wait", moves="job_latency_sim_* on serve_trace"),
    Metric("harness.self_s", "s", "host", "lower", "experiment-harness self time",
           moves="setup_s on all workloads"),
    Metric("mappings.self_s", "s", "host", "lower", "move-mapping self time",
           moves="setup_s on all workloads"),
    Metric("trace.overhead_frac", "ratio", "host", "lower",
           "median traced pass wall / median untraced pass wall - 1", moves="none"),
)


def catalogue_lines() -> list[str]:
    """One line per metric: name, unit, clock, direction and meaning."""
    lines = []
    for title, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        lines.append(f"# {title}")
        for m in metrics:
            extra = f"bound {m.bound}" if m.bound is not None else f"moves {m.moves}"
            lines.append(
                f"{m.name:34s} {m.unit:8s} {m.clock:6s} {m.better:7s} {m.meaning} [{extra}]"
            )
    return lines
