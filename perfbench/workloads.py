"""The benchmark's four workloads, generated from a seed.

Three workloads run the paper's Table II protocol (73x73 PPP, 2-Hamming,
50 trials, 40-iteration cap) through :func:`repro.harness.run_ppp_experiment`
in the three ways users run it; the fourth replays an open-loop trace through
the solve server.  Each workload has two phases:

* :meth:`Workload.prepare` generates the inputs from the seed and builds and
  warms everything a first pass needs (instance, neighborhood and move
  tables, evaluator, fast scorer, gain engine; calibration and the trace for
  ``serve_trace``).  ``setup_s`` times it from a fresh interpreter.
* :meth:`Workload.run_pass` is one timed pass.  It returns the per-trial or
  per-job outputs, the simulated metrics and the GPU counters, all of which
  are deterministic for a seed and are checked against the pinned goldens.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

# Module-level functions are called through their modules, never bound here
# by name, so the traced run's wrappers see the calls.
from repro.core import MultiGPUEvaluator, iteration_times
from repro.harness import PAPER_REFERENCE, experiment
from repro.localsearch import MultiStartRunner, TabuSearch
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import PermutedPerceptronProblem
from repro.problems.instances import PPPInstanceSpec, make_table_instance
from repro.service import SolveServer, poisson_trace, server

#: The paper's Table II protocol at the benchmark's scale.
PPP_SPEC = PPPInstanceSpec(73, 73)
PPP_ORDER = 2
PPP_TRIALS = 50
PPP_ITERATIONS = 40
PAPER_CELL = ("II", PPP_SPEC.label)

#: The solve-server trace.  The served instance is fixed, as a deployed
#: server solves one problem family; the seed draws the traffic.
SERVE_SPEC = (31, 31)
SERVE_ORDER = 1
SERVE_INSTANCE_SEED = 7
SERVE_DEVICES = 4
SERVE_CAPACITY = 16 * SERVE_DEVICES
SERVE_TRANSFER = "reduced"
SERVE_JOBS = 300
SERVE_LOAD = 1.2
SERVE_REPLICAS = (1, 8)
SERVE_BUDGET = (10, 150)
SERVE_TENANTS = 3
SERVE_PRIORITIES = (0, 0, 0, 1)


@dataclass
class PassResult:
    """Outputs of one timed pass."""

    #: Per-trial ``[fitness, iterations, success]`` or per-job
    #: ``[job_id, status, latency_sim_s, best_fitness, iterations, preemptions]``.
    items: list
    #: Simulated-clock and quality metrics (deterministic for a seed).
    sim: dict
    #: GPU and service counters accounted by the program (deterministic).
    counters: dict
    #: Replica-iterations the pass executed (trial or job iterations).
    replica_iters: int
    #: Operations the program refused or dropped (rejected + expired jobs).
    dropped: int
    wall_s: float = 0.0

    @property
    def operations(self) -> int:
        return len(self.items)

    def digest(self) -> str:
        """SHA-256 of the canonical outputs: items, sim metrics and counters."""
        payload = json.dumps(
            {"items": self.items, "sim": self.sim, "counters": self.counters},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def pinned(self) -> dict:
        """What the golden file pins for this pass."""
        return {"outputs_sha256": self.digest(), "sim": self.sim, "counters": self.counters}


def paper_accel_rel_err(acceleration: float) -> float:
    """Relative error of a modelled acceleration against the paper's Table II cell."""
    return abs(acceleration / PAPER_REFERENCE[PAPER_CELL]["acceleration"] - 1.0)


def _pool_counters(evaluator) -> dict:
    contexts = list(evaluator.pool.contexts)
    return {
        "kernel_launches": sum(ctx.stats.kernel_launches for ctx in contexts),
        "h2d_bytes": sum(ctx.stats.h2d_bytes for ctx in contexts),
        "d2h_bytes": sum(ctx.stats.d2h_bytes for ctx in contexts),
        "p2p_bytes": sum(ctx.stats.p2p_bytes for ctx in contexts),
        "stall_sim_s": contexts[0].engine.total_stall,
    }


class Workload:
    """One benchmark workload: inputs from a seed, then repeatable passes."""

    name: str
    why: str
    #: ``(layer, entry point)`` pairs the traced run must see called.
    required_calls: tuple[tuple[str, str], ...] = ()
    #: Layers whose combined self time should exceed any other layer's.
    dominant_layers: tuple[str, ...] = ()

    def prepare(self, seed: int):
        raise NotImplementedError

    def run_pass(self, inputs) -> PassResult:
        raise NotImplementedError

    def reference_items(self, inputs) -> list | None:
        """Items from an independent path, for seeds without a pinned golden."""
        return None

    def check_invariants(self, inputs, result: PassResult) -> list[str]:
        """Seed-independent checks of one pass's outputs."""
        return []


@dataclass(frozen=True)
class PPPInputs:
    seed: int
    #: Trial ``t`` starts from seed ``base_seed + t``; seeds of different
    #: ``--seed`` values never overlap.
    base_seed: int


@dataclass
class PPPWorkload(Workload):
    name: str
    why: str
    trial_mode: str
    evaluator: str
    transfer_mode: str
    devices: int | None = None
    required_calls: tuple = ()
    dominant_layers: tuple = ()

    def _factory(self):
        return experiment.resolve_evaluator_factory(self.evaluator, devices=self.devices)

    def prepare(self, seed: int) -> PPPInputs:
        inputs = PPPInputs(seed=seed, base_seed=seed * PPP_TRIALS)
        # Build and warm what the first pass needs: instance, move tables,
        # evaluator, fast scorer and the gain engine at the pass's batch size.
        problem = make_table_instance(PPP_SPEC)
        neighborhood = KHammingNeighborhood(problem.n, PPP_ORDER)
        neighborhood.moves()
        with self._factory()(problem, neighborhood) as evaluator:
            if self.trial_mode == "batched":
                MultiStartRunner(
                    evaluator, algorithm="tabu", max_iterations=1,
                    transfer_mode=self.transfer_mode,
                ).run(seeds=range(inputs.base_seed, inputs.base_seed + PPP_TRIALS))
            else:
                TabuSearch(
                    evaluator, max_iterations=1, transfer_mode=self.transfer_mode
                ).run(rng=inputs.base_seed)
        return inputs

    def run_pass(self, inputs: PPPInputs) -> PassResult:
        start = time.perf_counter()
        row = experiment.run_ppp_experiment(
            PPP_SPEC,
            PPP_ORDER,
            trials=PPP_TRIALS,
            max_iterations=PPP_ITERATIONS,
            evaluator_factory=self.evaluator,
            base_seed=inputs.base_seed,
            trial_mode=self.trial_mode,
            transfer_mode=self.transfer_mode,
            devices=self.devices,
        )
        wall = time.perf_counter() - start
        return _ppp_result(row, wall)

    def reference_items(self, inputs: PPPInputs) -> list:
        """The same trials on the host evaluator: no simulated device at all."""
        row = experiment.run_ppp_experiment(
            PPP_SPEC,
            PPP_ORDER,
            trials=PPP_TRIALS,
            max_iterations=PPP_ITERATIONS,
            evaluator_factory="cpu",
            base_seed=inputs.base_seed,
            trial_mode="batched",
        )
        return _ppp_items(row)

    def check_invariants(self, inputs, result: PassResult) -> list[str]:
        problems = []
        for index, (fitness, iterations, success) in enumerate(result.items):
            if not 0 <= iterations <= PPP_ITERATIONS:
                problems.append(f"trial {index}: {iterations} iterations")
            if success != (fitness == 0):
                problems.append(f"trial {index}: success={success} at fitness {fitness}")
        return problems


def _ppp_items(row) -> list:
    return [[t.fitness, t.iterations, bool(t.success)] for t in row.trials]


def _ppp_result(row, wall: float) -> PassResult:
    makespan = row.sim_elapsed_s
    makespan_ms = makespan * 1e3
    sim = {
        "acceleration": row.acceleration,
        "paper_accel_rel_err": paper_accel_rel_err(row.acceleration),
        "sim_makespan_s": makespan,
        "mean_best_fitness": row.mean_fitness,
        "success_rate": row.successes / row.num_trials,
        # The trials are one batch submitted at sim time 0 and returned
        # together when the call ends: each one's latency is the makespan.
        "job_latency_sim_ms_p50": makespan_ms,
        "job_latency_sim_ms_p95": makespan_ms,
        "goodput_jobs_per_sim_s": row.num_trials / makespan,
    }
    counters = {
        "kernel_launches": row.kernel_launches,
        "h2d_bytes": row.h2d_bytes,
        "d2h_bytes": row.d2h_bytes,
        "p2p_bytes": row.p2p_bytes,
        "stall_sim_s": row.contention_stall_s,
    }
    return PassResult(
        items=_ppp_items(row),
        sim=sim,
        counters=counters,
        replica_iters=sum(t.iterations for t in row.trials),
        dropped=0,
        wall_s=wall,
    )


@dataclass
class ServeInputs:
    seed: int
    problem: PermutedPerceptronProblem
    neighborhood: KHammingNeighborhood
    step_time_s: float
    jobs: list = field(repr=False)
    #: Modelled single-core CPU seconds per replica-iteration.
    cpu_s_per_iter: float = 0.0
    #: The timing model's Table II acceleration (the paper cell's check).
    paper_cell_acceleration: float = 0.0


def serve_trace_jobs(seed: int, step_time_s: float) -> list:
    """Open-loop Poisson trace at exactly ``SERVE_LOAD`` x calibrated capacity.

    Arrivals are drawn on the simulated clock, so the generator is never
    late.  The arrival times are then rescaled so that the trace's realized
    work (``sum(replicas * budget)``) over its arrival window offers exactly
    ``SERVE_LOAD`` times what the batch serves: a Poisson process conditioned
    on its total, which keeps one seed's traffic as heavy as another's.
    """
    mean_work = np.mean(SERVE_REPLICAS) * np.mean(SERVE_BUDGET)
    rate = SERVE_LOAD * SERVE_CAPACITY / (step_time_s * mean_work)
    jobs = poisson_trace(
        SERVE_JOBS,
        rate,
        rng=seed,
        replicas=SERVE_REPLICAS,
        budget=SERVE_BUDGET,
        priorities=SERVE_PRIORITIES,
        tenants=SERVE_TENANTS,
    )
    work = sum(job.replicas * job.budget for job in jobs)
    window = work * step_time_s / (SERVE_CAPACITY * SERVE_LOAD)
    scale = window / jobs[-1].arrival
    return [dataclasses.replace(job, arrival=job.arrival * scale) for job in jobs]


def _serve_evaluator(problem, neighborhood) -> MultiGPUEvaluator:
    return MultiGPUEvaluator(problem, neighborhood, devices=SERVE_DEVICES)


class ServeWorkload(Workload):
    name = "serve_trace"
    why = (
        "repro serve path: 300-job open-loop trace at 1.2x capacity on 4 GPUs with preemption; "
        "simulator bookkeeping in gpu.* and core.evaluators dominates"
    )
    required_calls = (
        ("service", "SolveServer.run_trace"),
        ("service.runner", "ContinuousRunner.step"),
        ("service.runner", "ContinuousRunner.attach"),
        ("service.runner", "ContinuousRunner.detach"),
        ("service.runner", "ContinuousRunner.suspend"),
        ("service.runner", "ContinuousRunner.resume"),
        ("core.evaluators", "MultiGPUEvaluator.evaluate_resident"),
        ("core.evaluators", "MultiGPUEvaluator.apply_deltas"),
        ("problems", "PermutedPerceptronProblem.evaluate_neighborhood_batch"),
        ("problems.engine", "GainEngine.try_evaluate"),
        ("gpu.runtime", "GPUContext.launch_async"),
        ("gpu.streams", "Stream.schedule"),
        ("gpu.interconnect", "TransferEngine.transfer_batch"),
        ("gpu.interconnect", "TransferEngine.peer_transfer"),
        ("mappings", "mapping_for"),
    )
    dominant_layers = ("core.evaluators", "gpu.runtime", "gpu.streams", "gpu.interconnect")

    def prepare(self, seed: int) -> ServeInputs:
        problem = PermutedPerceptronProblem.generate(*SERVE_SPEC, rng=SERVE_INSTANCE_SEED)
        neighborhood = KHammingNeighborhood(problem.n, SERVE_ORDER)
        with _serve_evaluator(problem, neighborhood) as evaluator:
            step_time = server.calibrate_step_time(
                evaluator, capacity=SERVE_CAPACITY, transfer_mode=SERVE_TRANSFER
            )
        paper_problem = make_table_instance(PPP_SPEC)
        paper_model = iteration_times(
            paper_problem, KHammingNeighborhood(paper_problem.n, PPP_ORDER)
        )
        return ServeInputs(
            seed=seed,
            problem=problem,
            neighborhood=neighborhood,
            step_time_s=step_time,
            jobs=serve_trace_jobs(seed, step_time),
            cpu_s_per_iter=iteration_times(problem, neighborhood).cpu_time,
            paper_cell_acceleration=paper_model.speedup,
        )

    def run_pass(self, inputs: ServeInputs) -> PassResult:
        start = time.perf_counter()
        with _serve_evaluator(inputs.problem, inputs.neighborhood) as evaluator:
            report = SolveServer(
                evaluator,
                capacity=SERVE_CAPACITY,
                policy="continuous",
                transfer_mode=SERVE_TRANSFER,
            ).run_trace(inputs.jobs)
            counters = _pool_counters(evaluator)
        wall = time.perf_counter() - start

        records = report.records
        completed = [r for r in records if r.status == "completed"]
        latencies_ms = np.array([r.latency for r in completed]) * 1e3
        waits_ms = np.array([r.queue_wait for r in records if r.queue_wait is not None]) * 1e3
        replica_iters = sum(r.iterations for r in records)
        acceleration = inputs.cpu_s_per_iter * replica_iters / report.makespan
        items = [
            [r.spec.job_id, r.status, r.latency, r.best_fitness, r.iterations, r.preemptions]
            for r in records
        ]
        sim = {
            "acceleration": acceleration,
            "paper_accel_rel_err": paper_accel_rel_err(inputs.paper_cell_acceleration),
            "sim_makespan_s": report.makespan,
            "mean_best_fitness": float(np.mean([r.best_fitness for r in completed])),
            "success_rate": sum(r.best_fitness == 0 for r in completed) / len(records),
            "job_latency_sim_ms_p50": float(np.percentile(latencies_ms, 50)),
            "job_latency_sim_ms_p95": float(np.percentile(latencies_ms, 95)),
            "goodput_jobs_per_sim_s": report.goodput,
            "steps": report.steps,
            "preemptions": sum(r.preemptions for r in records),
            "preempted_jobs": report.preempted_jobs,
            "occupancy": report.mean_occupancy,
            "queue_wait_sim_ms_p50": float(np.percentile(waits_ms, 50)),
        }
        counters.update(rejected=report.rejected, expired=report.expired)
        return PassResult(
            items=items,
            sim=sim,
            counters=counters,
            replica_iters=replica_iters,
            dropped=report.rejected + report.expired,
            wall_s=wall,
        )

    def check_invariants(self, inputs: ServeInputs, result: PassResult) -> list[str]:
        problems = []
        specs = {job.job_id: job for job in inputs.jobs}
        if [item[0] for item in result.items] != sorted(specs, key=lambda j: (specs[j].arrival, j)):
            problems.append("job records do not cover the trace in arrival order")
        for job_id, status, latency, best, iterations, _ in result.items:
            spec = specs[job_id]
            if status != "completed":
                continue
            if latency is None or latency <= 0:
                problems.append(f"{job_id}: completed with latency {latency}")
            if not 0 < iterations <= spec.replicas * spec.budget:
                problems.append(f"{job_id}: {iterations} replica-iterations")
            if best is None or best < 0:
                problems.append(f"{job_id}: best fitness {best}")
        return problems


_PPP_REQUIRED = (
    ("harness", "run_ppp_experiment"),
    ("problems.engine", "GainEngine.try_evaluate"),
    ("problems.engine", "GainEngine.commit"),
    ("gpu.streams", "Stream.schedule"),
    ("gpu.interconnect", "TransferEngine.transfer_batch"),
    ("mappings", "mapping_for"),
)
_LOCKSTEP_REQUIRED = _PPP_REQUIRED + (
    ("localsearch", "MultiStartRunner.run"),
    ("problems", "PermutedPerceptronProblem.evaluate_neighborhood_batch"),
    ("gpu.runtime", "GPUContext.launch_async"),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        PPPWorkload(
            name="paper_serial",
            why=(
                "Table II protocol as users run it: serial trials, gpu evaluator, full "
                "transfers; S=1 engine scoring dominates and is BLAS-thread-sensitive"
            ),
            trial_mode="serial",
            evaluator="gpu",
            transfer_mode="full",
            dominant_layers=("problems.engine",),
            required_calls=_PPP_REQUIRED
            + (
                ("localsearch", "NeighborhoodLocalSearch.run"),
                ("problems", "PermutedPerceptronProblem.evaluate_neighborhood"),
                ("core.evaluators", "NeighborhoodEvaluator.evaluate"),
                ("core.selection", "best_admissible_move"),
                ("gpu.runtime", "GPUContext.launch"),
            ),
        ),
        PPPWorkload(
            name="lockstep_1gpu",
            why=(
                "same 50 trials as one lockstep batch on 1 GPU with delta transfers; measures "
                "batched engine materialize at S=50"
            ),
            trial_mode="batched",
            evaluator="gpu",
            transfer_mode="delta",
            dominant_layers=("problems.engine",),
            required_calls=_LOCKSTEP_REQUIRED
            + (
                ("core.evaluators", "GPUEvaluator.evaluate_resident"),
                ("core.evaluators", "GPUEvaluator.apply_deltas"),
            ),
        ),
        PPPWorkload(
            name="lockstep_4gpu",
            why=(
                "lockstep_1gpu on 4 simulated GPUs with identical trajectories; isolates the "
                "multi-device cost, where the engine declines and recompute dominates"
            ),
            trial_mode="batched",
            evaluator="multi-gpu",
            transfer_mode="delta",
            devices=4,
            dominant_layers=("problems",),
            required_calls=_LOCKSTEP_REQUIRED
            + (
                ("core.evaluators", "MultiGPUEvaluator.evaluate_resident"),
                ("core.evaluators", "MultiGPUEvaluator.apply_deltas"),
                ("gpu.runtime", "GPUContext.copy_peer_async"),
                ("gpu.interconnect", "TransferEngine.peer_transfer"),
            ),
        ),
        ServeWorkload(),
    )
}
