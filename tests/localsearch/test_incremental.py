"""Incremental gain-cache engine under the search loops: bit-identity matrix.

The engine replaces the per-iteration full ``(S, M)`` recompute with
O(affected) maintenance, but it is pure plumbing: for every problem family,
every transfer mode and every lockstep algorithm the trajectories, byte
counters and launch counts must match the ``REPRO_INCREMENTAL=0`` recompute
exactly — including across every invalidation path (restarts, ILS kicks,
device faults, replica migration on rebalance, checkpoint -> restore and
host-worker sharding).
"""

import numpy as np
import pytest

import repro.localsearch.base as scalar_mod
import repro.localsearch.multistart as multistart_mod
import repro.service.continuous as continuous_mod
from repro.core import CPUEvaluator, GPUEvaluator
from repro.core.evaluators import MultiGPUEvaluator
from repro.localsearch import IteratedLocalSearch, MultiStartRunner, TabuSearch
from repro.localsearch.multistart import MultiStartRunner as Runner
from repro.neighborhoods import KHammingNeighborhood
from repro.parallel import host_parallel, shutdown_host_pool
from repro.problems import MaxSat, NKLandscape, OneMax, UBQP, generate_random_ksat
from repro.problems.incremental import GainEngine
from repro.problems.instances import make_table_instance
from repro.service import ContinuousRunner

MODES = ("full", "delta", "reduced", "persistent")
ALGORITHMS = ("tabu", "hill-climbing", "first-improvement")
SEEDS = [21, 22, 23, 24]

PROBLEM_FACTORIES = {
    "ppp": lambda: make_table_instance((16, 16), trial=0),
    "onemax": lambda: OneMax(16),
    "maxsat": lambda: MaxSat(16, *generate_random_ksat(16, 60, k=3, rng=2)),
    "nk": lambda: NKLandscape(16, 3, rng=4),
    "ubqp": lambda: UBQP.random(16, rng=1),
}


@pytest.fixture(autouse=True)
def _pool_teardown():
    yield
    shutdown_host_pool()


def lockstep_signature(problem, mode, algorithm, *, host_workers=None, order=2):
    neighborhood = KHammingNeighborhood(problem.n, order)
    with GPUEvaluator(problem, neighborhood) as evaluator:
        runner = MultiStartRunner(
            evaluator,
            algorithm=algorithm,
            max_iterations=12,
            transfer_mode=mode,
            target_fitness=float("-inf"),
            host_workers=host_workers,
        )
        result = runner.run(seeds=SEEDS)
        return {
            "best": [r.best_fitness for r in result],
            "iterations": [r.iterations for r in result],
            "reasons": [r.stopping_reason for r in result],
            "solutions": [r.best_solution.tobytes() for r in result],
            "evaluations": evaluator.stats.evaluations,
            "simulated_time": evaluator.stats.simulated_time,
        }


class TestLockstepMatrix:
    """5 problems x 4 transfer modes x 3 algorithms, engine on vs off."""

    @pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
    @pytest.mark.parametrize("mode", MODES)
    def test_engine_matches_recompute(self, name, mode, monkeypatch):
        problem = PROBLEM_FACTORIES[name]()
        for algorithm in ALGORITHMS:
            monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
            with_engine = lockstep_signature(problem, mode, algorithm)
            monkeypatch.setenv("REPRO_INCREMENTAL", "0")
            without = lockstep_signature(problem, mode, algorithm)
            assert with_engine == without, f"{name}/{mode}/{algorithm} diverged"

    @pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
    def test_engine_actually_serves_the_hot_loop(self, name, monkeypatch):
        """Guard against the matrix passing because the engine silently
        declines everything: on 2-Hamming lockstep it must serve."""
        engines = []
        real_create = multistart_mod.create_gain_engine

        def probe(problem, rows_hint=0):
            engine = real_create(problem, rows_hint=rows_hint)
            if engine is not None:
                engines.append(engine)
            return engine

        monkeypatch.setattr(multistart_mod, "create_gain_engine", probe)
        lockstep_signature(PROBLEM_FACTORIES[name](), "delta", "tabu")
        assert engines, "no engine was created for the lockstep run"
        stats = engines[-1].stats
        assert stats["evals"] > 0, f"engine never served ({stats})"
        assert stats["commits"] > 0


SERVING_EVALUATORS = {
    "cpu": lambda p, nb: CPUEvaluator(p, nb),
    "gpu": lambda p, nb: GPUEvaluator(p, nb),
    "multi-gpu-2": lambda p, nb: MultiGPUEvaluator(p, nb, devices=2),
    "multi-gpu-4": lambda p, nb: MultiGPUEvaluator(p, nb, devices=4),
}
DRIVERS = ("tabu", "lockstep", "continuous")
#: Every evaluator x transfer mode, multi-GPU ``full`` included: its slices
#: cut replicas mid-neighborhood, but one fleet pass scores them all.
SERVING_CELLS = (
    [("cpu", "full")]
    + [(key, mode) for key in ("gpu", "multi-gpu-2", "multi-gpu-4") for mode in MODES]
)


def run_driver(driver, evaluator, mode):
    """Drive ``evaluator`` with one search driver; returns the number of
    rows the driver brought in out of band (initial rows, attaches,
    resumes) — the most the engine may ever derive from scratch."""
    if driver == "tabu":
        TabuSearch(evaluator, max_iterations=10, transfer_mode=mode).run(rng=5)
        return 1
    if driver == "lockstep":
        MultiStartRunner(
            evaluator, max_iterations=10, transfer_mode=mode,
            target_fitness=float("-inf"),
        ).run(seeds=range(7))
        return 7
    runner = ContinuousRunner(
        evaluator, capacity=8, transfer_mode=mode, target_fitness=float("-inf")
    )

    def step(count):
        for _ in range(count):
            retired = runner.step().retired
            if retired:
                runner.detach(retired)

    with runner:
        first = runner.attach(seeds=[1, 2, 3], budgets=12)
        second = runner.attach(seeds=[4, 5], budgets=6)
        step(3)
        parked = runner.suspend(first)
        step(4)
        third = runner.attach(seeds=[6, 7, 8, 9], budgets=5)
        step(1)
        resumed = runner.resume(parked)
        while runner.num_active:
            step(1)
    return first.size + second.size + third.size + resumed.size


@pytest.fixture
def engines(monkeypatch):
    """Every gain engine the search drivers create, in creation order."""
    created = []
    for module in (scalar_mod, multistart_mod, continuous_mod):
        real_create = module.create_gain_engine

        def probe(problem, rows_hint=0, real_create=real_create):
            engine = real_create(problem, rows_hint=rows_hint)
            created.append(engine)
            return engine

        monkeypatch.setattr(module, "create_gain_engine", probe)
    return created


def device_counters(evaluator):
    """Per-device launches and h2d/d2h/p2p bytes, plus simulated time."""
    if hasattr(evaluator, "pool"):
        contexts = evaluator.pool.contexts
    elif hasattr(evaluator, "context"):
        contexts = [evaluator.context]
    else:
        contexts = []  # a host evaluator prices no device
    return {
        "devices": [
            (ctx.stats.kernel_launches, ctx.stats.h2d_bytes, ctx.stats.d2h_bytes,
             ctx.stats.p2p_bytes)
            for ctx in contexts
        ],
        "simulated_time": evaluator.stats.simulated_time,
    }


class TestServingMatrix:
    """The engine must serve every fleet step of every evaluator, transfer
    mode and driver — not merely stay bit-identical by declining — at one
    engine evaluation per fleet-level evaluation call, whatever the number
    of devices the step is split across."""

    def run_cell(self, key, mode, driver, order):
        problem = make_table_instance((16, 16), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, order)
        with SERVING_EVALUATORS[key](problem, neighborhood) as evaluator:
            out_of_band = run_driver(driver, evaluator, mode)
            return evaluator.stats.calls, out_of_band, device_counters(evaluator)

    def check_cell(self, engines, monkeypatch, key, mode, driver, order):
        steps, out_of_band, counters = self.run_cell(key, mode, driver, order)
        assert len(engines) == 1
        stats = engines[0].stats
        assert steps > 0
        assert stats["declined"] == 0, stats
        assert stats["evals"] == steps, stats
        # A wrong row id re-derives rows every step instead of committing.
        assert 0 < stats["reinit_rows"] <= out_of_band, stats
        # Serving changes no priced quantity: per-device launches, bytes and
        # simulated time equal the recompute run of the same cell.
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        assert self.run_cell(key, mode, driver, order) == (steps, out_of_band, counters)
        assert engines[1:] == [None]

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("key,mode", SERVING_CELLS)
    def test_engine_serves_every_shard(self, engines, monkeypatch, key, mode, driver):
        self.check_cell(engines, monkeypatch, key, mode, driver, order=2)

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("key,mode", SERVING_CELLS)
    def test_one_flip_engine_serves_every_shard(
        self, engines, monkeypatch, key, mode, driver
    ):
        """1-Hamming PPP (Table I, ``repro serve``) has its own gain state."""
        self.check_cell(engines, monkeypatch, key, mode, driver, order=1)


class TestScalarSearches:
    """The S=1 loops (scalar tabu, ILS descents) drive the same engine."""

    @pytest.mark.parametrize("mode", MODES[1:])  # resident modes
    def test_scalar_tabu_matches_recompute(self, mode, monkeypatch):
        problem = PROBLEM_FACTORIES["maxsat"]()
        neighborhood = KHammingNeighborhood(problem.n, 2)

        def run():
            with GPUEvaluator(problem, neighborhood) as evaluator:
                result = TabuSearch(
                    evaluator, max_iterations=15, transfer_mode=mode, track_history=True
                ).run(rng=np.random.default_rng(31))
                return (
                    result.best_fitness,
                    result.iterations,
                    tuple(result.history),
                    result.best_solution.tobytes(),
                    evaluator.stats.simulated_time,
                )

        monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
        with_engine = run()
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        assert with_engine == run()

    def test_ils_kicks_rederive_not_diverge(self, monkeypatch):
        """The kick between descents mutates the solution outside the commit
        stream; the shared engine must re-derive, bit-identically."""
        problem = PROBLEM_FACTORIES["ubqp"]()
        neighborhood = KHammingNeighborhood(problem.n, 2)

        def run():
            search = IteratedLocalSearch(
                CPUEvaluator(problem, neighborhood),
                restarts=5,
                descent_max_iterations=10,
                target_fitness=float("-inf"),
            )
            result = search.run(rng=np.random.default_rng(17))
            return (result.best_fitness, result.iterations, result.best_solution.tobytes())

        monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
        with_engine = run()
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        assert with_engine == run()


def multi_gpu_signature(mode, *, fault_plan=None, resume=None, checkpoints=None):
    problem = UBQP.random(16, rng=3)
    neighborhood = KHammingNeighborhood(problem.n, 2)
    evaluator = MultiGPUEvaluator(problem, neighborhood, devices=3)
    runner = Runner(
        evaluator,
        max_iterations=30,
        transfer_mode=mode,
        rebalance_every=7,
        target_fitness=float("-inf"),
    )
    kwargs = {}
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    if resume is not None:
        result = runner.run(resume=resume)
    else:
        if checkpoints is not None:
            kwargs["checkpoint_every"] = 10
            kwargs["checkpoint_callback"] = checkpoints.append
        result = runner.run(seeds=[11, 12, 13, 14, 15, 16], **kwargs)
    contexts = list(runner.evaluator.pool.contexts)
    return {
        "best": [r.best_fitness for r in result],
        "iterations": [r.iterations for r in result],
        "simulated_time": result.simulated_time,
        "h2d": sum(ctx.stats.h2d_bytes for ctx in contexts),
        "d2h": sum(ctx.stats.d2h_bytes for ctx in contexts),
        "launches": sum(ctx.stats.kernel_launches for ctx in contexts),
        "makespan": max(ctx.timeline.elapsed for ctx in contexts),
    }


class TestInvalidationPaths:
    @pytest.mark.parametrize("mode", ("delta", "reduced"))
    def test_device_fault_and_migration(self, mode, monkeypatch):
        """A mid-run device death migrates replicas (and the rebalances move
        them again): the engine is invalidated, not consulted stale."""
        monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
        with_engine = multi_gpu_signature(mode, fault_plan="fail:1@6")
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        assert with_engine == multi_gpu_signature(mode, fault_plan="fail:1@6")

    def test_resync_check_runs_on_every_shard(self, engines, monkeypatch):
        """REPRO_INCREMENTAL_CHECK=1 recomputes every served fleet pass of a
        4-device lockstep — all four shards at once — and asserts it
        matches."""
        monkeypatch.setenv("REPRO_INCREMENTAL_CHECK", "1")
        problem = make_table_instance((16, 16), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        with MultiGPUEvaluator(problem, neighborhood, devices=4) as evaluator:
            MultiStartRunner(
                evaluator, max_iterations=8, transfer_mode="delta",
                target_fitness=float("-inf"),
            ).run(seeds=range(8))
            steps = evaluator.stats.calls
            launches = sum(sub.stats.calls for sub in evaluator._sub_evaluators)
        (engine,) = engines
        assert launches == 4 * steps
        assert engine.stats["evals"] == steps == 8
        assert engine.stats["checks"] == steps

    def test_rebalance_keeps_gain_state(self, engines, monkeypatch):
        """Engine rows are global replica ids: migrating replicas between
        devices re-derives nothing beyond the initial rows."""
        migrated = []
        real_rebalance = MultiGPUEvaluator.rebalance_resident

        def spy(self, active=None):
            migrated.append(real_rebalance(self, active))
            return migrated[-1]

        monkeypatch.setattr(MultiGPUEvaluator, "rebalance_resident", spy)
        problem = make_table_instance((16, 16), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        replicas = 12
        with MultiGPUEvaluator(problem, neighborhood, devices=4) as evaluator:
            MultiStartRunner(
                evaluator, algorithm="hill-climbing", max_iterations=20,
                transfer_mode="delta", rebalance_every=2,
            ).run(seeds=range(replicas))
        assert sum(migrated) > 0
        (engine,) = engines
        assert engine.stats["declined"] == 0
        assert engine.stats["reinit_rows"] == replicas

    def test_checkpoint_restore_rederives(self, monkeypatch):
        """Gain state is derived data: a restored run (fresh engine, no
        persisted state) must match the uninterrupted engine-off run."""
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        uninterrupted = multi_gpu_signature("delta")

        monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
        checkpoints = []
        multi_gpu_signature("delta", checkpoints=checkpoints)
        assert checkpoints
        restored = multi_gpu_signature("delta", resume=checkpoints[0])
        assert restored["best"] == uninterrupted["best"]
        assert restored["iterations"] == uninterrupted["iterations"]

    def test_host_pool_sharding_matches_recompute(self, monkeypatch):
        """Worker-side shard engines reproduce the single-process result."""
        monkeypatch.setenv("REPRO_HOST_WORKERS", "2")
        monkeypatch.setenv("REPRO_HOST_MIN_WORK", "1")
        problem = PROBLEM_FACTORIES["maxsat"]()
        monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
        sharded = lockstep_signature(problem, "delta", "tabu", host_workers=2)
        shutdown_host_pool()
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        recompute = lockstep_signature(problem, "delta", "tabu", host_workers=2)
        shutdown_host_pool()
        monkeypatch.delenv("REPRO_HOST_WORKERS", raising=False)
        local = lockstep_signature(problem, "delta", "tabu")
        assert sharded == recompute == local


class TestPoolUpdateTraffic:
    """REPRO_HOST_MIN_WORK regression: tiny incremental update payloads must
    not buy IPC round trips of their own (ops ride the eval broadcast)."""

    def test_declined_evals_send_no_update_ipc(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_WORKERS", "2")
        # Threshold high enough that every batch is declined by the pool.
        monkeypatch.setenv("REPRO_HOST_MIN_WORK", str(10**12))
        problem = PROBLEM_FACTORIES["ubqp"]()
        moves = KHammingNeighborhood(problem.n, 2).moves()
        moves.setflags(write=False)
        rng = np.random.default_rng(41)
        solutions = np.stack([problem.random_solution(rng) for _ in range(4)])
        engine = GainEngine(problem, rows_hint=4)
        rows = np.arange(4, dtype=np.int64)
        with host_parallel(problem, max_rows=4, max_moves=moves.shape[0]) as pool:
            problem._gain_engine = engine
            try:
                for _ in range(5):
                    problem.evaluate_neighborhood_batch(solutions, moves, rows=rows)
                    bits = np.stack(
                        [rng.choice(problem.n, size=2, replace=False) for _ in range(4)]
                    ).astype(np.int64)
                    engine.commit(rows, bits)
                    solutions[rows[:, None], bits] ^= 1
            finally:
                problem._gain_engine = None
            assert pool.dispatch_count == 0  # every eval declined...
            assert pool.update_count == 0  # ...and no update IPC was paid
        assert len(engine.drain_ops()) > 0  # ops stayed buffered locally

    def test_served_evals_piggyback_ops_on_the_broadcast(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_WORKERS", "2")
        monkeypatch.setenv("REPRO_HOST_MIN_WORK", "1")
        problem = PROBLEM_FACTORIES["ubqp"]()
        moves = KHammingNeighborhood(problem.n, 2).moves()
        moves.setflags(write=False)
        rng = np.random.default_rng(42)
        solutions = np.stack([problem.random_solution(rng) for _ in range(4)])
        engine = GainEngine(problem, rows_hint=4)
        rows = np.arange(4, dtype=np.int64)
        with host_parallel(problem, max_rows=4, max_moves=moves.shape[0]) as pool:
            problem._gain_engine = engine
            try:
                for _ in range(5):
                    problem.evaluate_neighborhood_batch(solutions, moves, rows=rows)
                    bits = np.stack(
                        [rng.choice(problem.n, size=2, replace=False) for _ in range(4)]
                    ).astype(np.int64)
                    engine.commit(rows, bits)
                    solutions[rows[:, None], bits] ^= 1
            finally:
                problem._gain_engine = None
            assert pool.dispatch_count == 5
            # The op stream rode the eval broadcasts; no standalone sends.
            assert pool.update_count <= pool.dispatch_count
        # Everything up to the last broadcast was drained into it; only the
        # commit issued after the final eval is still buffered.
        assert [op[0] for op in engine.drain_ops()] == ["commit"]
