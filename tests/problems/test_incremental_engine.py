"""Unit tests of the incremental gain-cache engine.

The engine's contract (:mod:`repro.problems.incremental`): served
evaluations are bit-identical to the full recompute, anything outside the
compiled model declines to the reference chain, and rows whose mirror
diverges from the actual solutions (restarts, kicks, migration, restores —
any out-of-band mutation) are silently re-derived.  These tests drive the
engine directly, without a search loop on top.
"""

import numpy as np
import pytest

from repro.neighborhoods import KHammingNeighborhood
from repro.problems import (
    MaxSat,
    NKLandscape,
    OneMax,
    UBQP,
    generate_random_ksat,
)
from repro.problems.fastpath import BoundedCache, MoveTableCache, cache_stats
from repro.problems.incremental import (
    SCRATCH_ROWS,
    GainEngine,
    attach_gain_engine,
    create_gain_engine,
    detach_gain_engine,
)
from repro.problems.instances import make_table_instance

PROBLEM_FACTORIES = {
    "ppp": lambda: make_table_instance((25, 25), trial=0),
    "onemax": lambda: OneMax(24),
    "maxsat": lambda: MaxSat(24, *generate_random_ksat(24, 100, k=3, rng=2)),
    "nk": lambda: NKLandscape(24, 3, rng=4),
    "ubqp": lambda: UBQP.random(24, rng=1),
}


def frozen_moves(n: int, order: int) -> np.ndarray:
    moves = KHammingNeighborhood(n, order).moves()
    moves.setflags(write=False)
    return moves


def reference(problem, solutions, moves):
    """The recompute path: a call without rows is never engine-served."""
    return problem.evaluate_neighborhood_batch(solutions, moves)


def random_block(problem, rng, rows):
    return np.stack([problem.random_solution(rng) for _ in range(rows)])


@pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
@pytest.mark.parametrize("order", [1, 2])
def test_randomized_commits_stay_bit_identical(name, order):
    """25 iterations of evaluate/commit match the recompute exactly,
    including rows perturbed behind the engine's back (self-heal)."""
    problem = PROBLEM_FACTORIES[name]()
    moves = frozen_moves(problem.n, order)
    rng = np.random.default_rng(20260808)
    rows = 6
    solutions = random_block(problem, rng, rows)
    engine = GainEngine(problem, rows_hint=rows)
    all_rows = np.arange(rows, dtype=np.int64)

    served_any = False
    for step in range(25):
        got = engine.try_evaluate(solutions, moves, rows=all_rows)
        want = reference(problem, solutions, moves)
        if got is None:
            # Outside the compiled model: declining is the contract,
            # nothing to compare.
            assert not engine.stats["evals"]
            return
        served_any = True
        np.testing.assert_array_equal(got, want)

        # Commit one random flip per row, through the engine.
        bits = np.stack(
            [rng.choice(problem.n, size=order, replace=False) for _ in range(rows)]
        ).astype(np.int64)
        engine.commit(all_rows, bits)
        solutions[all_rows[:, None], bits] ^= 1

        if step % 7 == 3:
            # Out-of-band mutation: the engine only sees the changed content
            # at the next evaluation and must re-derive that row.
            victim = int(rng.integers(rows))
            solutions[victim] = problem.random_solution(rng)
    assert served_any
    assert engine.stats["reinit_rows"] > rows  # initial derivation + self-heals


@pytest.mark.parametrize("m,n", [(11, 15), (31, 31), (73, 73), (101, 117)])
@pytest.mark.parametrize("permuted", [False, True])
def test_ppp_one_flip_state_serves_bit_identically(m, n, permuted):
    """The 1-flip PPP state serves every round of 30 commits, on the
    canonical 1-Hamming table and on a permuted one."""
    problem = make_table_instance((m, n), trial=0)
    moves = frozen_moves(problem.n, 1)
    if permuted:
        moves = np.ascontiguousarray(moves[::-1])
        moves.setflags(write=False)
    rng = np.random.default_rng(m * n)
    rows = 5
    solutions = random_block(problem, rng, rows)
    engine = GainEngine(problem, rows_hint=rows)
    all_rows = np.arange(rows, dtype=np.int64)
    for _ in range(30):
        got = engine.try_evaluate(solutions, moves, rows=all_rows)
        np.testing.assert_array_equal(got, reference(problem, solutions, moves))
        bits = rng.integers(0, problem.n, size=(rows, 1)).astype(np.int64)
        engine.commit(all_rows, bits)
        solutions[all_rows[:, None], bits] ^= 1
    assert engine.stats["evals"] == 30
    assert engine.stats["reinit_rows"] == rows


def test_ppp_pair_state_scratch_blocks_are_exact():
    """Enough replicas that the pair state's linear-term GEMM runs through
    several bounded scratch blocks: still bit-identical."""
    problem = make_table_instance((73, 73), trial=0)
    moves = frozen_moves(problem.n, 2)
    rng = np.random.default_rng(3)
    rows = 24
    solutions = random_block(problem, rng, rows)
    engine = GainEngine(problem, rows_hint=rows)
    all_rows = np.arange(rows, dtype=np.int64)
    got = engine.try_evaluate(solutions, moves, rows=all_rows)
    assert engine._state.rp * rows > 2 * SCRATCH_ROWS
    np.testing.assert_array_equal(got, reference(problem, solutions, moves))


@pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
def test_duplicate_bit_commits_self_heal(name):
    """A commit that repeats a bit is outside the state model: the row is
    invalidated and re-derived, and results stay exact."""
    problem = PROBLEM_FACTORIES[name]()
    moves = frozen_moves(problem.n, 2)
    rng = np.random.default_rng(7)
    solutions = random_block(problem, rng, 3)
    engine = GainEngine(problem, rows_hint=3)
    rows = np.arange(3, dtype=np.int64)

    if engine.try_evaluate(solutions, moves, rows=rows) is None:
        pytest.skip("problem declines this move table")
    dup = np.array([[1, 1], [2, 5], [4, 4]], dtype=np.int64)
    engine.commit(rows, dup)
    solutions[rows[:, None], dup] ^= 1  # double flips: rows 0 and 2 unchanged
    assert not engine.valid[0] and engine.valid[1] and not engine.valid[2]

    got = engine.try_evaluate(solutions, moves, rows=rows)
    np.testing.assert_array_equal(got, reference(problem, solutions, moves))


def test_declines_without_expected_rows_and_on_foreign_tables():
    problem = PROBLEM_FACTORIES["ubqp"]()
    moves = frozen_moves(problem.n, 2)
    other = frozen_moves(problem.n, 2)
    rng = np.random.default_rng(3)
    solutions = random_block(problem, rng, 2)
    engine = GainEngine(problem, rows_hint=2)
    rows = np.arange(2, dtype=np.int64)

    # A problem call without rows never consults the attached engine.
    prev = attach_gain_engine(problem, engine)
    try:
        problem.evaluate_neighborhood_batch(solutions, moves)
        problem.evaluate_neighborhood(solutions[0], moves)
    finally:
        detach_gain_engine(problem, prev)
    assert engine.stats == GainEngine(problem).stats

    # Writable move table -> decline (it may be mutated between calls).
    writable = moves.copy()
    assert engine.try_evaluate(solutions, writable, rows=rows) is None

    # Bind the real table, then a different array with equal content must
    # decline: the gain state's coupling indices belong to the bound table.
    assert engine.try_evaluate(solutions, moves, rows=rows) is not None
    assert engine.try_evaluate(solutions, other, rows=rows) is None
    assert engine.stats["declined"] == 2

    # Row ids must match the batch one to one.
    with pytest.raises(ValueError, match="one replica id per solution"):
        engine.try_evaluate(solutions[:1], moves, rows=rows)


def test_kill_switch_disables_engine_creation(monkeypatch):
    problem = PROBLEM_FACTORIES["onemax"]()
    monkeypatch.setenv("REPRO_INCREMENTAL", "0")
    assert create_gain_engine(problem) is None
    monkeypatch.setenv("REPRO_INCREMENTAL", "1")
    assert create_gain_engine(problem) is not None
    # Unsupported problems never get an engine.
    class Alien:
        name = "alien"
        n = 4
    assert create_gain_engine(Alien()) is None


def test_invalidate_all_resets_and_rederives():
    problem = PROBLEM_FACTORIES["maxsat"]()
    moves = frozen_moves(problem.n, 2)
    rng = np.random.default_rng(5)
    solutions = random_block(problem, rng, 4)
    engine = GainEngine(problem, rows_hint=4)
    rows = np.arange(4, dtype=np.int64)

    engine.try_evaluate(solutions, moves, rows=rows)
    assert engine.valid.all()
    engine.invalidate_all()
    assert not engine.valid.any()
    assert engine.drain_ops() == [("reset",)]

    got = engine.try_evaluate(solutions, moves, rows=rows)
    np.testing.assert_array_equal(got, reference(problem, solutions, moves))


def test_ops_buffer_collapses_to_reset_at_cap():
    from repro.problems.incremental import OPS_BUFFER_CAP

    problem = PROBLEM_FACTORIES["onemax"]()
    engine = GainEngine(problem, rows_hint=1)
    row = np.zeros(1, dtype=np.int64)
    for i in range(OPS_BUFFER_CAP + 5):
        engine.commit(row, np.array([[i % problem.n]], dtype=np.int64))
    ops = engine.drain_ops()
    assert ops[0] == ("reset",)
    assert len(ops) <= OPS_BUFFER_CAP


def test_drained_ops_replay_into_a_worker_engine():
    """The pool protocol: a shadow engine fed only the drained op stream
    reaches the same state as the parent engine."""
    problem = PROBLEM_FACTORIES["nk"]()
    moves = frozen_moves(problem.n, 2)
    rng = np.random.default_rng(9)
    solutions = random_block(problem, rng, 3)
    parent = GainEngine(problem, rows_hint=3)
    worker = GainEngine(problem, rows_hint=3)
    rows = np.arange(3, dtype=np.int64)

    for _ in range(6):
        worker.apply_ops(parent.drain_ops())
        got_parent = parent.try_evaluate(solutions, moves, rows=rows)
        got_worker = worker.try_evaluate(solutions, moves, rows=rows)
        np.testing.assert_array_equal(got_parent, got_worker)
        bits = np.stack(
            [rng.choice(problem.n, size=2, replace=False) for _ in range(3)]
        ).astype(np.int64)
        parent.commit(rows, bits)
        solutions[rows[:, None], bits] ^= 1


def test_attach_helpers_nest_and_restore():
    problem = PROBLEM_FACTORIES["onemax"]()
    outer = create_gain_engine(problem)
    prev = attach_gain_engine(problem, outer)
    assert prev is None and problem._gain_engine is outer
    inner = create_gain_engine(problem)
    prev_inner = attach_gain_engine(problem, inner)
    assert prev_inner is outer
    detach_gain_engine(problem, prev_inner)
    assert problem._gain_engine is outer
    detach_gain_engine(problem, prev)
    assert problem._gain_engine is None


def test_debug_check_mode_verifies_served_results(monkeypatch):
    monkeypatch.setenv("REPRO_INCREMENTAL_CHECK", "1")
    problem = PROBLEM_FACTORIES["ubqp"]()
    moves = frozen_moves(problem.n, 1)
    rng = np.random.default_rng(13)
    solutions = random_block(problem, rng, 2)
    engine = GainEngine(problem, rows_hint=2)
    rows = np.arange(2, dtype=np.int64)
    for _ in range(4):
        assert engine.try_evaluate(solutions, moves, rows=rows) is not None
        bits = rng.integers(0, problem.n, size=(2, 1)).astype(np.int64)
        engine.commit(rows, bits)
        solutions[rows[:, None], bits] ^= 1
    assert engine.stats["checks"] == 4


# ---------------------------------------------------------------------------
# Cache observability (BoundedCache / MoveTableCache counters)
# ---------------------------------------------------------------------------
def test_bounded_cache_counts_hits_misses_evictions():
    cache = BoundedCache(2)
    assert cache.get("a") is None  # miss
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # hit
    cache.put("c", 3)  # evicts "b" (least recently used)
    assert cache.get("b") is None
    stats = cache.stats()
    assert stats == {"size": 2, "maxsize": 2, "hits": 1, "misses": 2, "evictions": 1}
    cache.clear()
    assert cache.stats()["size"] == 0
    assert cache.stats()["hits"] == 1  # counters survive clear()


def test_move_table_cache_counts_writable_rebuilds():
    built = []
    cache = MoveTableCache(lambda m: built.append(1) or ("table", m.shape), maxsize=2)
    frozen = np.arange(6, dtype=np.int64).reshape(3, 2)
    frozen.setflags(write=False)
    writable = frozen.copy()
    cache.lookup(frozen)
    cache.lookup(frozen)  # served from cache
    assert len(built) == 1
    cache.lookup(writable)
    cache.lookup(writable)  # rebuilt every time
    assert len(built) == 3
    assert cache.stats()["writable_rebuilds"] == 2


def test_cache_stats_aggregates_live_caches():
    before = cache_stats()
    cache = BoundedCache(4)
    cache.get("missing")
    cache.put("k", "v")
    cache.get("k")
    after = cache_stats()
    assert after["caches"] >= before["caches"] + 1
    assert after["hits"] >= before["hits"] + 1
    assert after["misses"] >= before["misses"] + 1
