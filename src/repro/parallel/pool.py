"""Persistent shared-memory worker pool for batched neighborhood evaluation.

Design
------
The pool forks ``num_workers`` long-lived worker processes once per run and
keeps two ``multiprocessing.shared_memory`` blocks mapped in all of them: an
``int8`` block holding the ``(S, n)`` replica solutions and a ``float64``
block receiving the ``(S, M)`` fitness matrix.  Each lockstep iteration the
parent copies the current solution block into shared memory, broadcasts one
``eval`` command, and every worker scores its contiguous replica shard
``[lo_w, hi_w)`` in place — no per-iteration pickling of solution or result
arrays, only a few-byte command per worker.

Move tables (the ``(M, k)`` neighborhood definition) are broadcast once per
table and cached worker-side by the parent-side ``id`` of the frozen array —
the same identity-keyed discipline the fast scorers use, which is why the
pool only engages for read-only move arrays.

Determinism contract
--------------------
Workers evaluate *rows*; every fitness value ``out[s, m]`` is computed by
exactly one worker with the same row data the single-process path sees, and
every per-problem evaluator is row-independent (the fast scorers by their
integer-exactness guards, the reference paths by construction).  The parent
keeps selection, RNG streams, tabu state and the simulated transfer/launch
accounting, so sharded runs are bit-identical to single-process runs —
trajectories, fitness histories, byte counters and makespans included.

Sizing
------
``resolve_host_workers`` caps an explicit ``host_workers=N`` request at
``os.cpu_count()``; the ``REPRO_HOST_WORKERS`` environment variable
overrides the request *uncapped* (the escape hatch for containers that
report fewer cores than they can schedule, and for the identity tests).
Batches smaller than ``REPRO_HOST_MIN_WORK`` elements (default 16384) are
declined and evaluated locally — sharding tiny batches costs more in
synchronization than it saves.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import traceback
import warnings
from multiprocessing import shared_memory

import numpy as np

from ..problems.incremental import attach_gain_engine, create_gain_engine

__all__ = [
    "DEFAULT_MIN_WORK",
    "HOST_WORKERS_ENV",
    "MIN_WORK_ENV",
    "HostWorkerPool",
    "WorkerDied",
    "get_host_pool",
    "host_parallel",
    "resolve_host_workers",
    "shard_bounds",
    "shutdown_host_pool",
]


class WorkerDied(RuntimeError):
    """A pool worker process exited (or was killed) mid-protocol.

    Raised after the pool has already torn itself down: the shared-memory
    blocks may hold rows the dead worker never wrote, so the pool can never
    be trusted again.  ``try_evaluate`` converts this into a declined call
    (``None``) so callers transparently fall back to local evaluation.
    """

#: Uncapped worker-count override (see :func:`resolve_host_workers`).
HOST_WORKERS_ENV = "REPRO_HOST_WORKERS"

#: Minimum ``S * M`` elements per batch before the pool engages.
MIN_WORK_ENV = "REPRO_HOST_MIN_WORK"
DEFAULT_MIN_WORK = 16_384

#: Worker-side cache size for broadcast move tables.
MAX_TABLES = 8


def resolve_host_workers(requested: int | None = None) -> int:
    """Effective worker count for a ``host_workers`` request.

    ``REPRO_HOST_WORKERS``, when set, wins and is *not* capped at the core
    count (containers frequently underreport; the identity tests rely on
    forcing real sharding on single-core CI runners).  An explicit request
    is capped at ``os.cpu_count()``; no request means single-process.

    An explicit request is validated *before* the environment override is
    consulted (``host_workers=0`` is a programming error either way), and
    when both are set and disagree a single :class:`RuntimeWarning` records
    that the environment won — a silently overridden experiment config is
    otherwise very hard to diagnose.
    """
    if requested is not None and requested < 1:
        raise ValueError(f"host_workers must be >= 1, got {requested}")
    env = os.environ.get(HOST_WORKERS_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{HOST_WORKERS_ENV} must be an integer, got {env!r}") from None
        effective = max(1, value)
        if requested is not None and effective != int(requested):
            warnings.warn(
                f"{HOST_WORKERS_ENV}={env} overrides host_workers={requested}: "
                f"using {effective} worker(s)",
                RuntimeWarning,
                stacklevel=2,
            )
        return effective
    if requested is None:
        return 1
    return max(1, min(int(requested), os.cpu_count() or 1))


def shard_bounds(num_rows: int, num_workers: int, worker_id: int) -> tuple[int, int]:
    """Contiguous row range ``[lo, hi)`` owned by ``worker_id``.

    Balanced to within one row; the union over workers is exactly
    ``[0, num_rows)`` and shards never overlap, so each fitness row has one
    writer.
    """
    lo = (num_rows * worker_id) // num_workers
    hi = (num_rows * (worker_id + 1)) // num_workers
    return lo, hi


def _min_work() -> int:
    """Dispatch threshold, read per call so tests can retune it."""
    raw = os.environ.get(MIN_WORK_ENV)
    if raw is None:
        return DEFAULT_MIN_WORK
    try:
        return max(0, int(raw))
    except ValueError:
        raise ValueError(f"{MIN_WORK_ENV} must be an integer, got {raw!r}") from None


def _worker_main(worker_id, num_workers, conn, sol_shm, out_shm):  # pragma: no cover
    """Worker loop: evaluate the replica shard ``[lo, hi)`` on command.

    Runs in a forked child; coverage cannot observe it.  The protocol is a
    strict request/ack pairing over one Pipe per worker:

    - ``("attach", problem)``   — new problem instance (pool-less pickle)
    - ``("table", key, moves)`` — cache a frozen move table under ``key``
    - ``("drop", key)``         — evict a cached table
    - ``("eval", S, n, M, key, ops, rows)`` — apply buffered gain-cache
      ops, then score rows ``[lo, hi)`` of the shm block (``rows``: the
      batch's global replica ids, or ``None``)
    - ``("update", ops)``       — apply gain-cache ops without evaluating
    - ``("stop",)``             — exit

    Every command is acked with ``("ok",)`` or ``("err", traceback)``.

    Each worker maintains its own shard-local incremental gain engine
    (:mod:`repro.problems.incremental`): the parent forwards the search
    loop's commit/reset stream (piggybacked on ``eval`` — far below the
    dispatch threshold, the ops never pay their own IPC round trip) plus
    the batch's global replica ids, and the worker's engine serves its
    replica shard from maintained state by global row,
    self-healing any replica whose shared-memory row diverged (migration,
    rebalance, faults, checkpoint restore).
    """
    problem = None
    tables: dict[int, np.ndarray] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        try:
            cmd = msg[0]
            if cmd == "stop":
                conn.send(("ok",))
                break
            if cmd == "attach":
                problem = msg[1]
                tables.clear()
                attach_gain_engine(problem, create_gain_engine(problem))
            elif cmd == "table":
                arr = np.asarray(msg[2], dtype=np.int64)
                arr.setflags(write=False)
                tables[msg[1]] = arr
            elif cmd == "drop":
                tables.pop(msg[1], None)
            elif cmd == "update":
                engine = getattr(problem, "_gain_engine", None)
                if engine is not None:
                    engine.apply_ops(msg[1])
            elif cmd == "eval":
                _, num_rows, n, num_moves, key, ops, rows = msg
                engine = getattr(problem, "_gain_engine", None)
                if engine is not None and ops:
                    engine.apply_ops(ops)
                lo, hi = shard_bounds(num_rows, num_workers, worker_id)
                if lo < hi:
                    sol = np.ndarray((num_rows, n), dtype=np.int8, buffer=sol_shm.buf)
                    out = np.ndarray((num_rows, num_moves), dtype=np.float64, buffer=out_shm.buf)
                    problem.evaluate_neighborhood_batch(
                        sol[lo:hi],
                        tables[key],
                        out=out[lo:hi],
                        rows=None if rows is None else rows[lo:hi],
                    )
            else:
                raise ValueError(f"unknown pool command {cmd!r}")
            conn.send(("ok",))
        except Exception:
            conn.send(("err", traceback.format_exc()))
    conn.close()


class HostWorkerPool:
    """A fixed-size pool of forked evaluation workers over shared memory.

    Capacities are in elements: ``solution_capacity`` bounds ``S * n`` of
    the solution block, ``out_capacity`` bounds ``S * M`` of the fitness
    block.  Batches that don't fit are declined (evaluated locally), never
    split across calls.
    """

    def __init__(self, num_workers: int, *, solution_capacity: int, out_capacity: int) -> None:
        if num_workers < 2:
            raise ValueError(f"a worker pool needs >= 2 workers, got {num_workers}")
        self.num_workers = int(num_workers)
        self.solution_capacity = int(solution_capacity)
        self.out_capacity = int(out_capacity)
        self.dispatch_count = 0
        self.update_count = 0
        self._attached = None
        self._tables: dict[int, np.ndarray] = {}
        self._closed = False
        # Only the creating process may tear the pool down: forked children
        # inherit this object (and the module atexit hook), and a child
        # unlinking the shared-memory blocks would pull them out from under
        # the parent mid-run.
        self._owner_pid = os.getpid()
        ctx = multiprocessing.get_context("fork")
        self._sol_shm = shared_memory.SharedMemory(create=True, size=max(1, solution_capacity))
        self._out_shm = shared_memory.SharedMemory(create=True, size=max(8, out_capacity * 8))
        self._conns = []
        self._procs = []
        try:
            for worker_id in range(self.num_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(worker_id, self.num_workers, child_conn, self._sol_shm, self._out_shm),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        except Exception:
            self.shutdown()
            raise

    # -- command plumbing ------------------------------------------------
    def _broadcast(self, msg: tuple) -> None:
        """Send ``msg`` to every worker and collect every ack.

        A worker raising inside a command stays alive and acks a traceback:
        the pool raises but remains usable.  A worker *dying* (closed pipe)
        leaves its shared-memory shard in an unknown state — the pool shuts
        itself down before raising :class:`WorkerDied`, so no later call can
        read stale fitness rows the dead worker never wrote.
        """
        for conn in self._conns:
            # A dead worker closes its pipe end; the recv loop below turns
            # that into a clean "worker died" error instead of a raw EPIPE.
            with contextlib.suppress(OSError, BrokenPipeError):
                conn.send(msg)
        errors = []
        deaths = False
        for worker_id, conn in enumerate(self._conns):
            try:
                ack = conn.recv()
            except (EOFError, OSError):
                errors.append(f"worker {worker_id} died")
                deaths = True
                continue
            if ack[0] != "ok":
                errors.append(f"worker {worker_id}: {ack[1]}")
        if deaths:
            self.shutdown()
            raise WorkerDied("host worker pool failure:\n" + "\n".join(errors))
        if errors:
            raise RuntimeError("host worker pool failure:\n" + "\n".join(errors))

    # -- lifecycle -------------------------------------------------------
    @property
    def alive(self) -> bool:
        # ``Process.is_alive`` may only be called from the parent; a forked
        # child inheriting this object must treat the pool as unusable.
        if os.getpid() != self._owner_pid:
            return False
        return not self._closed and all(p.is_alive() for p in self._procs)

    def attach(self, problem) -> None:
        """Ship ``problem`` to every worker and route its batch calls here.

        The problem pickles without its pool reference
        (``BinaryProblem.__getstate__``), so workers always evaluate
        locally — no recursive dispatch.
        """
        self._tables.clear()
        self._broadcast(("attach", problem))
        problem._host_pool = self
        self._attached = problem

    def detach(self, problem) -> None:
        """Stop routing ``problem``'s batch calls through the pool."""
        if problem.__dict__.get("_host_pool") is self:
            del problem._host_pool
        if self._attached is problem:
            self._attached = None

    def shutdown(self) -> None:
        """Stop the workers and release the shared-memory blocks.

        A no-op in any process other than the creator: forked children
        inherit the pool object and the module atexit hook, and must not
        ``unlink()`` shared memory the parent is still evaluating through.
        """
        if os.getpid() != self._owner_pid:
            return
        if self._closed:
            return
        self._closed = True
        if self._attached is not None:
            self.detach(self._attached)
        for conn in self._conns:
            with contextlib.suppress(OSError, BrokenPipeError):
                conn.send(("stop",))
        for conn in self._conns:
            with contextlib.suppress(EOFError, OSError):
                conn.recv()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            with contextlib.suppress(OSError):
                conn.close()
        for shm in (self._sol_shm, self._out_shm):
            with contextlib.suppress(OSError):
                shm.close()
            with contextlib.suppress(FileNotFoundError, OSError):
                shm.unlink()

    # -- evaluation ------------------------------------------------------
    def _ensure_table(self, moves: np.ndarray) -> int:
        """Broadcast ``moves`` once and return its worker-side cache key."""
        key = id(moves)
        entry = self._tables.get(key)
        if entry is not None and entry is moves:
            return key
        if len(self._tables) >= MAX_TABLES:
            oldest = next(iter(self._tables))
            del self._tables[oldest]
            self._broadcast(("drop", oldest))
        self._broadcast(("table", key, moves))
        self._tables[key] = moves
        return key

    def send_update(self, ops: list) -> None:
        """Broadcast gain-cache ops to every worker without evaluating.

        The hot path never calls this — ops piggyback on ``eval`` — but
        explicit resets (fault recovery outside an evaluation) can flush
        eagerly.
        """
        self._broadcast(("update", ops))
        self.update_count += 1

    def try_evaluate(
        self,
        problem,
        solutions: np.ndarray,
        moves: np.ndarray,
        *,
        out: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Shard one batched evaluation across the workers, or decline.

        Returns ``None`` (caller evaluates locally) when the batch cannot or
        should not be sharded: pool closed, different problem attached,
        fewer than two rows, empty move table, writable (unstable-identity)
        move array, batch under the dispatch threshold, or capacity
        exceeded.
        """
        if self._closed or problem is not self._attached:
            return None
        num_rows, n = solutions.shape
        num_moves = moves.shape[0]
        if num_rows < 2 or num_moves == 0:
            return None
        if moves.flags.writeable:
            return None
        if num_rows * num_moves < _min_work():
            return None
        if num_rows * n > self.solution_capacity or num_rows * num_moves > self.out_capacity:
            return None
        # Lazy gain-cache sync: the buffered commit/reset ops ride the eval
        # broadcast (update payloads are tiny — far below the dispatch
        # threshold — so they must never pay their own IPC round trip; when
        # the pool declines an eval they simply stay buffered), and so do
        # the batch's global replica ids, which the worker engines key on.
        ops: list = []
        engine = getattr(problem, "_gain_engine", None)
        if engine is not None:
            ops = engine.drain_ops()
        try:
            key = self._ensure_table(moves)
            sol_view = np.ndarray((num_rows, n), dtype=np.int8, buffer=self._sol_shm.buf)
            np.copyto(sol_view, solutions)
            self._broadcast(("eval", num_rows, n, num_moves, key, ops, rows))
            if ops:
                self.update_count += 1
        except WorkerDied:
            # The pool already shut itself down (shared memory released, so
            # no stale rows can leak); decline and let the caller evaluate
            # this batch — and every later one — locally.
            return None
        out_view = np.ndarray((num_rows, num_moves), dtype=np.float64, buffer=self._out_shm.buf)
        self.dispatch_count += 1
        if out is None:
            return out_view.copy()
        np.copyto(out, out_view)
        return out


# ---------------------------------------------------------------------------
# Module-level pool reuse: forking workers costs tens of milliseconds, so one
# pool is kept alive across runs and recreated only when the requested shape
# (worker count or capacities) outgrows it.
# ---------------------------------------------------------------------------
_POOL: HostWorkerPool | None = None


def get_host_pool(
    num_workers: int, *, solution_capacity: int, out_capacity: int
) -> HostWorkerPool | None:
    """A live pool with at least the requested shape (``None`` if unavailable).

    Reuses the module singleton when it matches; otherwise tears it down and
    forks a fresh one.  Returns ``None`` on platforms without the ``fork``
    start method — callers fall back to single-process evaluation.
    """
    global _POOL
    if "fork" not in multiprocessing.get_all_start_methods():  # pragma: no cover
        return None
    pool = _POOL
    if pool is not None and pool._owner_pid != os.getpid():
        # Inherited from a parent process across a fork: the workers and the
        # shared memory belong to the parent.  Drop the reference without
        # shutting down (which would race the parent) and fork a fresh pool.
        pool = _POOL = None
    if (
        pool is not None
        and pool.alive
        and pool.num_workers == num_workers
        and pool.solution_capacity >= solution_capacity
        and pool.out_capacity >= out_capacity
    ):
        return pool
    if pool is not None:
        pool.shutdown()
        _POOL = None
    _POOL = HostWorkerPool(
        num_workers,
        solution_capacity=solution_capacity,
        out_capacity=out_capacity,
    )
    return _POOL


def shutdown_host_pool() -> None:
    """Tear down the module-level pool (idempotent)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_host_pool)


@contextlib.contextmanager
def host_parallel(problem, host_workers: int | None = None, *, max_rows: int, max_moves: int):
    """Attach ``problem`` to a sized worker pool for the duration of a run.

    Yields the pool, or ``None`` when host parallelism is off (one effective
    worker), the run shape is degenerate, or pools are unavailable — callers
    need no fallback logic, the batch entry point simply evaluates locally.
    """
    workers = resolve_host_workers(host_workers)
    if workers <= 1 or max_rows < 2 or max_moves < 1:
        yield None
        return
    pool = get_host_pool(
        workers,
        solution_capacity=max_rows * problem.n,
        out_capacity=max_rows * max_moves,
    )
    if pool is None:  # pragma: no cover - fork-less platform
        yield None
        return
    try:
        pool.attach(problem)
    except WorkerDied:  # pragma: no cover - death between fork and attach
        yield None
        return
    try:
        yield pool
    finally:
        pool.detach(problem)
