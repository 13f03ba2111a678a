"""Neighborhood evaluators: the execution back-ends of the local search.

All evaluators compute *exactly the same* fitness array for a given
(problem, neighborhood, solution) triple; they differ in how the work would
be executed and therefore in the **simulated time** they accumulate:

``SequentialEvaluator``
    A literal Python loop over neighbors (one ``delta_evaluate`` per move).
    This is the reference implementation used in tests and for very small
    neighborhoods; its simulated time uses the CPU host model.

``CPUEvaluator``
    The NumPy-vectorized batch evaluation.  Functionally identical, much
    faster in wall-clock terms; its *simulated* time still models the
    paper's sequential single-core CPU baseline (that is the platform being
    compared against).

``GPUEvaluator``
    Runs the neighborhood kernel on a simulated device: upload the current
    solution, launch one thread per neighbor, download the fitness array.
    Simulated time comes from the device timing model.

``MultiGPUEvaluator``
    Partitions the flat index space across several simulated devices (the
    paper's multi-GPU perspective); elapsed simulated time is the slowest
    partition.

Both GPU evaluators compute a step once on the host: a single problem call
(the *fleet pass*) scores the work of every device, and each device's
launch is handed its slice as an explicit launch argument, stores it and is
priced as the evaluation it models.  The resident reduction epilogue — the
tabu mask, the fused argmin / first improvement and the robust-tabu
escape — likewise runs once per fleet step, on the stacked block; each
device then only prices its launch chain, stores its share of the result
and writes its tabu stamps.  A ``GPUEvaluator`` is the fleet of one.

The GPU evaluators additionally expose a **device-resident** session API
(:meth:`GPUEvaluator.begin_search` / :meth:`GPUEvaluator.apply_deltas` /
:meth:`GPUEvaluator.evaluate_resident` / :meth:`GPUEvaluator.end_search`):
the solution block is uploaded once per search, each iteration sends only
the flipped-bit ``(replica, bit)`` deltas, and — with ``reduce="argmin"`` —
a fused neighborhood+reduction launch returns only the per-replica best
``(index, fitness)`` pair, shrinking the per-iteration PCIe traffic from
``O(S·M)`` floats down to 16 bytes per replica.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from ..gpu.device import GTX_280, XEON_3GHZ, DeviceSpec, HostSpec
from ..gpu.dtypes import (
    DELTA_DTYPE,
    FITNESS_BYTES,
    FITNESS_DTYPE,
    PEER_PACKET_HEADER_BYTES,
    REDUCED_PAIR_DTYPE,
    REDUCED_RESULT_BYTES,
    SOLUTION_DTYPE,
    STOP_FLAG_BYTES,
    TABU_NEVER,
    TABU_STAMP_DTYPE,
)
from ..gpu.hierarchy import DEFAULT_BLOCK_SIZE
from ..gpu.interconnect import InterconnectTopology
from ..gpu.kernel import ExecutionMode, PersistentKernel
from ..gpu.multi_device import MultiGPU, weighted_partition_range
from ..gpu.runtime import DeviceLoop, GPUContext, PersistentLaunchRecord
from ..gpu.scheduler import DeviceScheduler
from ..gpu.streams import COPY_STREAM, DOWNLOAD_STREAM
from ..gpu.timing import HostTimingModel
from ..neighborhoods import Neighborhood
from ..problems import BinaryProblem, as_solution
from .kernels import (
    build_batch_neighborhood_kernel,
    build_neighborhood_kernel,
    build_slice_kernel,
    mapping_flops,
)

__all__ = [
    "EvaluatorStats",
    "NeighborhoodEvaluator",
    "SequentialEvaluator",
    "CPUEvaluator",
    "GPUEvaluator",
    "MultiGPUEvaluator",
    "REDUCE_OPS",
]

#: Fused on-device reduction operators of the device-resident pipeline.
REDUCE_OPS = ("argmin", "first-improvement")
#: Device buffers of a resident session, named ``"<kind>:<evaluator id>"``.
_SESSION_BUFFERS = (
    "resident",
    "deltas",
    "reduction_packet",
    "resident_fitnesses",
    "reduced",
    "tabu",
)


def _fused_reduce(
    fitnesses: np.ndarray,
    op: str,
    admissible: np.ndarray | None,
    aspiration_fitness: np.ndarray | None,
    thresholds: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Functional body of the fused reduction epilogue.

    Returns per-replica ``(index, fitness)``; a replica with no selectable
    move gets ``(-1, inf)`` (every admissibility decision the device cannot
    make — robust-tabu escapes, local-optimum stops — is left to the host).
    The selection semantics exactly match the host-side vectorized rules, so
    reduced-mode trajectories are bit-identical to full-mode ones.
    """
    rows = np.arange(fitnesses.shape[0])
    if op == "argmin":
        if admissible is None and aspiration_fitness is None:
            indices = fitnesses.argmin(axis=1)
            return indices.astype(np.int64), fitnesses[rows, indices].astype(np.float64)
        if admissible is None:
            mask = np.ones(fitnesses.shape, dtype=bool)
        else:
            mask = np.asarray(admissible, dtype=bool)
        if aspiration_fitness is not None:
            # A new array: the caller's mask is only read.
            mask = mask | (
                fitnesses < np.asarray(aspiration_fitness, dtype=np.float64)[:, None]
            )
        candidates = np.where(mask, fitnesses, np.inf)
        indices = candidates.argmin(axis=1)
        blocked = ~mask.any(axis=1)
        out_indices = np.where(blocked, -1, indices).astype(np.int64)
        out_fitness = np.where(blocked, np.inf, fitnesses[rows, indices])
        return out_indices, out_fitness.astype(np.float64)
    if op == "first-improvement":
        if thresholds is None:
            raise ValueError("first-improvement reduction needs per-replica thresholds")
        improving = fitnesses < np.asarray(thresholds, dtype=np.float64)[:, None]
        has_improving = improving.any(axis=1)
        indices = improving.argmax(axis=1)
        out_indices = np.where(has_improving, indices, -1).astype(np.int64)
        out_fitness = np.where(has_improving, fitnesses[rows, indices], np.inf)
        return out_indices, out_fitness.astype(np.float64)
    raise ValueError(f"unknown reduce op {op!r}; expected one of {REDUCE_OPS}")


def _fleet_pass(context: GPUContext, evaluate, *args, **kwargs) -> np.ndarray | None:
    """Score one fleet step with a single host-side problem call.

    ``evaluate`` is the problem's ``evaluate_neighborhood[_batch]`` over the
    replicas of *every* device launching in the step, keyed by their global
    replica ids, so the gain engine serves the whole fleet in one pass.  Each
    device launch is then handed its slice as the explicit ``scores`` launch
    argument and only stores it; the launches keep their cost, stream order,
    bytes and count.  Returns ``None`` when the devices interpret kernels per
    thread: those launches evaluate every slot themselves.  The pass's host
    wall is charged to ``context.stats.host_eval_time``, which the kernel
    bodies it replaces used to fill.
    """
    if context.mode is not ExecutionMode.VECTORIZED:
        return None
    start = time.perf_counter()
    scores = evaluate(*args, **kwargs)
    context.stats.host_eval_time += time.perf_counter() - start
    return scores


def _check_deltas(
    replicas: np.ndarray, bits: np.ndarray, num_replicas: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``(replica, bit)`` flips against an ``(R, n)`` resident block."""
    replicas = np.asarray(replicas, dtype=np.int64).ravel()
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if replicas.shape != bits.shape:
        raise ValueError("replicas and bits must have the same length")
    if replicas.size:
        if replicas.min() < 0 or replicas.max() >= num_replicas:
            raise IndexError("delta replica index out of range")
        if bits.min() < 0 or bits.max() >= n:
            raise IndexError("delta bit index out of range")
    return replicas, bits


def _delta_pairs(replicas: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The ``(m, 2)`` delta packet rows of ``m`` flips."""
    pairs = np.empty((replicas.size, 2), dtype=DELTA_DTYPE)
    pairs[:, 0] = replicas
    pairs[:, 1] = bits
    return pairs


def _group_by_owner(
    rows: np.ndarray, parts: list, ordered: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """Group replica ids by owning device, each device's in caller order.

    ``parts`` are the ``(evaluator, lo, hi)`` ranges tiling the replicas,
    in device order.  Returns ``(order, cuts)``: device ``i`` owns
    ``rows[order][cuts[i]:cuts[i + 1]]``, where ``order`` is ``None`` when
    the caller vouches that ``rows`` do not descend (``ordered``) — then one
    binary search finds every cut.
    """
    if ordered:
        return None, np.searchsorted(rows, [lo for _, lo, _ in parts] + [parts[-1][2]])
    owner = np.searchsorted([hi for _, _, hi in parts], rows, side="right")
    order = np.argsort(owner, kind="stable")
    return order, np.searchsorted(owner[order], np.arange(len(parts) + 1))


def _strictly_increasing(rows: np.ndarray) -> bool:
    """Whether ``rows`` ascend without repeats.

    ``S`` such rows inside ``[0, S)`` are exactly ``arange(S)``: a device's
    whole block, in order, which needs no id list.
    """
    return rows.size < 2 or bool((rows[1:] > rows[:-1]).all())


def _stack(blocks: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Row-stack per-device blocks into ``out`` (a lone block is used as is)."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, out=out)


def _reduction_packet_rows(
    admissible: np.ndarray | None,
    stamps: np.ndarray | None,
    aspiration_fitness: np.ndarray | None,
    thresholds: np.ndarray | None,
) -> list[np.ndarray]:
    """The reduction packet's bytes as ``(S, k)`` rows, one array per part.

    A device's packet is the concatenation of its rows of every part, in
    this order: the bit-packed admissibility mask, the tabu iteration
    stamps, the aspiration and the improvement thresholds.
    """
    parts = []
    if admissible is not None:
        parts.append(np.packbits(admissible, axis=1))
    for values, dtype in (
        (stamps, TABU_STAMP_DTYPE),
        (aspiration_fitness, np.float64),
        (thresholds, np.float64),
    ):
        if values is not None:
            values = np.ascontiguousarray(values, dtype=dtype)
            parts.append(values.view(np.uint8).reshape(values.size, -1))
    return parts


def _fleet_tabu_mask(
    shares: list, spans: list[slice], stamps: np.ndarray, tenure: int, shape: tuple
) -> np.ndarray:
    """Admissibility of every stacked row's moves, from the devices' tabu memory.

    Each device compares its rows' resident ``last_applied`` stamps straight
    into its span of the one fleet mask; stacking the int64 stamps first
    would copy the whole ``(S, M)`` block once more per step.
    """
    if tenure == 0:
        return np.ones(shape, dtype=bool)
    mask = np.empty(shape, dtype=bool)
    for (device, local, _, full), span in zip(shares, spans):
        last = device._tabu_last_applied if full else device._tabu_last_applied[local]
        np.greater(stamps[span, None] - last, tenure, out=mask[span])
    return mask


def _tabu_escape(
    shares: list,
    spans: list[slice],
    fitnesses: np.ndarray,
    indices: np.ndarray,
    best: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The robust-tabu escape, resolved next to the fused reduction.

    A blocked replica (every move tabu, none aspirated) falls back to its
    oldest move, so no extra fitness fetch crosses PCIe.
    """
    blocked = indices < 0
    if not blocked.any():
        return indices, best
    oldest = indices.copy()
    for (device, local, _, _), span in zip(shares, spans):
        rows = blocked[span]
        if rows.any():
            oldest[span][rows] = device._tabu_last_applied[local[rows]].argmin(axis=1)
    indices = np.where(blocked, oldest, indices).astype(np.int64)
    best = np.where(
        blocked, fitnesses[np.arange(indices.size), indices], best
    ).astype(np.float64)
    return indices, best


def _resident_step(
    context: GPUContext,
    shares: list,
    fleet_rows: np.ndarray,
    reduce: str | None,
    admissible: np.ndarray | None,
    aspiration_fitness: np.ndarray | None,
    thresholds: np.ndarray | None,
    stamps: np.ndarray | None,
):
    """One resident step of a fleet: one pass, one chain per device, one epilogue.

    ``shares`` lists ``(device evaluator, local rows, block, full)`` for
    every launching device, in fleet order: the order of ``fleet_rows``
    (global replica ids) and of the per-replica reduction inputs.  One
    problem call scores the stacked block (its wall is charged to
    ``context``); each device's launch chain then stores and prices its
    slice; the tabu mask, fused reduction and robust-tabu escape run once
    on the stacked block; and each device stores its share of the result.

    Returns the ``(S, M)`` fitness block (``reduce=None``) or the
    per-replica ``(indices, fitnesses)``, in fleet order.
    """
    first = shares[0][0]
    num_indices = first.neighborhood.size
    if len(shares) == 1:
        _, local, block, _ = shares[0]
        # A fleet of one scores straight into its device's fitness buffer,
        # so its launch's store is free.
        out = first._resident_fitnesses(local.size).reshape(local.size, num_indices)
    else:
        block = np.concatenate([share[2] for share in shares])
        out = np.empty((fleet_rows.size, num_indices), dtype=np.float64)
    scores = _fleet_pass(
        context,
        first.problem.evaluate_neighborhood_batch,
        block,
        first.neighborhood.moves(),
        out=out,
        rows=fleet_rows,
    )
    packet_rows = (
        []
        if reduce is None
        else _reduction_packet_rows(admissible, stamps, aspiration_fitness, thresholds)
    )
    spans = []
    downloads = []
    offset = 0
    for device, local, device_block, full in shares:
        span = slice(offset, offset + local.size)
        offset = span.stop
        spans.append(span)
        downloads.append(
            device._launch_resident(
                local,
                device_block,
                None if scores is None else scores[span],
                reduce,
                full,
                [part[span].reshape(-1) for part in packet_rows],
            )
        )
    if reduce is None:
        return _stack(downloads, out)
    if scores is None:
        scores = _stack([share[0]._last_fitnesses for share in shares], out)
    # The reduction epilogue, once for the whole fleet: with the
    # device-resident tabu memory the mask comes from the stamps, and
    # blocked replicas take the robust-tabu escape.
    if stamps is not None:
        admissible = _fleet_tabu_mask(
            shares, spans, stamps, first._tabu_tenure, scores.shape
        )
    indices, best = _fused_reduce(
        scores, reduce, admissible, aspiration_fitness, thresholds
    )
    if stamps is not None:
        indices, best = _tabu_escape(shares, spans, scores, indices, best)
    for (device, local, _, _), span in zip(shares, spans):
        device._store_reduced(
            local, indices[span], best[span], None if stamps is None else stamps[span]
        )
    return indices, best


def _check_reduction_args(
    shape: tuple[int, int],
    reduce: str | None,
    admissible: np.ndarray | None,
    tabu_iterations: np.ndarray | None,
    *,
    tabu_resident: bool,
    persistent: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Validate a resident step's reduction inputs for an ``(S, M)`` fleet.

    Returns the ``(admissible, stamps)`` pair as arrays (or ``None``).
    """
    num_solutions, num_indices = shape
    if num_solutions == 0:
        raise ValueError("need at least one active replica")
    if reduce is not None and reduce not in REDUCE_OPS:
        raise ValueError(f"unknown reduce op {reduce!r}; expected one of {REDUCE_OPS}")
    if persistent and reduce is None:
        raise ValueError(
            "the persistent loop folds selection on-device; downloading the "
            "full fitness matrix would defeat it — use reduce=\"argmin\" or "
            "\"first-improvement\", or transfer_mode=\"delta\""
        )
    stamps = None
    if tabu_iterations is not None:
        if not tabu_resident:
            raise RuntimeError(
                "tabu_iterations needs a device-resident tabu memory; "
                "call init_tabu_memory after begin_search"
            )
        if admissible is not None:
            raise ValueError("pass either admissible or tabu_iterations, not both")
        if reduce != "argmin":
            raise ValueError("tabu_iterations requires reduce=\"argmin\"")
        stamps = np.asarray(tabu_iterations, dtype=TABU_STAMP_DTYPE).ravel()
        if stamps.shape != (num_solutions,):
            raise ValueError(
                f"tabu_iterations must have one stamp per replica "
                f"({num_solutions}), got {stamps.shape}"
            )
    if admissible is not None:
        admissible = np.asarray(admissible, dtype=bool)
        if admissible.shape != (num_solutions, num_indices):
            raise ValueError(
                f"admissible mask must be ({num_solutions}, {num_indices}), "
                f"got {admissible.shape}"
            )
    return admissible, stamps


@dataclass
class EvaluatorStats:
    """Work and simulated time accumulated by one evaluator."""

    calls: int = 0
    evaluations: int = 0
    simulated_time: float = 0.0

    def reset(self) -> None:
        self.calls = 0
        self.evaluations = 0
        self.simulated_time = 0.0


class NeighborhoodEvaluator(abc.ABC):
    """Evaluates all (or a slice of the) neighbors of a candidate solution."""

    #: Short platform label used by the harness ("cpu", "gpu", ...).
    platform: str = "abstract"

    #: Whether the backend implements the device-resident session API
    #: (``begin_search`` / ``apply_deltas`` / ``evaluate_resident``).
    supports_device_residency: bool = False

    def __init__(self, problem: BinaryProblem, neighborhood: Neighborhood) -> None:
        if neighborhood.n != problem.n:
            raise ValueError(
                f"neighborhood is defined over n={neighborhood.n} bits but the problem has n={problem.n}"
            )
        self.problem = problem
        self.neighborhood = neighborhood
        self.stats = EvaluatorStats()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _evaluate(
        self, solution: np.ndarray, indices: np.ndarray, row: int | None
    ) -> np.ndarray:
        """Platform-specific evaluation of the moves at the given flat indices."""

    def _evaluate_many(
        self, solutions: np.ndarray, indices: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        """Platform-specific batched evaluation; default replays the scalar path.

        The fallback runs the single-solution path once per replica (so its
        simulated time is exactly ``S`` sequential explorations); backends
        with a native batched execution override it.
        """
        return np.stack(
            [
                self._evaluate(solution, indices, None if rows is None else int(rows[s]))
                for s, solution in enumerate(solutions)
            ]
        )

    def _is_canonical_full(self, indices: np.ndarray) -> bool:
        """Whether ``indices`` is exactly ``0, 1, ..., size - 1`` in order.

        Only then may a backend evaluate the neighborhood's shared full move
        table.  A mere *permutation* of the full range must NOT: the table
        is in canonical order, which would silently ignore the caller's
        requested ordering.
        """
        return (
            indices.size == self.neighborhood.size
            and (
                indices.size == 0
                or (indices[0] == 0 and bool(np.all(np.diff(indices) == 1)))
            )
        )

    def _moves(self, indices: np.ndarray) -> np.ndarray:
        """The move table for ``indices``: the shared frozen full table when
        they cover the neighborhood in order, a fresh slice otherwise."""
        if self._is_canonical_full(indices):
            return self.neighborhood.moves()
        return self.neighborhood.moves(indices)

    def _check_indices(self, indices: np.ndarray | None) -> np.ndarray:
        if indices is None:
            return np.arange(self.neighborhood.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.neighborhood.size):
            raise IndexError("neighborhood index out of range")
        return indices

    def evaluate(
        self,
        solution: np.ndarray,
        indices: np.ndarray | None = None,
        *,
        row: int | None = None,
    ) -> np.ndarray:
        """Fitness of the neighbors at ``indices`` (default: the whole neighborhood).

        ``row`` is the global replica id of ``solution`` in the calling
        search; it lets the problem's incremental gain engine serve the
        evaluation.
        """
        solution = as_solution(solution, self.problem.n)
        indices = self._check_indices(indices)
        fitnesses = self._evaluate(solution, indices, row)
        self.stats.calls += 1
        self.stats.evaluations += int(indices.size)
        return fitnesses

    def evaluate_many(
        self,
        solutions: np.ndarray,
        indices: np.ndarray | None = None,
        *,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Neighborhood fitnesses of a whole ``(S, n)`` block of solutions.

        Returns an ``(S, M)`` matrix: row ``s`` is exactly what
        :meth:`evaluate` would return for ``solutions[s]``.  This is the
        entry point of the solution-parallel execution engine: backends that
        can batch (the CPU vectorized path, the GPU's single ``S x M``-thread
        launch) amortize per-call overheads — transfers, kernel launches,
        Python dispatch — across all replicas.  ``rows`` holds the global
        replica id of each solution in the calling search; it lets the
        problem's incremental gain engine serve the evaluation.
        """
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim == 1:
            solutions = solutions[None, :]
        if solutions.ndim != 2 or solutions.shape[1] != self.problem.n:
            raise ValueError(
                f"expected an (S, {self.problem.n}) solution block, got {solutions.shape}"
            )
        if solutions.size and not np.all((solutions == 0) | (solutions == 1)):
            raise ValueError("solution block must contain only 0/1 values")
        indices = self._check_indices(indices)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.shape != (solutions.shape[0],):
                raise ValueError(
                    f"rows must hold one replica id per solution ({solutions.shape[0]}), "
                    f"got shape {rows.shape}"
                )
        if solutions.shape[0] == 0:
            return np.empty((0, indices.size), dtype=np.float64)
        fitnesses = self._evaluate_many(solutions, indices, rows)
        self.stats.calls += 1
        self.stats.evaluations += solutions.shape[0] * int(indices.size)
        return fitnesses

    def reset_stats(self) -> None:
        self.stats.reset()

    # ------------------------------------------------------------------
    # Checkpoint API
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Checkpointable state of this evaluator (versioned by the runner).

        The base payload is the work counters; device-backed evaluators
        extend it with their timeline, interconnect and resident-session
        state so that a restored run continues *bit-identically* — same
        trajectories, same byte counters, same makespans.
        """
        return {
            "platform": self.platform,
            "stats": {
                "calls": self.stats.calls,
                "evaluations": self.stats.evaluations,
                "simulated_time": self.stats.simulated_time,
            },
        }

    def restore_state(self, snap: dict) -> None:
        """Install a :meth:`snapshot_state` payload into this fresh evaluator."""
        stats = snap["stats"]
        self.stats.calls = int(stats["calls"])
        self.stats.evaluations = int(stats["evaluations"])
        self.stats.simulated_time = float(stats["simulated_time"])

    def close(self) -> None:
        """Release any persistent per-evaluator device buffers (no-op on CPU)."""

    def __enter__(self) -> "NeighborhoodEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(problem={self.problem.name!r}, "
            f"order={self.neighborhood.order}, size={self.neighborhood.size})"
        )


class _HostModelMixin:
    """Shared CPU-side simulated-time accounting."""

    def _account_host_time(self, num_evaluations: int) -> None:
        cost = self.problem.cost_profile(self.neighborhood.order)
        flops = (cost["flops"] + mapping_flops(self.neighborhood.order)) * num_evaluations
        mem_bytes = cost["bytes"] * num_evaluations
        self.stats.simulated_time += self._host_model.evaluation_time(flops, mem_bytes)
        self.stats.simulated_time += self._host_model.iteration_overhead()


class SequentialEvaluator(_HostModelMixin, NeighborhoodEvaluator):
    """Reference evaluator: a literal per-neighbor Python loop."""

    platform = "cpu-sequential"

    def __init__(
        self,
        problem: BinaryProblem,
        neighborhood: Neighborhood,
        *,
        host: HostSpec = XEON_3GHZ,
        cores: int = 1,
    ) -> None:
        super().__init__(problem, neighborhood)
        self._host_model = HostTimingModel(host, cores_used=cores)

    def _evaluate(
        self, solution: np.ndarray, indices: np.ndarray, row: int | None
    ) -> np.ndarray:
        mapping = self.neighborhood.mapping
        out = np.empty(indices.size, dtype=np.float64)
        for slot, flat in enumerate(indices):
            move = mapping.from_flat(int(flat))
            out[slot] = self.problem.delta_evaluate(solution, move)
        self._account_host_time(indices.size)
        return out


class CPUEvaluator(_HostModelMixin, NeighborhoodEvaluator):
    """Vectorized CPU evaluator (functional twin of the GPU kernel)."""

    platform = "cpu"

    def __init__(
        self,
        problem: BinaryProblem,
        neighborhood: Neighborhood,
        *,
        host: HostSpec = XEON_3GHZ,
        cores: int = 1,
    ) -> None:
        super().__init__(problem, neighborhood)
        self._host_model = HostTimingModel(host, cores_used=cores)

    def _evaluate(
        self, solution: np.ndarray, indices: np.ndarray, row: int | None
    ) -> np.ndarray:
        fitnesses = self.problem.evaluate_neighborhood(solution, self._moves(indices), row=row)
        self._account_host_time(indices.size)
        return np.asarray(fitnesses, dtype=np.float64)

    def _evaluate_many(
        self, solutions: np.ndarray, indices: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        # One broadcast delta evaluation for the whole (S, n) block; the
        # modeled time still charges the sequential baseline for all S * M
        # evaluations (one per-call overhead instead of S — the batched
        # path's bookkeeping amortization).
        fitnesses = self.problem.evaluate_neighborhood_batch(
            solutions, self._moves(indices), rows=rows
        )
        self._account_host_time(solutions.shape[0] * indices.size)
        return np.asarray(fitnesses, dtype=np.float64)


class GPUEvaluator(NeighborhoodEvaluator):
    """Evaluator running the neighborhood kernel on one simulated GPU."""

    platform = "gpu"

    def __init__(
        self,
        problem: BinaryProblem,
        neighborhood: Neighborhood,
        *,
        device: DeviceSpec = GTX_280,
        block_size: int = DEFAULT_BLOCK_SIZE,
        mode: ExecutionMode = ExecutionMode.VECTORIZED,
        context: GPUContext | None = None,
        use_texture_memory: bool = False,
        pinned: bool = False,
        topology: InterconnectTopology | str | None = None,
    ) -> None:
        super().__init__(problem, neighborhood)
        if context is not None and topology is not None:
            raise ValueError("pass either an existing context or a topology, not both")
        self.context = (
            context
            if context is not None
            else GPUContext(device, mode=mode, pinned=pinned, topology=topology)
        )
        self.block_size = int(block_size)
        self.use_texture_memory = bool(use_texture_memory)
        self.kernel = build_neighborhood_kernel(
            problem, neighborhood, use_texture=self.use_texture_memory
        )
        self.batch_kernel = build_batch_neighborhood_kernel(
            problem, neighborhood, use_texture=self.use_texture_memory
        )
        self._slice_kernel = build_slice_kernel(self.kernel, self.kernel.name + "[slice]")
        self._batch_slice_kernel = build_slice_kernel(
            self.batch_kernel, self.batch_kernel.name + "[slice]"
        )
        #: Device buffer names of the resident session and the fused
        #: reduction's kernel names, formatted once.
        self._buffer_names = {kind: f"{kind}:{id(self)}" for kind in _SESSION_BUFFERS}
        self._reduce_names = {
            op: f"FusedReduce<{op}>[{self.batch_kernel.name}]" for op in REDUCE_OPS
        }
        # Persistent device-side fitness buffer, allocated once (as a real
        # implementation would) and reused across iterations.
        self._fitness_buffer = self.context.alloc(
            f"fitnesses:{id(self)}", (neighborhood.size,), np.float64
        )
        # Geometry of the last batched call (the device-side solution block
        # and fitness buffer are reallocated when the number of in-flight
        # replicas changes).
        self._solutions_shape: tuple[int, int] | None = None
        self._batch_fitness_size: int | None = None
        # --- device-resident session state -----------------------------
        #: Host mirror of the device-resident (R, n) solution block.
        self._resident: np.ndarray | None = None
        self._resident_fitness_size: int | None = None
        self._reduced_size: int | None = None
        #: Host-staged (replica, bit) pairs, shipped as one delta packet by
        #: the next resident evaluation (one PCIe transaction, one latency).
        self._staged_deltas: list[np.ndarray] = []
        #: Simulated instant the host last synchronized with the device;
        #: host-issued operations cannot start before it.
        self._sync_time: float = 0.0
        #: Fitness block and resident rows of the last resident launch
        #: (still live in device memory — `fetch_fitnesses` reads from it).
        self._last_fitnesses: np.ndarray | None = None
        self._last_rows: np.ndarray | None = None
        #: Persistent launch of the current session (``transfer_mode=
        #: "persistent"``): the whole iteration loop runs inside one launch.
        self._loop: DeviceLoop | None = None
        #: Summary of the last completed persistent launch (for profiling
        #: and the invariant tests).
        self.last_persistent_record: PersistentLaunchRecord | None = None
        #: Device-resident tabu memory of the current session: the ``(R, M)``
        #: "iteration last applied" stamps, living in device global memory.
        self._tabu_last_applied: np.ndarray | None = None
        self._tabu_tenure: int = 0
        #: Set by close(); a closed evaluator's device buffers are gone, so
        #: further evaluations would escape the device-memory model.
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "evaluator has been closed (its device buffers were freed); "
                "create a new evaluator instead of reusing it"
            )

    def _account_d2h(self, context: GPUContext, num_fitnesses: int) -> None:
        # Device -> host: the fitness array, for host-side move selection,
        # at the width of the shared fitness dtype; routed through the
        # interconnect engine like every other copy.
        d2h_bytes = float(FITNESS_BYTES) * num_fitnesses
        grant = context.host_transfer_grant("d2h", d2h_bytes, label="fitnesses")
        context.stats.transfer_time += grant.duration
        context.stats.d2h_bytes += int(d2h_bytes)
        context.timeline.schedule_sync("d2h", "fitnesses", grant.duration)

    def _evaluate(
        self, solution: np.ndarray, indices: np.ndarray, row: int | None
    ) -> np.ndarray:
        self._check_open()
        before = self.context.stats.total_time
        # Host -> device: the candidate solution (int32, as in the paper's kernels).
        self.context.to_device(f"solution:{id(self)}", solution.astype(np.int32))
        if self._is_canonical_full(indices):
            # Full neighborhood: one thread per neighbor, exactly the paper's launch.
            kernel, fitnesses = self.kernel, self._fitness_buffer.data
            moves = self.neighborhood.moves()
        else:
            # Partial evaluation: a store-only launch over the compacted list.
            kernel, fitnesses = self._slice_kernel, np.empty(indices.size, dtype=np.float64)
            moves, row = self.neighborhood.moves(indices), None
        scores = _fleet_pass(
            self.context, self.problem.evaluate_neighborhood, solution, moves, row=row
        )
        args = (solution, fitnesses) if scores is None else (solution, fitnesses, scores)
        self.context.launch(kernel, indices.size, args, block_size=self.block_size)
        self._account_d2h(self.context, indices.size)
        self.stats.simulated_time += self.context.stats.total_time - before
        return fitnesses.copy() if kernel is self.kernel else fitnesses

    def _evaluate_many(
        self, solutions: np.ndarray, indices: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        """Solution-parallel evaluation: one ``S x M``-thread launch.

        The ``(S, n)`` solution block crosses PCIe once and a single kernel
        launch covers every (replica, neighbor) pair, so the fixed transfer
        latency and launch overhead are paid once instead of ``S`` times —
        the core amortization of the batched execution engine.
        """
        self._check_open()
        before = self.context.stats.total_time
        num_solutions, num_indices = solutions.shape[0], indices.size
        # Host -> device: the whole solution block, uploaded once.
        name = f"solutions:{id(self)}"
        if self._solutions_shape is not None and self._solutions_shape != solutions.shape:
            self.context.free(name)
        self._solutions_shape = solutions.shape
        self.context.to_device(name, solutions.astype(np.int32))
        # Device-side output buffer for all S * M fitness values, resized
        # (like the solution block) when the batch geometry changes so the
        # device-memory model sees the batched launch's largest allocation.
        buffer_name = f"batch_fitnesses:{id(self)}"
        flat_size = num_solutions * num_indices
        if self._batch_fitness_size not in (None, flat_size):
            self.context.free(buffer_name)
        if self._batch_fitness_size != flat_size:
            self.context.alloc(buffer_name, (flat_size,), np.float64)
            self._batch_fitness_size = flat_size
        flat = self.context.memory.get(buffer_name).data
        # A compacted index list runs the same batched launch over the
        # (S, M_sub) logical space, store-only, with the caller's move list.
        if self._is_canonical_full(indices):
            kernel, moves = self.batch_kernel, self.neighborhood.moves()
        else:
            kernel, moves = self._batch_slice_kernel, self.neighborhood.moves(indices)
            rows = None
        scores = _fleet_pass(
            self.context,
            self.problem.evaluate_neighborhood_batch,
            solutions,
            moves,
            out=flat.reshape(num_solutions, num_indices),
            rows=rows,
        )
        args = (solutions, flat) if scores is None else (solutions, flat, scores)
        self.context.launch(
            kernel,
            (num_solutions, num_indices),
            args,
            block_size=self.block_size,
        )
        self._account_d2h(self.context, flat.size)
        self.stats.simulated_time += self.context.stats.total_time - before
        # Copy: the persistent device buffer is overwritten by the next call.
        return flat.reshape(num_solutions, num_indices).copy()

    # ------------------------------------------------------------------
    # Device-resident session API
    # ------------------------------------------------------------------
    supports_device_residency = True

    def _session_buffer(self, kind: str) -> str:
        return self._buffer_names[kind]

    def begin_search(self, solutions: np.ndarray, *, persistent: bool = False) -> None:
        """Upload the ``(R, n)`` solution block once; it stays device-resident.

        Subsequent iterations mutate the resident block through
        :meth:`apply_deltas` and evaluate it through
        :meth:`evaluate_resident`; the block never crosses PCIe again.

        With ``persistent=True`` the session additionally opens a
        :class:`~repro.gpu.runtime.DeviceLoop`: the whole iteration loop runs
        inside one persistent launch (delta scatter, evaluation, fused
        reduction and tabu update all on-device), the host only drains the
        per-iteration result ring and writes early-stop flags, and exactly
        one kernel launch is charged when the session ends.
        """
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.problem.n:
            raise ValueError(
                f"expected an (R, {self.problem.n}) solution block, got {solutions.shape}"
            )
        if solutions.shape[0] == 0:
            raise ValueError("need at least one replica to start a resident search")
        self._check_open()
        self.end_search()
        self._resident = solutions.copy()
        before = self.context.timeline.elapsed
        self.context.to_device(
            self._session_buffer("resident"), solutions.astype(SOLUTION_DTYPE)
        )
        self._sync_time = self.context.timeline.elapsed
        self.stats.simulated_time += self.context.timeline.elapsed - before
        if persistent:
            self.open_persistent_loop()

    def open_persistent_loop(self) -> None:
        """Open the session's single persistent launch (one per run).

        Split out of :meth:`begin_search` so the multi-GPU evaluator can
        batch the resident uploads of all devices through the interconnect
        engine first and open each device's loop once its slice has landed.
        """
        if self._resident is None:
            raise RuntimeError("begin_search must be called before open_persistent_loop")
        self.last_persistent_record = None
        self._loop = self.context.open_device_loop(
            PersistentKernel(self.batch_kernel), block_size=self.block_size
        )

    def init_tabu_memory(self, tenure: int) -> None:
        """Make the tabu memory device-resident for the current session.

        Allocates the ``(R, M)`` "iteration last applied" stamps in device
        global memory.  The admissibility mask is then computed next to the
        fused reduction instead of on the host, so the per-iteration tabu
        packet shrinks from the ``O(S·M/8)`` bit-packed mask to the ``O(S)``
        per-replica iteration stamps — and the robust-tabu escape (fall back
        to the oldest move when every move is inadmissible) resolves
        on-device too, removing its extra host round trip.
        """
        if self._resident is None:
            raise RuntimeError("begin_search must be called before init_tabu_memory")
        if tenure < 0:
            raise ValueError(f"tabu tenure must be non-negative, got {tenure}")
        name = self._session_buffer("tabu")
        if name in self.context.memory.allocations:
            self.context.free(name)
        buf = self.context.alloc(
            name, (self._resident.shape[0], self.neighborhood.size), TABU_STAMP_DTYPE
        )
        buf.data.fill(TABU_NEVER)
        self._tabu_last_applied = buf.data
        self._tabu_tenure = int(tenure)

    def read_tabu_rows(self, rows: np.ndarray) -> np.ndarray:
        """Copy out the device-resident tabu stamps of the given replica rows.

        The solve server uses this to suspend a preempted tenant: its
        ``last_applied`` stamps leave with the tenant and come back verbatim
        on resume, so the continued trajectory stays bit-identical.
        """
        if self._tabu_last_applied is None:
            raise RuntimeError("no device-resident tabu memory in this session")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        return self._tabu_last_applied[rows].copy()

    def write_tabu_rows(self, rows: np.ndarray, stamps: np.ndarray | None = None) -> None:
        """Overwrite replica rows of the device-resident tabu memory.

        ``stamps=None`` resets the rows to the "never applied" sentinel —
        what a fresh tenant needs when it takes over a replica slot.  The
        fill happens in device global memory (folded into the next launch),
        so nothing crosses PCIe and nothing is priced on the timeline.
        """
        if self._tabu_last_applied is None:
            raise RuntimeError("no device-resident tabu memory in this session")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if stamps is None:
            self._tabu_last_applied[rows] = TABU_NEVER
            return
        stamps = np.asarray(stamps, dtype=TABU_STAMP_DTYPE)
        if stamps.shape != (rows.size, self.neighborhood.size):
            raise ValueError(
                f"expected a ({rows.size}, {self.neighborhood.size}) stamp block, "
                f"got {stamps.shape}"
            )
        self._tabu_last_applied[rows] = stamps

    def apply_deltas(
        self, replicas: np.ndarray, bits: np.ndarray, *, stage: bool = True
    ) -> None:
        """Send only the flipped bits: ``(replica, bit)`` int32 pairs.

        ``O(S·k)`` bytes per iteration instead of re-uploading the whole
        ``(S, n)`` block.  The pairs are staged host-side and cross PCIe as
        a single delta packet when the next resident evaluation is issued
        (the device folds the scatter into the evaluation launch).

        ``stage=False`` updates only the functional mirror and skips the
        host-side staging: the multi-GPU scheduler uses it when the packet
        reaches this device over a peer-to-peer link instead of PCIe (the
        arrival is then recorded through :meth:`note_peer_delivery`).
        """
        if self._resident is None:
            raise RuntimeError("begin_search must be called before apply_deltas")
        replicas, bits = _check_deltas(
            replicas, bits, self._resident.shape[0], self.problem.n
        )
        if replicas.size:
            self._flip(replicas, bits, stage=stage)

    def _flip(self, replicas: np.ndarray, bits: np.ndarray, *, stage: bool) -> None:
        """Apply validated flips to the mirror and stage their delta packet."""
        self._resident[replicas, bits] ^= 1
        if self._loop is not None and not self._loop.closed:
            # Persistent launch: the winning move was selected by the
            # resident grid itself, which scatters the flips in-place — no
            # delta packet ever crosses PCIe.  Only the host mirror is kept
            # in sync here.
            return
        if stage:
            self._staged_deltas.append(_delta_pairs(replicas, bits))

    def note_peer_delivery(self, time: float) -> None:
        """Order the next resident launch after a peer-delivered packet.

        The multi-GPU delta router ships this device's packet over a P2P
        link (or through the hub upload, for the hub device itself); the
        next evaluation kernel must not start before the packet has landed.
        """
        self._sync_time = max(self._sync_time, float(time))

    def _adopt_resident(
        self,
        solutions: np.ndarray,
        *,
        tenure: int | None = None,
        stamps: np.ndarray | None = None,
        arrival: float = 0.0,
    ) -> None:
        """Install an ``(R, n)`` resident block that arrived over a peer link.

        Used by the multi-GPU rebalancer: the rows were already priced as
        device-to-device (or host round trip) transfers, so this only
        rebuilds the session state — device buffers, host mirrors, and the
        device-resident tabu memory — without logging any further PCIe
        traffic.  ``arrival`` orders the next launch after the migration.
        """
        self._check_open()
        solutions = np.asarray(solutions, dtype=np.int8)
        name = self._session_buffer("resident")
        existing = self.context.memory.allocations.get(name)
        if existing is not None and existing.data.shape != solutions.shape:
            self.context.free(name)
        if name not in self.context.memory.allocations:
            self.context.alloc(name, solutions.shape, SOLUTION_DTYPE)
        self.context.memory.get(name).data[...] = solutions.astype(SOLUTION_DTYPE)
        self._resident = solutions.copy()
        if tenure is not None:
            tabu_name = self._session_buffer("tabu")
            shape = (solutions.shape[0], self.neighborhood.size)
            tabu_existing = self.context.memory.allocations.get(tabu_name)
            if tabu_existing is not None and tabu_existing.data.shape != shape:
                self.context.free(tabu_name)
            if tabu_name not in self.context.memory.allocations:
                self.context.alloc(tabu_name, shape, TABU_STAMP_DTYPE)
            buf = self.context.memory.get(tabu_name)
            if stamps is not None:
                buf.data[...] = stamps
            else:
                buf.data.fill(TABU_NEVER)
            self._tabu_last_applied = buf.data
            self._tabu_tenure = int(tenure)
        self._staged_deltas = []
        self._last_fitnesses = None
        self._last_rows = None
        self.note_peer_delivery(arrival)

    def evaluate_resident(
        self,
        replica_ids: np.ndarray | None = None,
        *,
        reduce: str | None = None,
        admissible: np.ndarray | None = None,
        aspiration_fitness: np.ndarray | None = None,
        thresholds: np.ndarray | None = None,
        tabu_iterations: np.ndarray | None = None,
    ):
        """Evaluate the full neighborhood of the resident block's replicas.

        Parameters
        ----------
        replica_ids:
            Rows of the resident block to evaluate (default: all).  The id
            list crosses PCIe (``O(S)`` int32), not the solutions.  They
            are also the replica ids the fleet pass hands the problem's
            gain engine.
        reduce:
            ``None`` downloads the full ``(S, M)`` fitness matrix (the
            "delta" transfer mode).  ``"argmin"`` / ``"first-improvement"``
            run the fused on-device reduction and download only the
            per-replica ``(index, fitness)`` pair — 16 bytes per replica.
        admissible:
            Optional ``(S, M)`` admissibility mask for ``"argmin"`` (the
            host-side tabu rule).  It is bit-packed and uploaded on the copy
            stream, overlapping the evaluation kernel, because only the
            reduction epilogue consumes it.
        aspiration_fitness:
            Per-replica aspiration thresholds: an inadmissible move becomes
            admissible when strictly better (device-side comparison).
        thresholds:
            Per-replica current fitnesses for ``"first-improvement"``.
        tabu_iterations:
            Per-replica current iteration numbers for the **device-resident**
            tabu memory (:meth:`init_tabu_memory`).  The admissibility mask
            is then derived on-device from the resident ``last_applied``
            stamps — only these ``O(S)`` stamps cross PCIe instead of the
            ``O(S·M/8)`` packed mask — the robust-tabu escape resolves
            on-device, and the winning move's stamp is updated in place.
            Mutually exclusive with ``admissible``.

        A standalone device is a fleet of one: it runs the same step as each
        device of a :class:`MultiGPUEvaluator` (one fleet pass, its launch
        chain, one reduction epilogue).

        Returns the fitness matrix (``reduce=None``) or an
        ``(indices, fitnesses)`` pair of per-replica arrays where a blocked
        replica (no admissible / no improving move) gets ``(-1, inf)`` —
        except under ``tabu_iterations``, where blocked replicas already
        carry their escape move.
        """
        if self._resident is None:
            raise RuntimeError("begin_search must be called before evaluate_resident")
        num_replicas = self._resident.shape[0]
        if replica_ids is None:
            rows = np.arange(num_replicas, dtype=np.int64)
            full = True
        else:
            rows = np.asarray(replica_ids, dtype=np.int64).ravel()
            if rows.size and (rows.min() < 0 or rows.max() >= num_replicas):
                raise IndexError("replica id out of range")
            full = rows.size == num_replicas and _strictly_increasing(rows)
        admissible, stamps = _check_reduction_args(
            (rows.size, self.neighborhood.size),
            reduce,
            admissible,
            tabu_iterations,
            tabu_resident=self._tabu_last_applied is not None,
            persistent=self._loop is not None and not self._loop.closed,
        )
        block = self._resident if full else self._resident[rows]
        return _resident_step(
            self.context,
            [(self, rows, block, full)],
            rows,
            reduce,
            admissible,
            aspiration_fitness,
            thresholds,
            stamps,
        )

    def _resident_fitnesses(self, num_solutions: int) -> np.ndarray:
        """The session's flat ``S * M`` fitness buffer, resized with ``S``."""
        context = self.context
        flat_name = self._buffer_names["resident_fitnesses"]
        flat_size = num_solutions * self.neighborhood.size
        if self._resident_fitness_size not in (None, flat_size):
            context.free(flat_name)
        if self._resident_fitness_size != flat_size:
            context.alloc(flat_name, (flat_size,), FITNESS_DTYPE)
            self._resident_fitness_size = flat_size
        return context.memory.get(flat_name).data

    def _reduced_buffer(self, num_solutions: int) -> np.ndarray:
        """The session's per-replica ``(index, fitness)`` buffer, resized with ``S``."""
        context = self.context
        name = self._buffer_names["reduced"]
        if self._reduced_size not in (None, num_solutions):
            context.free(name)
        if self._reduced_size != num_solutions:
            context.alloc(name, (num_solutions,), REDUCED_PAIR_DTYPE)
            self._reduced_size = num_solutions
        return context.memory.get(name).data

    def _launch_resident(
        self,
        rows: np.ndarray,
        block: np.ndarray,
        scores: np.ndarray | None,
        reduce: str | None,
        full: bool,
        packet: list[np.ndarray],
    ) -> np.ndarray | None:
        """This device's launch chain of one resident step.

        ``rows`` are local rows of the resident block (``full`` when they
        are all of them, in order, so no id list crosses PCIe), ``block``
        their solutions, ``scores`` their slice of the fleet pass (``None``
        in per-thread mode, where the launch evaluates every slot itself)
        and ``packet`` the byte chunks of their reduction packet.  The
        launch stores its fitness block; every operation is priced on the
        device's streams in issue order.  Returns the downloaded ``(S, M)``
        fitness rows when ``reduce`` is ``None``.  The reduced pairs are
        written afterwards by the fleet's epilogue (:meth:`_store_reduced`):
        pricing never reads device contents.
        """
        context = self.context
        num_solutions, num_indices = rows.size, self.neighborhood.size
        flat = self._resident_fitnesses(num_solutions)
        args = (block, flat) if scores is None else (block, flat, scores)
        self._last_fitnesses = flat.reshape(num_solutions, num_indices)
        self._last_rows = rows
        self.stats.calls += 1
        self.stats.evaluations += flat.size
        loop = self._loop
        if loop is not None and not loop.closed:
            # One on-device iteration of the persistent launch: no kernel is
            # launched and no delta/id packet is uploaded (the resident grid
            # scatters the flips it selected itself).  The host only writes
            # the O(S) early-stop flags and drains the 16 B/replica result
            # ring, both concurrent with the loop, so only the on-device work
            # advances the evaluator's clock.
            self._staged_deltas = []
            loop.write_control(self._resident.shape[0] * STOP_FLAG_BYTES)
            added = loop.iterate(
                (num_solutions, num_indices), args, cost=self.batch_kernel.cost
            )
            added += loop.reduce(flat.size)
            self._reduced_buffer(num_solutions)
            loop.drain_ring(num_solutions * REDUCED_RESULT_BYTES)
            self.stats.simulated_time += added
            return None
        before_elapsed = context.timeline.elapsed
        # The pre-kernel delta packet: staged (replica, bit) flips plus —
        # when a strict subset of replicas is active — the id list.  One
        # staging buffer, one PCIe transaction, one latency.
        deltas = [pairs.reshape(-1).view(np.uint8) for pairs in self._staged_deltas]
        self._staged_deltas = []
        if not full:
            deltas.append(rows.astype(SOLUTION_DTYPE).view(np.uint8))
        kernel_deps = []
        if deltas:
            kernel_deps.append(
                context.copy_async(
                    self._buffer_names["deltas"],
                    np.concatenate(deltas),
                    stream=COPY_STREAM,
                    not_before=self._sync_time,
                )
            )
        _, kernel_event = context.launch_async(
            self.batch_kernel,
            (num_solutions, num_indices),
            args,
            wait_for=kernel_deps,
            not_before=self._sync_time,
            block_size=self.block_size,
        )
        if reduce is None:
            data, down_event = context.download_async(
                self._buffer_names["resident_fitnesses"], wait_for=kernel_event
            )
            self._sync_time = down_event.time
            self.stats.simulated_time += context.timeline.elapsed - before_elapsed
            return data.reshape(num_solutions, num_indices)
        reduce_deps = [kernel_event]
        # The reduction packet (bit-packed admissibility mask or — with the
        # device-resident tabu memory — just the O(S) per-replica iteration
        # stamps, plus per-replica aspiration / improvement thresholds) is
        # consumed only by the reduction epilogue, so its upload is issued on
        # the copy stream concurrently with the evaluation kernel — the
        # transfer hides under the kernel's execution time.
        if packet:
            reduce_deps.append(
                context.copy_async(
                    self._buffer_names["reduction_packet"],
                    np.concatenate(packet),
                    stream=COPY_STREAM,
                    not_before=self._sync_time,
                )
            )
        self._reduced_buffer(num_solutions)
        reduce_event = context.reduce_async(
            self._reduce_names[reduce], flat.size, wait_for=reduce_deps
        )
        _, down_event = context.download_async(
            self._buffer_names["reduced"], wait_for=reduce_event
        )
        self._sync_time = down_event.time
        self.stats.simulated_time += context.timeline.elapsed - before_elapsed
        return None

    def _store_reduced(
        self,
        rows: np.ndarray,
        indices: np.ndarray,
        best: np.ndarray,
        stamps: np.ndarray | None,
    ) -> None:
        """Write this device's share of the fleet epilogue into device memory:
        the reduced ``(index, fitness)`` pairs and, with the device-resident
        tabu memory, the winning moves' ``last_applied`` stamps."""
        reduced = self.context.memory.get(self._buffer_names["reduced"]).data
        reduced["index"] = indices
        reduced["fitness"] = best
        if stamps is not None:
            self._tabu_last_applied[rows, indices] = stamps

    def fetch_fitnesses(self, replicas: np.ndarray, move_indices: np.ndarray) -> np.ndarray:
        """Read single entries of the last evaluated fitness block.

        Used by the host for decisions the fused reduction cannot make (the
        robust-tabu escape to the oldest move): one fitness value per
        requested entry crosses PCIe — ``O(S)``, not ``O(S·M)``.
        """
        if self._last_fitnesses is None or self._last_rows is None:
            raise RuntimeError("no resident fitness block has been evaluated yet")
        replicas = np.asarray(replicas, dtype=np.int64).ravel()
        move_indices = np.asarray(move_indices, dtype=np.int64).ravel()
        # Map global replica ids to rows of the last launch without assuming
        # the caller evaluated them in sorted order.
        order = np.argsort(self._last_rows, kind="stable")
        positions = np.searchsorted(self._last_rows[order], replicas)
        if positions.size and (
            positions.max() >= order.size
            or not np.array_equal(self._last_rows[order][positions], replicas)
        ):
            raise KeyError("replica was not part of the last resident evaluation")
        local = order[positions]
        values = self._last_fitnesses[local, move_indices].astype(np.float64)
        context = self.context
        before = context.timeline.elapsed
        nbytes = int(FITNESS_BYTES) * values.size
        start = context._issue_start(DOWNLOAD_STREAM, None, self._sync_time)
        grant = context.host_transfer_grant(
            "d2h", nbytes, start=start, label="fitnesses[fetch]"
        )
        context.stats.transfer_time += grant.duration
        context.stats.d2h_bytes += nbytes
        interval = context.timeline.schedule(
            "d2h",
            "fitnesses[fetch]",
            grant.duration,
            stream=DOWNLOAD_STREAM,
            not_before=self._sync_time,
        )
        self._sync_time = interval.end
        self.stats.simulated_time += context.timeline.elapsed - before
        return values

    def end_search(self) -> None:
        """Drop the resident session's device buffers and host mirrors.

        A persistent session's :class:`~repro.gpu.runtime.DeviceLoop` is
        closed first: that is the moment the single launch (and its one
        amortized overhead) is charged and the per-stream loop intervals
        land on the timeline.
        """
        if self._loop is not None:
            if not self._loop.closed:
                record = self._loop.finish()
                self.stats.simulated_time += record.launch_overhead
                self.last_persistent_record = record
            self._loop = None
        for name in self._buffer_names.values():
            if name in self.context.memory.allocations:
                self.context.free(name)
        self._resident = None
        self._resident_fitness_size = None
        self._reduced_size = None
        self._staged_deltas = []
        self._last_fitnesses = None
        self._last_rows = None
        self._tabu_last_applied = None
        self._tabu_tenure = 0

    # ------------------------------------------------------------------
    # Checkpoint API
    # ------------------------------------------------------------------
    def snapshot_state(self, *, include_engine: bool = True) -> dict:
        """Everything a fresh evaluator needs to continue bit-identically.

        On top of the base work counters: the context's accounting (device
        stats + per-stream timeline), the interconnect engine's committed
        load (skipped with ``include_engine=False`` when the engine is
        pool-shared and snapshotted once by :class:`MultiGPUEvaluator`), and
        the resident session — solution mirror, staged deltas, sync point,
        device-resident tabu stamps and, in persistent mode, the open
        launch's accumulated progress.
        """
        snap = super().snapshot_state()
        snap["context"] = self.context.snapshot_accounting()
        if include_engine:
            snap["engine"] = self.context.engine.snapshot()
        if self._resident is not None:
            session = {
                "resident": self._resident.copy(),
                "sync_time": self._sync_time,
                "staged_deltas": [pairs.copy() for pairs in self._staged_deltas],
                "tenure": self._tabu_tenure,
                "stamps": (
                    self._tabu_last_applied.copy()
                    if self._tabu_last_applied is not None
                    else None
                ),
                "loop": (
                    self._loop.snapshot()
                    if self._loop is not None and not self._loop.closed
                    else None
                ),
            }
            snap["session"] = session
        return snap

    def restore_state(self, snap: dict) -> None:
        """Rebuild the snapshotted session without logging any transfers.

        The resident block is installed through the same warm path the
        rebalancer uses (:meth:`_adopt_resident`): the snapshotted counters
        already include the original ``begin_search`` upload, so re-charging
        it would double-count.  A snapshotted persistent launch is reopened
        and its progress accumulators overwritten in place.
        """
        self._check_open()
        self.end_search()
        super().restore_state(snap)
        context_snap = snap.get("context")
        if context_snap is not None:
            self.context.restore_accounting(context_snap)
        engine_snap = snap.get("engine")
        if engine_snap is not None:
            self.context.engine.restore(engine_snap)
        session = snap.get("session")
        if session is None:
            return
        stamps = session.get("stamps")
        if stamps is not None:
            stamps = np.asarray(stamps, dtype=TABU_STAMP_DTYPE)
        self._adopt_resident(
            np.asarray(session["resident"], dtype=np.int8),
            tenure=int(session["tenure"]) if stamps is not None else None,
            stamps=stamps,
        )
        self._sync_time = float(session["sync_time"])
        self._staged_deltas = [
            np.asarray(pairs, dtype=DELTA_DTYPE).reshape(-1, 2)
            for pairs in session["staged_deltas"]
        ]
        loop_state = session.get("loop")
        if loop_state is not None:
            self.open_persistent_loop()
            self._loop.restore(loop_state)

    def close(self) -> None:
        """Free every persistent device buffer owned by this evaluator.

        Long-lived contexts shared by many evaluators would otherwise
        accumulate the per-evaluator ``fitnesses:<id>`` / ``solution:<id>``
        allocations as simulated device-memory leaks.
        """
        self.end_search()
        self.context.free_evaluator_buffers(self)
        self._solutions_shape = None
        self._batch_fitness_size = None
        self._closed = True

    @property
    def simulated_time(self) -> float:
        return self.stats.simulated_time


class MultiGPUEvaluator(NeighborhoodEvaluator):
    """Partitioned exploration across several concurrently-scheduled devices.

    The pool is driven by a :class:`~repro.gpu.scheduler.DeviceScheduler`:
    every device owns its own stream timeline and the per-device
    upload/launch/reduce/download chains are issued asynchronously, ordered
    only by events — so the elapsed simulated time of a step is the
    cross-device makespan, not a serialized host loop.  Heterogeneous pools
    are partitioned proportionally to each device's simulated throughput on
    the neighborhood kernel; resident sessions route flipped-bit delta
    packets device-to-device over P2P links (one host upload to a hub
    device, peer forwards for the rest) and can migrate replicas between
    devices to rebalance load, all without changing any trajectory.
    """

    platform = "multi-gpu"

    def __init__(
        self,
        problem: BinaryProblem,
        neighborhood: Neighborhood,
        *,
        devices: int | list[DeviceSpec] = 2,
        block_size: int = DEFAULT_BLOCK_SIZE,
        mode: ExecutionMode = ExecutionMode.VECTORIZED,
        pinned: bool = False,
        peer_routing: bool = True,
        topology: InterconnectTopology | str | None = None,
        active_devices: list[int] | None = None,
    ) -> None:
        super().__init__(problem, neighborhood)
        self.pool = MultiGPU(devices, mode=mode, pinned=pinned, topology=topology)
        self.scheduler = DeviceScheduler(self.pool.contexts, engine=self.pool.engine)
        self.block_size = int(block_size)
        # Elastic fleet mask: every device is attached (its context, topology
        # port and peer links exist for the whole run) but only *active*
        # devices receive work.  ``fail_device`` / ``join_device`` flip the
        # mask mid-run; ``active_devices`` starts some devices dark so they
        # can join later.
        if active_devices is None:
            self._device_active = [True] * self.pool.num_devices
        else:
            chosen = {int(index) for index in active_devices}
            if not chosen:
                raise ValueError("need at least one active device")
            bad = [index for index in chosen if not 0 <= index < self.pool.num_devices]
            if bad:
                raise ValueError(
                    f"active device index out of range: {sorted(bad)} "
                    f"(pool has {self.pool.num_devices} devices)"
                )
            self._device_active = [
                index in chosen for index in range(self.pool.num_devices)
            ]
        self._sub_evaluators = [
            GPUEvaluator(
                problem,
                neighborhood,
                block_size=block_size,
                context=ctx,
            )
            for ctx in self.pool.contexts
        ]
        #: Per-device store-only launches over a share of a split
        #: neighborhood (scalar, batched), named after the device.
        self._slice_kernels = [
            tuple(
                build_slice_kernel(kernel, kernel.name + f"[slice:{dev}]")
                for kernel in (sub.kernel, sub.batch_kernel)
            )
            for dev, sub in enumerate(self._sub_evaluators)
        ]
        #: Whether resident-session delta packets take the hub-upload +
        #: peer-forward route instead of one host upload per device.  Only
        #: possible when the interconnect topology routes peer copies
        #: between every pair of devices in the pool.
        self.peer_routing = (
            bool(peer_routing)
            and self.num_devices > 1
            and self.scheduler.all_peer_capable
        )
        #: Hub device buffer receiving each step's combined delta packet.
        self._hub_buffer = f"delta_hub:{id(self)}"
        # Replica ranges [lo, hi) owned by each device in a resident session.
        self._replica_ranges: list[tuple[int, int]] | None = None
        self._persistent = False
        self._resident_tenure: int | None = None

    @property
    def num_devices(self) -> int:
        return self.pool.num_devices

    def _kernel_cost(self):
        """Cost profile used for throughput-proportional partitioning."""
        return self._sub_evaluators[0].batch_kernel.cost

    # ------------------------------------------------------------------
    # Elastic fleet: the active-device mask and its partitioner
    # ------------------------------------------------------------------
    @property
    def device_active(self) -> tuple[bool, ...]:
        """Which attached devices currently receive work."""
        return tuple(self._device_active)

    @property
    def num_active_devices(self) -> int:
        return sum(self._device_active)

    def _active_weights(self) -> list[float]:
        """Throughput weights with inactive devices masked to zero."""
        return [
            weight if active else 0.0
            for weight, active in zip(
                self.pool.throughput_weights(self._kernel_cost()), self._device_active
            )
        ]

    def _partitions(self, total: int):
        """Partition ``total`` flat indices across the *active* devices.

        With every device active this is exactly the pool's partitioner
        (the homogeneous even split, bit-for-bit); with a partial fleet the
        masked weighted split hands inactive devices empty slices.
        """
        if all(self._device_active):
            return self.pool.partitions(total, self._kernel_cost())
        return weighted_partition_range(total, self._active_weights())

    def fail_device(self, index: int) -> int:
        """Simulate the death of an active device mid-run.

        The device stops receiving work immediately.  If a resident session
        is open, its replicas are recovered from the *host mirror* — the
        functional state never left the host, so the mirror doubles as an
        always-current checkpoint — and re-uploaded to the surviving devices
        under the weighted repartition; only the single h2d recovery leg is
        priced (there is no live source device to download from).  Returns
        the number of migrated replicas.  Trajectories are unchanged.

        Persistent sessions cannot lose a device: the launches are pinned to
        their devices for the whole run, so a failure there raises.
        """
        index = int(index)
        if not 0 <= index < self.num_devices:
            raise ValueError(f"device index {index} out of range (pool has {self.num_devices})")
        if not self._device_active[index]:
            raise ValueError(f"device {index} is already inactive")
        if self.num_active_devices <= 1:
            raise RuntimeError("cannot fail the last active device")
        if self._replica_ranges is not None and self._persistent:
            raise RuntimeError(
                "persistent launches pin replicas to their devices for the whole "
                "run; a device failure is not recoverable in persistent mode"
            )
        self._device_active[index] = False
        if self._replica_ranges is None:
            return 0
        return self._repartition_resident(lost=index)

    def join_device(self, index: int) -> int:
        """Bring an attached-but-inactive device online mid-run.

        The weighted repartition immediately hands it a replica share (over
        the peer links, or the host round trip on pools without peer
        access).  Returns the number of migrated replicas.  Trajectories
        are unchanged.
        """
        index = int(index)
        if not 0 <= index < self.num_devices:
            raise ValueError(f"device index {index} out of range (pool has {self.num_devices})")
        if self._device_active[index]:
            raise ValueError(f"device {index} is already active")
        if self._replica_ranges is not None and self._persistent:
            raise RuntimeError(
                "persistent launches pin replicas to their devices for the whole "
                "run; a device cannot join a persistent session"
            )
        self._device_active[index] = True
        if self._replica_ranges is None:
            return 0
        return self._repartition_resident()

    def _device_buffer(self, context: GPUContext, name: str, size: int):
        """A per-device output buffer, reallocated when its size changes."""
        existing = context.memory.allocations.get(name)
        if existing is not None and existing.data.shape != (size,):
            context.free(name)
        if name not in context.memory.allocations:
            context.alloc(name, (size,), FITNESS_DTYPE)
        return context.memory.get(name).data

    def _evaluate(
        self, solution: np.ndarray, indices: np.ndarray, row: int | None
    ) -> np.ndarray:
        """Concurrent per-device async chains over a partitioned index space.

        One fleet pass scores the whole index list (served by the gain
        engine when it is the canonical full neighborhood); each device's
        slice launch then stores its share.  The per-device uploads (and
        later the downloads) are priced as one interconnect arbitration
        batch: they are simultaneous on the simulated clock, so on a
        shared-uplink topology they split the root complex fairly instead of
        each assuming a private link.
        """
        scheduler = self.scheduler
        before = scheduler.makespan
        out = np.empty(indices.size, dtype=np.float64)
        parts = self._partitions(indices.size)
        chains = [
            (evaluator, part)
            for evaluator, part in zip(self._sub_evaluators, parts)
            if part.size > 0
        ]
        upload_events = scheduler.upload_batch(
            [
                (part.device_index, f"solution:{id(self)}:{part.device_index}",
                 solution.astype(SOLUTION_DTYPE))
                for _evaluator, part in chains
            ]
        )
        if self._is_canonical_full(indices):
            moves = self.neighborhood.moves()
        else:
            moves, row = self.neighborhood.moves(indices), None
        scores = _fleet_pass(
            self.pool.contexts[0], self.problem.evaluate_neighborhood, solution, moves, row=row
        )
        download_items = []
        for (evaluator, part), upload in zip(chains, upload_events):
            context = evaluator.context
            dev = part.device_index
            buffer_name = f"slice_out:{id(self)}:{dev}"
            sub_out = self._device_buffer(context, buffer_name, part.size)
            args = (solution, sub_out)
            if scores is not None:
                args += (scores[part.start : part.stop],)
            _, kernel_event = context.launch_async(
                self._slice_kernels[dev][0],
                part.size,
                args,
                wait_for=[upload],
                block_size=self.block_size,
            )
            download_items.append((dev, buffer_name, kernel_event))
        downloads = scheduler.download_batch(download_items)
        for (_evaluator, part), (data, _event) in zip(chains, downloads):
            out[part.start : part.stop] = data
        # Devices run concurrently: the step advances the pool-level clock
        # by the cross-device makespan increase, not by a per-device sum.
        self.stats.simulated_time += scheduler.makespan - before
        return out

    def _evaluate_many(
        self, solutions: np.ndarray, indices: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        """Partition the flat ``S x M`` (replica, neighbor) space across devices.

        Each device receives a contiguous slice of the flattened batch (it
        may span several replicas) sized by its simulated throughput,
        uploads only the solution rows that slice touches and runs one
        asynchronous upload -> launch -> download chain; the chains of
        different devices overlap freely, so the step costs the cross-device
        makespan.  The slices cut replicas mid-neighborhood, so the whole
        batch is scored by one fleet pass (served by the gain engine by
        replica row) and each slice launch stores its share of it.
        """
        num_solutions, num_indices = solutions.shape[0], indices.size
        flat_total = num_solutions * num_indices
        out = np.empty(flat_total, dtype=np.float64)
        scheduler = self.scheduler
        before = scheduler.makespan
        parts = self._partitions(flat_total)
        chains = []
        upload_items = []
        for evaluator, part in zip(self._sub_evaluators, parts):
            if part.size == 0:
                continue
            dev = part.device_index
            block = solutions[part.start // num_indices : (part.stop - 1) // num_indices + 1]
            chains.append((evaluator, part, block))
            upload_items.append(
                (dev, f"solutions:{id(self)}:{dev}", block.astype(SOLUTION_DTYPE))
            )
        # The simultaneous per-device uploads (and downloads below) share the
        # interconnect fairly: one arbitration batch each.
        upload_events = scheduler.upload_batch(upload_items)
        if self._is_canonical_full(indices):
            moves = self.neighborhood.moves()
        else:
            moves, rows = self.neighborhood.moves(indices), None
        scores = _fleet_pass(
            self.pool.contexts[0],
            self.problem.evaluate_neighborhood_batch,
            solutions,
            moves,
            out=out.reshape(num_solutions, num_indices),
            rows=rows,
        )
        download_items = []
        for (evaluator, part, block), upload in zip(chains, upload_events):
            context = evaluator.context
            dev = part.device_index
            buffer_name = f"batch_out:{id(self)}:{dev}"
            sub_out = self._device_buffer(context, buffer_name, part.size)
            args = (block, sub_out)
            if scores is not None:
                args += (out[part.start : part.stop],)
            _, kernel_event = context.launch_async(
                self._slice_kernels[dev][1],
                part.size,
                args,
                wait_for=[upload],
                block_size=self.block_size,
            )
            download_items.append((dev, buffer_name, kernel_event))
        downloads = scheduler.download_batch(download_items)
        for (evaluator, part, _block), (data, _event) in zip(chains, downloads):
            out[part.start : part.stop] = data
        self.stats.simulated_time += scheduler.makespan - before
        return out.reshape(num_solutions, num_indices)

    # ------------------------------------------------------------------
    # Device-resident session API (replica-partitioned across devices)
    # ------------------------------------------------------------------
    supports_device_residency = True

    def _resident_parts(self):
        """Yield ``(evaluator, lo, hi)`` for devices owning at least one replica."""
        if self._replica_ranges is None:
            raise RuntimeError("begin_search must be called before resident operations")
        for evaluator, (lo, hi) in zip(self._sub_evaluators, self._replica_ranges):
            if hi > lo:
                yield evaluator, lo, hi

    def begin_search(self, solutions: np.ndarray, *, persistent: bool = False) -> None:
        """Split the ``(R, n)`` block into contiguous replica ranges, one per device.

        A heterogeneous pool receives ranges proportional to device
        throughput.  With ``persistent=True`` every owning device opens its
        own persistent launch over its replica slice (one launch per device
        per run — the multi-GPU analogue of the single-launch invariant).
        """
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.problem.n:
            raise ValueError(
                f"expected an (R, {self.problem.n}) solution block, got {solutions.shape}"
            )
        if solutions.shape[0] == 0:
            raise ValueError("need at least one replica to start a resident search")
        self.end_search()
        parts = self._partitions(solutions.shape[0])
        self._replica_ranges = [(part.start, part.stop) for part in parts]
        self._persistent = bool(persistent)
        before = self.scheduler.makespan
        # The per-device resident uploads leave the host together, so they
        # are priced as one interconnect arbitration batch: on a shared
        # uplink each replica slice sees its fair share of the root complex
        # instead of a private full-rate link.
        slices = list(self._resident_parts())
        upload_items = []
        pre_elapsed = []
        for evaluator, lo, hi in slices:
            index = self.pool.contexts.index(evaluator.context)
            pre_elapsed.append(evaluator.context.timeline.elapsed)
            upload_items.append(
                (
                    index,
                    evaluator._session_buffer("resident"),
                    solutions[lo:hi].astype(SOLUTION_DTYPE),
                )
            )
        events = self.scheduler.upload_batch(upload_items, sync=True)
        for (evaluator, lo, hi), event, elapsed_before in zip(slices, events, pre_elapsed):
            evaluator._adopt_resident(solutions[lo:hi], arrival=event.time)
            evaluator.stats.simulated_time += event.time - elapsed_before
            if persistent:
                evaluator.open_persistent_loop()
        self.stats.simulated_time += self.scheduler.makespan - before

    def init_tabu_memory(self, tenure: int) -> None:
        """Allocate each device's slice of the resident tabu memory."""
        self._resident_tenure = int(tenure)
        for evaluator, _lo, _hi in self._resident_parts():
            evaluator.init_tabu_memory(tenure)

    def read_tabu_rows(self, rows: np.ndarray) -> np.ndarray:
        """Gather tabu stamp rows from the devices owning each replica."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        out = np.empty((rows.size, self.neighborhood.size), dtype=TABU_STAMP_DTYPE)
        seen = np.zeros(rows.size, dtype=bool)
        for evaluator, lo, hi in self._resident_parts():
            mask = (rows >= lo) & (rows < hi)
            if mask.any():
                out[mask] = evaluator.read_tabu_rows(rows[mask] - lo)
                seen |= mask
        if not seen.all():
            raise IndexError("tabu row index out of range")
        return out

    def write_tabu_rows(self, rows: np.ndarray, stamps: np.ndarray | None = None) -> None:
        """Scatter stamp rows (or the reset sentinel) to the owning devices."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        stamps_block = None if stamps is None else np.asarray(stamps, dtype=TABU_STAMP_DTYPE)
        if stamps_block is not None and stamps_block.shape != (
            rows.size,
            self.neighborhood.size,
        ):
            raise ValueError(
                f"expected a ({rows.size}, {self.neighborhood.size}) stamp block, "
                f"got {stamps_block.shape}"
            )
        for evaluator, lo, hi in self._resident_parts():
            mask = (rows >= lo) & (rows < hi)
            if mask.any():
                evaluator.write_tabu_rows(
                    rows[mask] - lo,
                    None if stamps_block is None else stamps_block[mask],
                )

    def apply_deltas(self, replicas: np.ndarray, bits: np.ndarray) -> None:
        """Route each ``(replica, bit)`` pair to the device owning the replica.

        With peer routing active (every device P2P-capable), the combined
        delta packet crosses PCIe **once** — to a hub device — and each
        other device's slice is forwarded device-to-device over the peer
        link, with the next evaluation launches ordered after the arrival
        events.  Otherwise every device's slice is staged for its own host
        upload (the seed behaviour).  Inside a persistent launch no packet
        moves at all: the resident grids scattered their own selections.
        """
        parts = list(self._resident_parts())
        replicas, bits = _check_deltas(replicas, bits, parts[-1][2], self.problem.n)
        before = self.scheduler.makespan
        resident_session = not self._persistent
        route_peer = self.peer_routing and resident_session and replicas.size > 0
        order, cuts = _group_by_owner(
            replicas,
            parts,
            ordered=replicas.size < 2 or bool((replicas[1:] >= replicas[:-1]).all()),
        )
        if order is not None:
            replicas, bits = replicas[order], bits[order]
        per_device: list[tuple[GPUEvaluator, np.ndarray]] = []
        for (evaluator, lo, _), a, b in zip(parts, cuts.tolist(), cuts[1:].tolist()):
            if b == a:
                continue
            local, local_bits = replicas[a:b] - lo, bits[a:b]
            evaluator._flip(local, local_bits, stage=not route_peer)
            if route_peer:
                per_device.append((evaluator, _delta_pairs(local, local_bits)))
            elif resident_session:
                # One host-issued packet per owning device: the driver calls
                # serialize on the host, which is exactly the per-device
                # latency wall the hub + peer-forward route amortizes.
                issue = self.scheduler.host_op(
                    "issue",
                    f"deltas:gpu{self.pool.contexts.index(evaluator.context)}",
                    evaluator.context.device.pcie_latency,
                )
                evaluator.note_peer_delivery(issue.time)
        if route_peer and per_device:
            self._route_deltas_peer(per_device)
        self.stats.simulated_time += self.scheduler.makespan - before

    def _route_deltas_peer(
        self, per_device: list[tuple["GPUEvaluator", np.ndarray]]
    ) -> None:
        """Hub upload + P2P forwards for one combined delta packet.

        The host pays one driver issue and one PCIe transaction (to the hub
        device — device 0); every other device's slice then travels over the
        peer link, with a small routing header per forwarded slice.  The
        forwarded bytes are accounted as ``p2p_bytes`` only — they never
        touch the h2d/d2h counters, because they never revisit the host.
        """
        hub = self._sub_evaluators[0]
        hub_context = hub.context
        remote = [(sub, pairs) for sub, pairs in per_device if sub is not hub]
        chunks = [pairs.reshape(-1).view(np.uint8) for _, pairs in per_device]
        if remote:
            chunks.append(
                np.zeros(len(remote) * PEER_PACKET_HEADER_BYTES, dtype=np.uint8)
            )
        packet = np.concatenate(chunks)
        issue = self.scheduler.host_op(
            "issue", "delta_hub", hub_context.device.pcie_latency
        )
        upload = hub_context.copy_async(
            self._hub_buffer,
            packet,
            not_before=max(hub._sync_time, issue.time),
        )
        if any(sub is hub for sub, _ in per_device):
            hub.note_peer_delivery(upload.time)
        for sub, pairs in remote:
            payload = np.concatenate(
                [
                    pairs.reshape(-1).view(np.uint8),
                    np.zeros(PEER_PACKET_HEADER_BYTES, dtype=np.uint8),
                ]
            )
            arrival = hub_context.copy_peer_async(
                sub.context,
                sub._session_buffer("deltas"),
                payload,
                wait_for=[upload],
            )
            sub.note_peer_delivery(arrival.time)

    def evaluate_resident(
        self,
        replica_ids: np.ndarray | None = None,
        *,
        reduce: str | None = None,
        admissible: np.ndarray | None = None,
        aspiration_fitness: np.ndarray | None = None,
        thresholds: np.ndarray | None = None,
        tabu_iterations: np.ndarray | None = None,
    ):
        """One fleet step: one pass, one launch chain per device, one epilogue;
        elapsed time is the slowest device's.

        A single problem call scores the active replicas of every device
        together (the gain engine serves them by global replica id); each
        owning device's launch chain then stores its slice and is priced
        exactly as a standalone device's resident launch; and the reduction
        epilogue (tabu mask, fused argmin / first improvement, robust-tabu
        escape) runs once on the stacked block.  During a persistent
        session the launches run inside the devices' open loops, so the
        per-device stream clocks do not advance until the session ends; the
        elapsed contribution is then the slowest device's accumulated
        on-device time instead.
        """
        if self._replica_ranges is None:
            raise RuntimeError("begin_search must be called before evaluate_resident")
        total = self._replica_ranges[-1][1]
        if replica_ids is None:
            rows = np.arange(total, dtype=np.int64)
        else:
            rows = np.asarray(replica_ids, dtype=np.int64).ravel()
            if rows.size and (rows.min() < 0 or rows.max() >= total):
                raise IndexError("replica id out of range")
        num_solutions, num_indices = rows.size, self.neighborhood.size
        admissible, stamps = _check_reduction_args(
            (num_solutions, num_indices),
            reduce,
            admissible,
            tabu_iterations,
            tabu_resident=self._resident_tenure is not None,
            persistent=self._persistent,
        )
        # Stack the step in device order.  Ascending rows (every runner's)
        # already are; otherwise a stable sort by owner keeps each device's
        # rows in the caller's order, and the results are scattered back.
        parts = list(self._resident_parts())
        ascending = _strictly_increasing(rows)
        order, cuts = _group_by_owner(rows, parts, ordered=ascending)
        fleet_rows = rows
        if order is not None:
            fleet_rows = rows[order]
            admissible, aspiration_fitness, thresholds, stamps = (
                None if values is None else np.asarray(values)[order]
                for values in (admissible, aspiration_fitness, thresholds, stamps)
            )
        shares = []
        for (evaluator, lo, hi), a, b in zip(parts, cuts.tolist(), cuts[1:].tolist()):
            if b == a:
                continue
            local = fleet_rows[a:b] - lo
            full = b - a == hi - lo and (
                ascending or np.array_equal(local, np.arange(hi - lo))
            )
            block = evaluator._resident if full else evaluator._resident[local]
            shares.append((evaluator, local, block, full))
        before_makespan = self.scheduler.makespan
        before = [share[0].stats.simulated_time for share in shares]
        result = _resident_step(
            self.pool.contexts[0],
            shares,
            fleet_rows,
            reduce,
            admissible,
            aspiration_fitness,
            thresholds,
            stamps,
        )
        self.stats.calls += 1
        self.stats.evaluations += num_solutions * num_indices
        if self._persistent:
            # Inside persistent launches the stream clocks advance only at
            # session end; the elapsed contribution is the slowest device's
            # accumulated on-device time.
            self.stats.simulated_time += max(
                share[0].stats.simulated_time - start
                for share, start in zip(shares, before)
            )
        else:
            self.stats.simulated_time += self.scheduler.makespan - before_makespan
        if order is None:
            return result
        if reduce is None:
            out = np.empty_like(result)
            out[order] = result
            return out
        out_indices = np.empty_like(result[0])
        out_best = np.empty_like(result[1])
        out_indices[order], out_best[order] = result
        return out_indices, out_best

    def fetch_fitnesses(self, replicas: np.ndarray, move_indices: np.ndarray) -> np.ndarray:
        """Route single-entry fitness reads to the devices owning the replicas."""
        replicas = np.asarray(replicas, dtype=np.int64).ravel()
        move_indices = np.asarray(move_indices, dtype=np.int64).ravel()
        out = np.empty(replicas.size, dtype=np.float64)
        before = self.scheduler.makespan
        for evaluator, lo, hi in self._resident_parts():
            mask = (replicas >= lo) & (replicas < hi)
            if not mask.any():
                continue
            out[mask] = evaluator.fetch_fitnesses(replicas[mask] - lo, move_indices[mask])
        self.stats.simulated_time += self.scheduler.makespan - before
        return out

    # ------------------------------------------------------------------
    # Replica migration (load rebalancing over the peer links)
    # ------------------------------------------------------------------
    def rebalance_resident(self, active: np.ndarray | None = None) -> int:
        """Migrate resident replicas between devices to rebalance load.

        Recomputes the contiguous ownership ranges so that the *active*
        replicas (all of them, when no mask is given) are split across the
        pool proportionally to device throughput, then ships every row that
        changes owner — its solution and, when the tabu memory is
        device-resident, its stamp row — directly over the P2P links (or
        through a host round trip on pools without peer access).  Purely a
        placement/timing operation: every replica's functional state is
        preserved exactly, so trajectories are unchanged.

        Returns the number of migrated replicas.
        """
        return self._repartition_resident(active)

    def _repartition_resident(
        self, active: np.ndarray | None = None, *, lost: int | None = None
    ) -> int:
        """Shared body of :meth:`rebalance_resident` / :meth:`fail_device` /
        :meth:`join_device`.

        ``lost`` marks a just-failed source device: its rows cannot leave it
        over a peer link or a d2h leg (the device is gone), so they are
        recovered from the exact host mirror and priced as a single h2d
        upload to each destination.
        """
        if self._replica_ranges is None:
            raise RuntimeError("begin_search must be called before rebalance_resident")
        if self._persistent:
            raise RuntimeError(
                "cannot migrate replicas while persistent launches are open; "
                "rebalancing applies to the delta/reduced transfer modes"
            )
        total = self._replica_ranges[-1][1]
        if active is None:
            active_mask = np.ones(total, dtype=bool)
        else:
            active_mask = np.asarray(active, dtype=bool).ravel()
            if active_mask.shape != (total,):
                raise ValueError(
                    f"active mask must cover all {total} replicas, got {active_mask.shape}"
                )
        active_pos = np.nonzero(active_mask)[0]
        if active_pos.size == 0:
            return 0
        weights = self._active_weights()
        shares = weighted_partition_range(active_pos.size, weights)
        bounds = [0]
        consumed = 0
        for i, share in enumerate(shares):
            consumed += share.size
            if i == len(shares) - 1 or consumed >= active_pos.size:
                bounds.append(total)
            elif share.size == 0 and consumed == 0:
                bounds.append(bounds[-1])
            else:
                bounds.append(int(active_pos[consumed - 1]) + 1)
        bounds = [min(b, total) for b in bounds]
        for i in range(1, len(bounds)):
            bounds[i] = max(bounds[i], bounds[i - 1])
        new_ranges = [
            (bounds[i], bounds[i + 1]) for i in range(self.num_devices)
        ]
        old_ranges = self._replica_ranges
        if new_ranges == old_ranges:
            return 0

        # Snapshot the session's functional state in global replica order.
        n, size = self.problem.n, self.neighborhood.size
        global_block = np.empty((total, n), dtype=np.int8)
        tabu_resident = self._resident_tenure is not None
        global_tabu = (
            np.empty((total, size), dtype=TABU_STAMP_DTYPE) if tabu_resident else None
        )
        staged_chunks = []
        for evaluator, (lo, hi) in zip(self._sub_evaluators, old_ranges):
            if hi <= lo:
                continue
            global_block[lo:hi] = evaluator._resident
            if tabu_resident:
                global_tabu[lo:hi] = evaluator._tabu_last_applied
            for pairs in evaluator._staged_deltas:
                shifted = pairs.astype(np.int64)
                shifted[:, 0] += lo
                staged_chunks.append(shifted)
        staged_global = (
            np.concatenate(staged_chunks)
            if staged_chunks
            else np.empty((0, 2), dtype=np.int64)
        )

        # Price the movement: one packet per (source, destination) pair.
        migrated = 0
        row_bytes = n * SOLUTION_DTYPE.itemsize + (
            size * TABU_STAMP_DTYPE.itemsize if tabu_resident else 0
        )
        arrivals: dict[int, float] = {}
        for src, (old_lo, old_hi) in enumerate(old_ranges):
            for dst, (new_lo, new_hi) in enumerate(new_ranges):
                if src == dst:
                    continue
                move_lo = max(old_lo, new_lo)
                move_hi = min(old_hi, new_hi)
                count = move_hi - move_lo
                if count <= 0:
                    continue
                migrated += count
                src_sub = self._sub_evaluators[src]
                dst_sub = self._sub_evaluators[dst]
                chunks = [
                    np.ascontiguousarray(
                        global_block[move_lo:move_hi].astype(SOLUTION_DTYPE)
                    ).reshape(-1).view(np.uint8)
                ]
                if tabu_resident:
                    chunks.append(
                        np.ascontiguousarray(global_tabu[move_lo:move_hi])
                        .reshape(-1)
                        .view(np.uint8)
                    )
                payload = np.concatenate(chunks)
                assert payload.nbytes == count * row_bytes
                if src == lost:
                    # The source device is dead: its rows are recovered from
                    # the exact host mirror, so the only priced leg is the
                    # h2d upload into each destination.
                    dst_context = dst_sub.context
                    start = dst_sub._sync_time
                    up_start = dst_context._issue_start(COPY_STREAM, None, start)
                    up = dst_context.host_transfer_grant(
                        "h2d", payload.nbytes,
                        start=up_start, label=f"recover:{src}->{dst}",
                    )
                    up_interval = dst_context.timeline.schedule(
                        "h2d", f"recover:{src}->{dst}", up.duration,
                        stream=COPY_STREAM, not_before=start,
                    )
                    dst_context.stats.transfer_time += up.duration
                    dst_context.stats.h2d_bytes += payload.nbytes
                    arrivals[dst] = max(arrivals.get(dst, 0.0), up_interval.end)
                    continue
                start = max(src_sub._sync_time, dst_sub._sync_time)
                if src_sub.context.can_access_peer(dst_sub.context):
                    arrival = src_sub.context.copy_peer_async(
                        dst_sub.context,
                        f"migrate:{id(self)}:{src}:{dst}",
                        payload,
                        not_before=start,
                    )
                    arrival_time = arrival.time
                else:
                    # No peer link: the rows take the classic host round trip
                    # (device -> host -> device), both legs routed through
                    # the interconnect engine so migrations contend on a
                    # shared uplink like any other host transfer.
                    src_context, dst_context = src_sub.context, dst_sub.context
                    down_start = src_context._issue_start(DOWNLOAD_STREAM, None, start)
                    down = src_context.host_transfer_grant(
                        "d2h", payload.nbytes,
                        start=down_start, label=f"migrate:{src}->{dst}",
                    )
                    interval = src_context.timeline.schedule(
                        "d2h", f"migrate:{src}->{dst}", down.duration,
                        stream=DOWNLOAD_STREAM, not_before=start,
                    )
                    src_context.stats.transfer_time += down.duration
                    src_context.stats.d2h_bytes += payload.nbytes
                    up_start = dst_context._issue_start(COPY_STREAM, None, interval.end)
                    up = dst_context.host_transfer_grant(
                        "h2d", payload.nbytes,
                        start=up_start, label=f"migrate:{src}->{dst}",
                    )
                    up_interval = dst_context.timeline.schedule(
                        "h2d", f"migrate:{src}->{dst}", up.duration,
                        stream=COPY_STREAM, not_before=interval.end,
                    )
                    dst_context.stats.transfer_time += up.duration
                    dst_context.stats.h2d_bytes += payload.nbytes
                    arrival_time = up_interval.end
                arrivals[dst] = max(arrivals.get(dst, 0.0), arrival_time)
                arrivals[src] = max(arrivals.get(src, 0.0), arrival_time)

        # Rebuild every device's session slice from the global snapshot.
        for index, (evaluator, (lo, hi)) in enumerate(
            zip(self._sub_evaluators, new_ranges)
        ):
            if hi <= lo:
                if evaluator._resident is not None:
                    evaluator.end_search()
                continue
            stamps = global_tabu[lo:hi] if tabu_resident else None
            evaluator._adopt_resident(
                global_block[lo:hi],
                tenure=self._resident_tenure,
                stamps=stamps,
                arrival=arrivals.get(index, 0.0),
            )
            mask = (staged_global[:, 0] >= lo) & (staged_global[:, 0] < hi)
            if mask.any():
                local = staged_global[mask].copy()
                local[:, 0] -= lo
                evaluator._staged_deltas = [local.astype(DELTA_DTYPE)]
        self._replica_ranges = new_ranges
        return migrated

    # -- checkpointing ---------------------------------------------------
    def snapshot_state(self) -> dict:
        """Checkpoint the pool: shared engine, host timeline, every device.

        Sub-evaluator snapshots exclude the shared :class:`TransferEngine`
        (it is captured once at pool level), and the pool additionally
        records the elastic-fleet mask plus the resident session layout.
        """
        snap = super().snapshot_state()
        snap["engine"] = self.pool.engine.snapshot()
        snap["host_timeline"] = self.scheduler.host_timeline.snapshot()
        snap["subs"] = [
            evaluator.snapshot_state(include_engine=False)
            for evaluator in self._sub_evaluators
        ]
        snap["device_active"] = list(self._device_active)
        snap["replica_ranges"] = (
            [list(r) for r in self._replica_ranges]
            if self._replica_ranges is not None
            else None
        )
        snap["persistent"] = self._persistent
        snap["resident_tenure"] = self._resident_tenure
        return snap

    def restore_state(self, snap: dict) -> None:
        """Install a pool :meth:`snapshot_state`, replacing any live session."""
        self.end_search()
        super().restore_state(snap)
        self.pool.engine.restore(snap["engine"])
        self.scheduler.host_timeline.restore(snap["host_timeline"])
        subs = snap["subs"]
        if len(subs) != len(self._sub_evaluators):
            raise ValueError(
                f"checkpoint covers {len(subs)} devices, pool has "
                f"{len(self._sub_evaluators)}"
            )
        for evaluator, sub_snap in zip(self._sub_evaluators, subs):
            evaluator.restore_state(sub_snap)
        self._device_active = [bool(flag) for flag in snap["device_active"]]
        ranges = snap.get("replica_ranges")
        self._replica_ranges = (
            [(int(lo), int(hi)) for lo, hi in ranges] if ranges is not None else None
        )
        self._persistent = bool(snap.get("persistent", False))
        tenure = snap.get("resident_tenure")
        self._resident_tenure = int(tenure) if tenure is not None else None

    def end_search(self) -> None:
        for evaluator in self._sub_evaluators:
            evaluator.end_search()
        # Drop this evaluator's own pool-level buffers (the delta hub packet,
        # migration payloads, and the per-device scratch slices — all named
        # with this evaluator's id, so the context's owner-based free covers
        # them; the scratch buffers are reallocated on demand).
        for context in self.pool.contexts:
            context.free_evaluator_buffers(self)
        self._replica_ranges = None
        self._persistent = False
        self._resident_tenure = None

    def close(self) -> None:
        """Release every sub-evaluator's persistent device buffers."""
        self.end_search()
        for evaluator in self._sub_evaluators:
            evaluator.close()
            evaluator.context.free_evaluator_buffers(self)
