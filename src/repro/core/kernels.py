"""Neighborhood-evaluation kernels (the paper's ``MoveIncrEvalKernel``).

The paper's Figs. 7, 9 and 10 show one CUDA kernel per neighborhood: every
thread derives its move from its global id (identity, closed form with a
square root, or Newton–Raphson respectively), evaluates the corresponding
neighbor and writes the fitness into a global array indexed by the thread
id.  :func:`build_neighborhood_kernel` produces the simulator equivalent for
*any* binary problem and *any* k-Hamming neighborhood: the per-thread body
is a literal transcription of the paper's kernels, the vectorized body is
the NumPy batch equivalent used for fast execution.

The evaluators compute each step once on the host — one problem call for
every device of the fleet — and hand each launch its slice of that *fleet
pass* as the explicit ``scores`` launch argument; the vectorized body then
only stores it, while the launch is priced as the full evaluation it
models.  A direct launch without ``scores`` scores its own input first.
"""

from __future__ import annotations

import numpy as np

from ..gpu.kernel import Kernel, ThreadContext
from ..gpu.timing import KernelCostProfile
from ..neighborhoods import Neighborhood
from ..problems import BinaryProblem

__all__ = [
    "build_neighborhood_kernel",
    "build_batch_neighborhood_kernel",
    "build_slice_kernel",
    "mapping_flops",
    "kernel_cost_profile",
]

#: Approximate arithmetic cost of the thread-id -> move transformation, per
#: thread, by Hamming order: the identity, the closed form with one square
#: root (paper Appendix B), and the Newton–Raphson iteration plus a square
#: root (paper Appendix C / Algorithm 1).
_MAPPING_FLOPS = {1: 2.0, 2: 25.0, 3: 90.0}


def mapping_flops(order: int) -> float:
    """Per-thread cost of the one-to-k index transformation."""
    return _MAPPING_FLOPS.get(order, 40.0 * order)


def kernel_cost_profile(
    problem: BinaryProblem, order: int, *, use_texture: bool = False
) -> KernelCostProfile:
    """Per-thread cost of evaluating one neighbor of ``problem`` at Hamming order ``order``.

    With ``use_texture=True`` the read-only instance data (as declared by the
    problem's ``texture_bytes`` cost entry) is served through the texture
    cache instead of plain global memory — the optimisation behind the
    "GPUTexture" curve of the paper's Figure 8.
    """
    cost = problem.cost_profile(order)
    total_bytes = cost["bytes"]
    texture_bytes = 0.0
    if use_texture:
        texture_bytes = min(float(cost.get("texture_bytes", 0.0)), total_bytes)
    return KernelCostProfile(
        flops=cost["flops"] + mapping_flops(order),
        gmem_bytes=total_bytes - texture_bytes + 4.0,  # + the fitness write
        texture_bytes=texture_bytes,
        registers=24,
    )


def _store_slice(tids: np.ndarray, fitnesses: np.ndarray, scores: np.ndarray) -> None:
    """Vectorized body of a launch handed its slice of the fleet pass.

    The launcher's active ids are always ``0 .. active - 1``, so the store
    is one block copy — which NumPy skips entirely when the fleet pass
    already wrote into this output buffer.
    """
    fitnesses[: tids.size] = scores.reshape(-1)[: tids.size]


def build_neighborhood_kernel(
    problem: BinaryProblem,
    neighborhood: Neighborhood,
    *,
    use_texture: bool = False,
) -> Kernel:
    """Create the evaluation kernel for ``problem`` explored with ``neighborhood``.

    The kernel signature (its ``args`` tuple at launch time) is
    ``(solution, fitnesses[, scores])``:

    * ``solution`` — the current candidate, a length-``n`` 0/1 vector living
      in (simulated) global memory;
    * ``fitnesses`` — the output array of ``neighborhood.size`` fitness
      values, one slot per thread;
    * ``scores`` — optional slice of the evaluator's fleet pass: the
      fitnesses the host already computed for exactly the threads of this
      launch (thread ``t`` stores ``scores[t]``).  The vectorized body
      stores it (scoring the solution itself when launched without one);
      the per-thread body always evaluates its own move.
    """
    mapping = neighborhood.mapping
    size = neighborhood.size

    def thread_fn(
        ctx: ThreadContext, solution: np.ndarray, fitnesses: np.ndarray, scores=None
    ) -> None:
        # Literal transcription of the paper's kernels:
        #   int move_index = blockIdx.x * blockDim.x + threadIdx.x;
        #   if (move_index < N) {
        #       <one-to-k index transformation>
        #       new_fitness[move_index] = compute_fitness(V, move...);
        #   }
        move_index = ctx.global_id
        if move_index < size:
            move = mapping.from_flat(move_index)
            fitnesses[move_index] = problem.delta_evaluate(solution, move)

    def vectorized_fn(
        tids: np.ndarray, solution: np.ndarray, fitnesses: np.ndarray, scores=None
    ) -> None:
        if scores is None:
            # A direct launch, without a fleet pass, scores its own solution.
            scores = problem.evaluate_neighborhood(solution, neighborhood.moves())
        _store_slice(tids, fitnesses, scores)

    return Kernel(
        name=f"MoveIncrEvalKernel<{problem.name},{neighborhood.order}-Hamming>",
        thread_fn=thread_fn,
        vectorized_fn=vectorized_fn,
        cost=kernel_cost_profile(problem, neighborhood.order, use_texture=use_texture),
    )


def build_batch_neighborhood_kernel(
    problem: BinaryProblem,
    neighborhood: Neighborhood,
    *,
    use_texture: bool = False,
) -> Kernel:
    """Solution-parallel generalization of the paper's evaluation kernel.

    One thread per (replica, neighbor) pair over a logical ``(S, M)`` work
    shape: thread ``t`` evaluates neighbor ``t % M`` of solution ``t // M``.
    The kernel's ``args`` tuple is ``(solutions, fitnesses[, scores])``
    where ``solutions`` is the ``(S, n)`` block of current candidates,
    ``fitnesses`` a flat array of ``S * M`` output slots and ``scores`` the
    optional ``(S, M)`` slice of the evaluator's fleet pass — the one
    host-side problem call that scored every device's replicas of the step
    (and let the gain engine serve them by global replica id).  The
    vectorized body stores the launch's slice (scoring the block itself
    when launched without one); the per-thread body always evaluates its
    own (replica, neighbor) pair.
    The per-thread cost profile is identical to the single-solution kernel
    — batching multiplies the thread count, not the per-thread work — which
    is exactly why the launch amortizes its fixed overhead over ``S``
    replicas.
    """
    mapping = neighborhood.mapping
    size = neighborhood.size

    def thread_fn(
        ctx: ThreadContext, solutions: np.ndarray, fitnesses: np.ndarray, scores=None
    ) -> None:
        # The paper's kernel with a second logical axis:
        #   int tid = blockIdx.x * blockDim.x + threadIdx.x;
        #   int replica = tid / M, move_index = tid % M;
        #   if (replica < S) new_fitness[tid] = compute_fitness(V[replica], move...);
        tid = ctx.global_id
        replica, move_index = divmod(tid, size)
        if replica < solutions.shape[0]:
            move = mapping.from_flat(move_index)
            fitnesses[tid] = problem.delta_evaluate(solutions[replica], move)

    def vectorized_fn(
        tids: np.ndarray, solutions: np.ndarray, fitnesses: np.ndarray, scores=None
    ) -> None:
        if scores is None:
            # A direct launch, without a fleet pass, scores its own block.
            scores = problem.evaluate_neighborhood_batch(solutions, neighborhood.moves())
        _store_slice(tids, fitnesses, scores)

    return Kernel(
        name=f"BatchMoveIncrEvalKernel<{problem.name},{neighborhood.order}-Hamming>",
        thread_fn=thread_fn,
        vectorized_fn=vectorized_fn,
        cost=kernel_cost_profile(problem, neighborhood.order, use_texture=use_texture),
    )


def build_slice_kernel(kernel: Kernel, name: str) -> Kernel:
    """Store-only launch over a sub-range of ``kernel``'s flat index space.

    The ``args`` tuple is ``(solutions, fitnesses, scores)``: thread ``t``
    stores ``scores[t]``, its slot of the evaluator's fleet pass.  Used where
    a launch covers a device's share of a split neighborhood or a caller's
    compacted index list; its thread ids do not map to moves through the
    neighborhood's mapping, so it has no per-thread body.  The cost profile
    is ``kernel``'s: the simulated device still evaluates every neighbor.
    """

    def vectorized_fn(
        tids: np.ndarray, solutions: np.ndarray, fitnesses: np.ndarray, scores: np.ndarray
    ) -> None:
        _store_slice(tids, fitnesses, scores)

    return Kernel(name=name, vectorized_fn=vectorized_fn, cost=kernel.cost)
