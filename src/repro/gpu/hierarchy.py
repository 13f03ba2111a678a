"""CUDA-style thread hierarchy: grids of blocks of threads.

The kernel model of the paper (Section III-A) launches a 1-D or 2-D grid of
equally-sized thread blocks; every thread derives a unique id from
``blockIdx * blockDim + threadIdx`` and uses it as the flat neighbor index.
This module provides the small amount of structure needed to express that
faithfully in Python.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["Dim3", "ThreadIndex", "LaunchConfig", "grid_for", "DEFAULT_BLOCK_SIZE"]

#: Threads per block used by default for the neighborhood kernels; 256 keeps
#: every GT200-class multiprocessor at full occupancy while staying well
#: under the 512-thread hardware limit.
DEFAULT_BLOCK_SIZE = 256


@dataclass(frozen=True)
class Dim3:
    """CUDA ``dim3``: a triple of extents or coordinates.

    Used both for launch extents (``gridDim`` / ``blockDim``, which must be
    at least 1 — enforced by :class:`LaunchConfig`) and for thread/block
    coordinates (``blockIdx`` / ``threadIdx``, which start at 0).
    """

    x: int
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        for axis in (self.x, self.y, self.z):
            if axis < 0:
                raise ValueError(f"Dim3 components must be >= 0, got {self!r}")

    @property
    def size(self) -> int:
        return self.x * self.y * self.z

    def __iter__(self) -> Iterator[int]:
        yield from (self.x, self.y, self.z)


@dataclass(frozen=True)
class ThreadIndex:
    """Identity of one simulated thread inside a launch."""

    block: Dim3
    thread: Dim3
    block_dim: Dim3
    grid_dim: Dim3

    @property
    def global_x(self) -> int:
        """The paper's ``blockIdx.x * blockDim.x + threadIdx.x``."""
        return self.block.x * self.block_dim.x + self.thread.x

    @property
    def global_id(self) -> int:
        """Flattened global thread id across all three dimensions."""
        block_rank = (
            self.block.z * self.grid_dim.y + self.block.y
        ) * self.grid_dim.x + self.block.x
        thread_rank = (
            self.thread.z * self.block_dim.y + self.thread.y
        ) * self.block_dim.x + self.thread.x
        return block_rank * self.block_dim.size + thread_rank


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry of one kernel launch."""

    grid: Dim3
    block: Dim3

    def __post_init__(self) -> None:
        for dim, label in ((self.grid, "grid"), (self.block, "block")):
            if min(dim.x, dim.y, dim.z) < 1:
                raise ValueError(f"{label} extents must all be >= 1, got {dim}")

    @property
    def threads_per_block(self) -> int:
        return self.block.size

    @property
    def num_blocks(self) -> int:
        return self.grid.size

    @property
    def total_threads(self) -> int:
        return self.num_blocks * self.threads_per_block

    def global_ids(self) -> np.ndarray:
        """All global thread ids of the launch, in execution order."""
        return np.arange(self.total_threads, dtype=np.int64)

    def thread_indices(self) -> Iterator[ThreadIndex]:
        """Iterate every :class:`ThreadIndex` of the launch (per-thread mode)."""
        for bz in range(self.grid.z):
            for by in range(self.grid.y):
                for bx in range(self.grid.x):
                    for tz in range(self.block.z):
                        for ty in range(self.block.y):
                            for tx in range(self.block.x):
                                yield ThreadIndex(
                                    block=Dim3(bx, by, bz),
                                    thread=Dim3(tx, ty, tz),
                                    block_dim=self.block,
                                    grid_dim=self.grid,
                                )


@functools.lru_cache(maxsize=256)
def grid_for(
    total_threads: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    max_grid_x: int = 65535,
) -> LaunchConfig:
    """1-D (or, when necessary, 2-D) launch configuration covering ``total_threads``.

    This mirrors how the paper sizes its kernels: one thread per neighbor,
    rounded up to whole blocks; when the number of blocks exceeds the
    hardware's 65535 per-dimension grid limit the grid spills into a second
    dimension (needed for the 3-Hamming neighborhoods of the larger
    instances).  Configurations are immutable, so repeated launch shapes
    share one memoized instance.
    """
    if total_threads <= 0:
        raise ValueError(f"total_threads must be positive, got {total_threads}")
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    blocks = (total_threads + block_size - 1) // block_size
    if blocks <= max_grid_x:
        grid = Dim3(blocks)
    else:
        grid_y = (blocks + max_grid_x - 1) // max_grid_x
        grid = Dim3(max_grid_x, grid_y)
    return LaunchConfig(grid=grid, block=Dim3(block_size))
