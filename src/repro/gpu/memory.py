"""Simulated device memory spaces and host<->device transfer accounting.

The GPU in this reproduction is a simulator, so "device memory" is ordinary
NumPy storage; what matters is *accounting*: how many bytes live on the
device, how many bytes cross the PCIe bus and how often.  Those counters feed
the timing model and let the tests assert, for example, that an LS iteration
only copies the fitness array back (and not the whole neighborhood), exactly
as the paper's implementation does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "MemorySpace",
    "HostMemoryKind",
    "DeviceBuffer",
    "TransferRecord",
    "MemoryManager",
    "PinnedStagingPool",
    "OutOfDeviceMemory",
]


class MemorySpace(enum.Enum):
    """The CUDA memory spaces distinguished by the simulator."""

    GLOBAL = "global"
    SHARED = "shared"
    CONSTANT = "constant"
    TEXTURE = "texture"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class HostMemoryKind(enum.Enum):
    """Which kind of host memory a PCIe transfer reads from / writes to.

    Pageable memory goes through a driver-side bounce buffer (an extra host
    memcpy per transfer); pinned (page-locked) memory is DMA-able directly.
    The timing model prices the two differently, which is why the transfer
    log records the kind of every copy.
    """

    PAGEABLE = "pageable"
    PINNED = "pinned"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation exceeds the device's global memory capacity."""


@dataclass
class DeviceBuffer:
    """A named allocation living in one of the simulated memory spaces."""

    name: str
    data: np.ndarray
    space: MemorySpace = MemorySpace.GLOBAL

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def copy_from_host(self, host_array: np.ndarray) -> None:
        host_array = np.asarray(host_array)
        if host_array.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch copying to device buffer {self.name!r}: "
                f"{host_array.shape} != {self.data.shape}"
            )
        np.copyto(self.data, host_array)

    def to_host(self) -> np.ndarray:
        return self.data.copy()


class TransferRecord(NamedTuple):
    """One host<->device copy, as logged by the :class:`MemoryManager`."""

    direction: str  # "h2d" or "d2h"
    nbytes: int
    buffer: str
    #: Host memory kind the copy was staged from/to (pageable unless the
    #: caller routed it through a pinned staging buffer).
    host_kind: HostMemoryKind = HostMemoryKind.PAGEABLE


@dataclass
class PinnedStagingPool:
    """A reusable pool of pinned (page-locked) host staging buffers.

    Real pipelines allocate a small set of ``cudaHostAlloc`` buffers once and
    recycle them for the per-iteration delta/result packets — pinning pages
    on every transfer would cost more than the bandwidth win.  The simulator
    models the pool as counters: how many packets were staged, how many bytes
    went through the pool and the high-water pinned footprint (allocations
    are rounded up to whole blocks, like a real suballocator).
    """

    #: Granularity of the pinned suballocator.
    block_bytes: int = 4096
    #: Number of packets staged through the pool so far.
    stagings: int = 0
    #: Total payload bytes routed through the pool.
    staged_bytes: int = 0
    #: High-water pinned allocation, in bytes (rounded up to whole blocks).
    high_water_bytes: int = 0

    def stage(self, nbytes: int) -> int:
        """Stage one packet of ``nbytes``; returns the pinned bytes reserved."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        blocks = max(1, -(-int(nbytes) // self.block_bytes))
        reserved = blocks * self.block_bytes
        self.stagings += 1
        self.staged_bytes += int(nbytes)
        self.high_water_bytes = max(self.high_water_bytes, reserved)
        return reserved

    def reset(self) -> None:
        self.stagings = 0
        self.staged_bytes = 0
        self.high_water_bytes = 0


@dataclass
class MemoryManager:
    """Tracks allocations and transfers for one simulated device."""

    capacity_bytes: int
    allocations: dict[str, DeviceBuffer] = field(default_factory=dict)
    transfers: list[TransferRecord] = field(default_factory=list)
    #: Running total behind :attr:`allocated_bytes`, kept by every method
    #: that adds or drops a buffer.
    _allocated: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._allocated = sum(self._footprint(buf) for buf in self.allocations.values())

    @staticmethod
    def _footprint(buf: DeviceBuffer) -> int:
        """Bytes ``buf`` holds against the device capacity (shared memory: none)."""
        return 0 if buf.space is MemorySpace.SHARED else buf.nbytes

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    def alloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype=np.float64,
        space: MemorySpace = MemorySpace.GLOBAL,
    ) -> DeviceBuffer:
        """Allocate an uninitialised buffer on the device."""
        if name in self.allocations:
            raise ValueError(f"device buffer {name!r} already allocated")
        data = np.empty(shape, dtype=dtype)
        if space is not MemorySpace.SHARED and self.allocated_bytes + data.nbytes > self.capacity_bytes:
            raise OutOfDeviceMemory(
                f"allocating {data.nbytes} bytes for {name!r} exceeds device capacity "
                f"({self.allocated_bytes}/{self.capacity_bytes} bytes in use)"
            )
        buf = DeviceBuffer(name=name, data=data, space=space)
        self.allocations[name] = buf
        self._allocated += self._footprint(buf)
        return buf

    def free(self, name: str) -> None:
        if name not in self.allocations:
            raise KeyError(f"no device buffer named {name!r}")
        self._allocated -= self._footprint(self.allocations.pop(name))

    def get(self, name: str) -> DeviceBuffer:
        return self.allocations[name]

    def free_all(self) -> None:
        self.allocations.clear()
        self._allocated = 0

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def to_device(
        self,
        name: str,
        host_array: np.ndarray,
        space: MemorySpace = MemorySpace.GLOBAL,
        host_kind: HostMemoryKind = HostMemoryKind.PAGEABLE,
    ) -> DeviceBuffer:
        """Allocate (if needed) and copy a host array to the device."""
        host_array = np.asarray(host_array)
        if name in self.allocations:
            buf = self.allocations[name]
            buf.copy_from_host(host_array)
        else:
            buf = self.alloc(name, host_array.shape, host_array.dtype, space)
            buf.copy_from_host(host_array)
        self.transfers.append(
            TransferRecord("h2d", int(host_array.nbytes), name, host_kind)
        )
        return buf

    def to_host(
        self, name: str, host_kind: HostMemoryKind = HostMemoryKind.PAGEABLE
    ) -> np.ndarray:
        """Copy a device buffer back to the host."""
        buf = self.get(name)
        self.transfers.append(TransferRecord("d2h", buf.nbytes, name, host_kind))
        return buf.to_host()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def bytes_transferred(
        self,
        direction: str | None = None,
        host_kind: HostMemoryKind | None = None,
    ) -> int:
        return sum(
            t.nbytes
            for t in self.transfers
            if (direction is None or t.direction == direction)
            and (host_kind is None or t.host_kind is host_kind)
        )

    def transfer_count(
        self,
        direction: str | None = None,
        host_kind: HostMemoryKind | None = None,
    ) -> int:
        return sum(
            1
            for t in self.transfers
            if (direction is None or t.direction == direction)
            and (host_kind is None or t.host_kind is host_kind)
        )

    def reset_statistics(self) -> None:
        self.transfers.clear()
