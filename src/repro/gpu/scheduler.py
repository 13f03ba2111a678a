"""Concurrent multi-device scheduler: one timeline per device, one per host.

The seed multi-GPU path issued per-device work from a serial host loop and
approximated concurrency as a per-step ``max`` over device times.
:class:`DeviceScheduler` replaces that with real concurrent *issue*: every
device owns its own :class:`~repro.gpu.streams.Timeline` (the one inside its
:class:`~repro.gpu.runtime.GPUContext`), the host owns another, and
operations are ordered only by the :class:`~repro.gpu.streams.Event`
dependencies the caller threads between them.  Because all timelines share
the same simulated clock origin, an event recorded on device 0 can gate an
operation on device 1 (or on the host) directly — that is how peer-routed
delta packets and host gathers serialize without a global barrier.

The pool-level elapsed time is the **cross-device makespan**: the latest
completion over every device timeline and the host timeline.  The
**serialized sum** — what the same work would cost if the devices ran one
after another — is the sum of per-timeline busy times; their difference is
the overlap the concurrent issue bought.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .hierarchy import DEFAULT_BLOCK_SIZE
from .interconnect import TransferEngine, TransferRequest
from .kernel import Kernel, KernelLaunch
from .memory import HostMemoryKind, MemorySpace
from .runtime import GPUContext
from .streams import (
    COPY_STREAM,
    DEFAULT_STREAM,
    DOWNLOAD_STREAM,
    Event,
    Timeline,
)
from .timing import KernelCostProfile

__all__ = ["DeviceScheduler", "HOST_TIMELINE_STREAM", "merge_timelines"]

#: Stream name used for host-side operations (gathers, scatter bookkeeping)
#: on the scheduler's host timeline.
HOST_TIMELINE_STREAM = "host"


def merge_timelines(
    timelines: dict[str, Timeline],
) -> Timeline:
    """Merge several timelines into one view with prefixed stream names.

    Streams of the timeline registered under prefix ``"gpu0"`` appear as
    ``"gpu0:compute"``, ``"gpu0:h2d"``, ... in the merged view, so
    :func:`~repro.gpu.streams.format_timeline` renders a single
    cross-device report whose makespan is the pool-level elapsed time.
    """
    merged = Timeline()
    for prefix, timeline in timelines.items():
        for name, stream in timeline.streams.items():
            view = merged.stream(f"{prefix}:{name}")
            view.cursor = stream.cursor
            view.copy_records_from(stream)
    return merged


class DeviceScheduler:
    """Issues work across a pool of device contexts plus a host timeline.

    The scheduler does not own the contexts — it coordinates them: each
    ``issue_*`` helper delegates to the context's asynchronous API and
    returns the completion :class:`~repro.gpu.streams.Event`, which the
    caller can pass as a dependency of an operation on *any* device (or the
    host).  Cross-device ordering therefore costs exactly what the event
    times say, with no serializing host loop in between.
    """

    def __init__(
        self,
        contexts: Sequence[GPUContext],
        *,
        host_timeline: Timeline | None = None,
        engine: TransferEngine | None = None,
    ) -> None:
        if not contexts:
            raise ValueError("need at least one device context")
        self.contexts = list(contexts)
        self.host_timeline = host_timeline if host_timeline is not None else Timeline()
        if engine is None:
            # A pool built over one shared interconnect exposes it here; a
            # grab-bag of standalone contexts (each with a private engine)
            # leaves the scheduler without a pool-level fabric view.
            first = contexts[0].engine
            if all(ctx.engine is first for ctx in contexts):
                engine = first
        #: The pool's shared transfer engine (``None`` for mixed pools).
        self.engine = engine

    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.contexts)

    def device(self, index: int) -> GPUContext:
        return self.contexts[index]

    # ------------------------------------------------------------------
    # Issue helpers (thin wrappers that keep call sites uniform)
    # ------------------------------------------------------------------
    def upload(
        self,
        index: int,
        name: str,
        host_array: np.ndarray,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        space: MemorySpace = MemorySpace.GLOBAL,
        host_kind: HostMemoryKind | None = None,
    ) -> Event:
        """Host -> device ``index`` copy on that device's copy stream."""
        return self.contexts[index].copy_async(
            name,
            host_array,
            wait_for=wait_for,
            not_before=not_before,
            space=space,
            host_kind=host_kind,
        )

    def launch(
        self,
        index: int,
        kernel: Kernel,
        active_threads,
        args,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost: KernelCostProfile | None = None,
    ) -> tuple[KernelLaunch, Event]:
        """Kernel launch on device ``index``'s compute stream."""
        return self.contexts[index].launch_async(
            kernel,
            active_threads,
            args,
            wait_for=wait_for,
            not_before=not_before,
            block_size=block_size,
            cost=cost,
        )

    def reduce(
        self,
        index: int,
        name: str,
        num_elements: int,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
    ) -> Event:
        """Fused on-device reduction on device ``index``."""
        return self.contexts[index].reduce_async(
            name, num_elements, wait_for=wait_for, not_before=not_before
        )

    def download(
        self,
        index: int,
        name: str,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        host_kind: HostMemoryKind | None = None,
    ) -> tuple[np.ndarray, Event]:
        """Device ``index`` -> host copy on that device's download stream."""
        return self.contexts[index].download_async(
            name, wait_for=wait_for, not_before=not_before, host_kind=host_kind
        )

    def route_peer(
        self,
        src: int,
        dst: int,
        name: str,
        data: np.ndarray,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
    ) -> Event:
        """Device -> device copy over the P2P link (no host round trip)."""
        return self.contexts[src].copy_peer_async(
            self.contexts[dst], name, data, wait_for=wait_for, not_before=not_before
        )

    def upload_batch(
        self,
        items: Sequence[tuple[int, str, np.ndarray]],
        *,
        host_kind: HostMemoryKind | None = None,
        stream: str = COPY_STREAM,
        sync: bool = False,
        not_before: float = 0.0,
    ) -> list[Event]:
        """Concurrent host -> device fan-out as ONE engine arbitration batch.

        ``items`` is a list of ``(device_index, buffer_name, host_array)``
        triples.  All copies are priced together, so on a shared-uplink
        topology ``N`` simultaneous uploads each see ``~1/N`` of the root
        complex — issuing them one by one would let the first grab the full
        rate before the others arrive.  ``sync=True`` uses null-stream
        semantics per device (the copy starts once that device has drained).
        """
        if not items:
            return []
        engine = self.engine
        prepared = []
        requests = []
        for index, name, host_array in items:
            ctx = self.contexts[index]
            host_array = np.asarray(host_array)
            kind = ctx._host_kind(host_kind)
            if sync:
                # Null-stream semantics: the copy starts once every stream
                # of that device has drained (or at the caller's floor).
                target_stream = DEFAULT_STREAM
                start = max(ctx.timeline.elapsed, not_before)
            else:
                target_stream = stream
                start = ctx._issue_start(stream, None, not_before)
            prepared.append((ctx, name, host_array, kind, start, target_stream))
            requests.append(
                TransferRequest(
                    device=ctx.device_key,
                    direction="h2d",
                    nbytes=int(host_array.nbytes),
                    kind=kind,
                    start=start,
                    label=name,
                )
            )
        if engine is not None:
            grants = engine.transfer_batch(requests)
        else:
            # Mixed pools without one shared fabric: per-context pricing.
            grants = [
                ctx.host_transfer_grant(
                    "h2d", request.nbytes, kind=request.kind,
                    start=request.start, label=request.label,
                )
                for (ctx, *_), request in zip(prepared, requests)
            ]
        return [
            ctx.copy_async(
                name, host_array,
                stream=target_stream, not_before=start,
                host_kind=kind, grant=grant,
            )
            for (ctx, name, host_array, kind, start, target_stream), grant in zip(
                prepared, grants
            )
        ]

    def download_batch(
        self,
        items: Sequence[tuple[int, str, Event | None]],
        *,
        host_kind: HostMemoryKind | None = None,
        stream: str = DOWNLOAD_STREAM,
    ) -> list[tuple[np.ndarray, Event]]:
        """Concurrent device -> host gather as ONE engine arbitration batch.

        ``items`` is a list of ``(device_index, buffer_name, wait_event)``
        triples; each copy starts once its device's download stream is free
        and its event (typically the kernel completion) has fired.
        """
        if not items:
            return []
        engine = self.engine
        prepared = []
        requests = []
        for index, name, wait_event in items:
            ctx = self.contexts[index]
            kind = ctx._host_kind(host_kind)
            start = ctx._issue_start(stream, wait_event, 0.0)
            nbytes = ctx.memory.get(name).nbytes
            prepared.append((ctx, name, kind, start, wait_event))
            requests.append(
                TransferRequest(
                    device=ctx.device_key,
                    direction="d2h",
                    nbytes=nbytes,
                    kind=kind,
                    start=start,
                    label=name,
                )
            )
        if engine is not None:
            grants = engine.transfer_batch(requests)
        else:
            grants = [
                ctx.host_transfer_grant(
                    "d2h", request.nbytes, kind=request.kind,
                    start=request.start, label=request.label,
                )
                for (ctx, *_), request in zip(prepared, requests)
            ]
        results = []
        for (ctx, name, kind, start, wait_event), grant in zip(prepared, grants):
            data, event = ctx.download_async(
                name, stream=stream, wait_for=wait_event,
                host_kind=kind, grant=grant,
            )
            results.append((data, event))
        return results

    def host_op(
        self,
        kind: str,
        name: str,
        duration: float,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
    ) -> Event:
        """Schedule a host-side operation (gather, scatter) on the host timeline."""
        interval = self.host_timeline.schedule(
            kind,
            name,
            duration,
            stream=HOST_TIMELINE_STREAM,
            wait_for=wait_for,
            not_before=not_before,
        )
        return Event(stream=HOST_TIMELINE_STREAM, time=interval.end)

    def can_route_peer(self, src: int, dst: int) -> bool:
        return self.contexts[src].can_access_peer(self.contexts[dst])

    @property
    def all_peer_capable(self) -> bool:
        """Whether every pairwise P2P link in the pool is available."""
        if self.engine is not None:
            keys = [ctx.device_key for ctx in self.contexts]
            return all(
                self.engine.has_peer_route(a, b)
                for i, a in enumerate(keys)
                for b in keys[i + 1 :]
            )
        return all(ctx.device.p2p_capable for ctx in self.contexts)

    # ------------------------------------------------------------------
    # Pool-level clocks
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Overlap-aware cross-device elapsed time (incl. the host timeline)."""
        return max(
            max(ctx.timeline.elapsed for ctx in self.contexts),
            self.host_timeline.elapsed,
        )

    @property
    def serialized_sum(self) -> float:
        """What the recorded work would cost run one device after another."""
        return (
            sum(ctx.timeline.busy_time for ctx in self.contexts)
            + self.host_timeline.busy_time
        )

    @property
    def overlap_saved(self) -> float:
        """Simulated time hidden by concurrent cross-device execution."""
        return max(0.0, self.serialized_sum - self.makespan)

    @property
    def per_device_elapsed(self) -> list[float]:
        return [ctx.timeline.elapsed for ctx in self.contexts]

    def synchronize(self) -> float:
        """Host-side sync point across the whole pool: the makespan instant."""
        return self.makespan

    # ------------------------------------------------------------------
    def merged_timeline(self) -> Timeline:
        """All device timelines plus the host one, as a single prefixed view.

        When the pool shares a transfer engine whose topology has shared
        links (a host uplink, a switch fabric), each populated link appears
        as its own ``interconnect:<link>`` lane, so the report shows *when*
        the root complex was busy next to the per-device streams.
        """
        timelines: dict[str, Timeline] = {
            f"gpu{i}": ctx.timeline for i, ctx in enumerate(self.contexts)
        }
        if self.host_timeline.streams:
            timelines["host"] = self.host_timeline
        if self.engine is not None and self.engine.timeline.streams:
            timelines["interconnect"] = self.engine.timeline
        return merge_timelines(timelines)

    def reset(self) -> None:
        """Reset every device context and the host timeline."""
        for ctx in self.contexts:
            ctx.reset()
        self.host_timeline.reset()

    def __repr__(self) -> str:  # pragma: no cover
        names = ", ".join(ctx.device.name for ctx in self.contexts)
        return f"DeviceScheduler([{names}])"
