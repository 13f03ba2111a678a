"""The stored device clock equals a fresh max over the stream cursors.

``Timeline.elapsed`` is a running makespan kept by every cursor write, and
``DeviceScheduler.makespan`` is a max of those stored clocks.  Hypothesis
interleaves every way a cursor moves — stream-ordered and null-stream
scheduling, interconnect lanes committed by the shared-link arbiter,
record copies and merged views, snapshot/restore (which moves cursors
back) and reset — and after each step compares both clocks with a max
recomputed from scratch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GTX_280, GPUContext, TransferEngine
from repro.gpu.interconnect import resolve_topology
from repro.gpu.scheduler import DeviceScheduler, merge_timelines

DEVICES = 2
STREAMS = ("default", "h2d", "compute", "d2h")

times = st.floats(min_value=0.0, max_value=1e-2, allow_nan=False)
device = st.integers(0, DEVICES - 1)
stream = st.sampled_from(STREAMS)

operations = st.one_of(
    st.tuples(st.just("schedule"), device, stream, times, times),
    st.tuples(st.just("timeline"), device, stream, times, st.integers(0, 3)),
    st.tuples(st.just("sync"), device, times),
    st.tuples(st.just("host"), times, times),
    st.tuples(st.just("copy"), device, st.integers(1, 1 << 16), times),
    st.tuples(st.just("transfer"), device, st.sampled_from(["h2d", "d2h"]),
              st.integers(1, 1 << 16), times),
    st.tuples(st.just("peer"), st.integers(1, 1 << 12), times),
    st.tuples(st.just("cursor"), device, stream, times),
    st.tuples(st.just("copy_records"), device, stream, stream),
    st.tuples(st.just("merge")),
    st.tuples(st.just("checkpoint"), device),
    st.tuples(st.just("restore"), device),
    st.tuples(st.just("reset"), device),
)


def fresh_max(timeline) -> float:
    return max((stream.cursor for stream in timeline.streams.values()), default=0.0)


def assert_clocks(scheduler, engine):
    timelines = [ctx.timeline for ctx in scheduler.contexts]
    for timeline in [*timelines, scheduler.host_timeline, engine.timeline]:
        assert timeline.elapsed == fresh_max(timeline)
    assert scheduler.makespan == max(
        fresh_max(scheduler.host_timeline), *(fresh_max(t) for t in timelines)
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(operations, min_size=1, max_size=40))
def test_stored_clocks_equal_a_fresh_max(ops):
    engine = TransferEngine(resolve_topology("shared", [GTX_280] * DEVICES))
    contexts = [
        GPUContext(GTX_280, engine=engine, device_key=f"gpu{i}") for i in range(DEVICES)
    ]
    scheduler = DeviceScheduler(contexts)
    events = []
    checkpoints = {}
    for op in ops:
        kind, *args = op
        if kind == "schedule":
            index, name, duration, not_before = args
            timeline = contexts[index].timeline
            timeline.stream(name).schedule("kernel", "k", duration, not_before=not_before)
            events.append(timeline.stream(name).record_event())
        elif kind == "timeline":
            index, name, duration, waits = args
            wait_for = events[-waits:] if waits else None
            interval = contexts[index].timeline.schedule(
                "kernel", "k", duration, stream=name, wait_for=wait_for
            )
            assert interval.start >= max((e.time for e in wait_for or ()), default=0.0)
        elif kind == "sync":
            index, duration = args
            contexts[index].timeline.schedule_sync("h2d", "s", duration)
        elif kind == "host":
            duration, not_before = args
            events.append(scheduler.host_op("issue", "h", duration, not_before=not_before))
        elif kind == "copy":
            index, nbytes, not_before = args
            events.append(
                contexts[index].copy_async(
                    "buf", np.zeros(nbytes, dtype=np.uint8), not_before=not_before
                )
            )
        elif kind == "transfer":
            # Committed on the shared uplink: the interconnect lane's cursor
            # is written directly by the arbiter.
            index, direction, nbytes, start = args
            engine.transfer(f"gpu{index}", direction, nbytes, start=start, label="t")
        elif kind == "peer":
            nbytes, not_before = args
            if contexts[0].can_access_peer(contexts[1]):
                events.append(
                    contexts[0].copy_peer_async(
                        contexts[1], "pkt", np.zeros(nbytes, dtype=np.uint8),
                        not_before=not_before,
                    )
                )
        elif kind == "cursor":
            index, name, value = args
            contexts[index].timeline.stream(name).cursor = value
        elif kind == "copy_records":
            index, source, target = args
            timeline = contexts[index].timeline
            timeline.stream(target).copy_records_from(timeline.stream(source))
        elif kind == "merge":
            sources = {f"gpu{i}": ctx.timeline for i, ctx in enumerate(contexts)}
            sources["interconnect"] = engine.timeline
            merged = merge_timelines(sources)
            assert merged.elapsed == fresh_max(merged)
            assert merged.elapsed == max(
                (s.cursor for t in sources.values() for s in t.streams.values()),
                default=0.0,
            )
        elif kind == "checkpoint":
            (index,) = args
            checkpoints[index] = (
                contexts[index].timeline.snapshot(),
                engine.timeline.snapshot(),
            )
        elif kind == "restore":
            (index,) = args
            if index in checkpoints:
                device_state, lanes_state = checkpoints[index]
                contexts[index].timeline.restore(device_state)
                engine.timeline.restore(lanes_state)
        elif kind == "reset":
            (index,) = args
            contexts[index].timeline.reset()
        assert_clocks(scheduler, engine)


def test_detached_streams_leave_the_clock_alone():
    """A stream dropped by reset/restore no longer moves its old timeline."""
    context = GPUContext(GTX_280)
    stale = context.timeline.stream("compute")
    context.timeline.reset()
    stale.schedule("kernel", "late", 5.0)
    assert context.timeline.elapsed == 0.0 == fresh_max(context.timeline)
