"""Admission sweep invariants.

The sweep stops at a full batch once the queue head has had its preemption
attempt: that is sound only because every queued entry needs at least one
slot, which the queue enforces when an entry is created.
"""

import numpy as np
import pytest

from repro.service import JobSpec
from repro.service.server import JobRecord, _QueueEntry


def test_queue_entry_needs_at_least_one_slot():
    spec = JobSpec(job_id="a", arrival=0.0, replicas=3, budget=5)
    record = JobRecord(spec=spec)
    assert _QueueEntry(spec, record).need == 3
    # A suspended group needs exactly the replicas it still holds.
    saved = {"current": np.zeros((2, 8), dtype=np.int8)}
    assert _QueueEntry(spec, record, saved).need == 2
    with pytest.raises(ValueError, match="needs 0 replica slots"):
        _QueueEntry(spec, record, {"current": np.zeros((0, 8), dtype=np.int8)})
