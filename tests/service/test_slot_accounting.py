"""Slot accounting of the continuous batch: the stored leased count.

``ContinuousRunner.free_slots`` is read once per queued job per admission
sweep, so the runner keeps the leased count as a stored number instead of
summing the slot mask on every read.  These tests pin that number to the
mask through every way a slot changes hands, and pin a preempting
``SolveServer`` trace's job records to the values the summing
implementation produced.
"""

import hashlib

import numpy as np
import pytest

from repro.core import MultiGPUEvaluator
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import PermutedPerceptronProblem
from repro.service import ContinuousRunner, SolveServer, poisson_trace


@pytest.fixture(scope="module")
def instance():
    problem = PermutedPerceptronProblem.generate(21, 21, rng=7)
    return problem, KHammingNeighborhood(problem.n, 1)


def assert_counts(runner):
    assert runner.num_leased == int(runner.leased.sum())
    assert runner.free_slots == runner.capacity - int(runner.leased.sum())


@pytest.mark.parametrize("mode", ["delta", "reduced"])
def test_leased_count_follows_the_mask(instance, mode):
    problem, neighborhood = instance
    evaluator = MultiGPUEvaluator(problem, neighborhood, devices=2)
    try:
        with ContinuousRunner(evaluator, capacity=6, transfer_mode=mode) as runner:
            assert_counts(runner)
            assert runner.free_slots == 6
            first = runner.attach(seeds=[1, 2], budgets=3)
            second = runner.attach(seeds=[3, 4, 5], budgets=30)
            assert_counts(runner)
            assert runner.free_slots == 1
            runner.step()
            assert_counts(runner)

            # Checkpoint one device session mid-flight; restore it later.
            snap = evaluator.snapshot_state()
            saved = runner.suspend(second[:2])
            assert_counts(runner)
            assert runner.free_slots == 3
            while runner.num_active > 1:
                runner.step()
                assert_counts(runner)
            runner.detach(first)
            assert_counts(runner)
            resumed = runner.resume(saved)
            assert_counts(runner)
            assert runner.free_slots == 3
            evaluator.restore_state(snap)
            assert_counts(runner)

            # A suspended group's state dict resumes into any free slots,
            # also after a second round trip.
            again = runner.resume(runner.suspend(resumed))
            assert_counts(runner)
            runner.detach(np.concatenate([again, second[2:]]), cancel=True)
            assert_counts(runner)
            assert runner.free_slots == 6
            with pytest.raises(ValueError):
                runner.detach([0])
            assert_counts(runner)
    finally:
        evaluator.close()


def _exact(value):
    """A version-stable exact spelling (NumPy scalars print differently)."""
    return None if value is None else float(value).hex()


def record_digest(report) -> str:
    """Hash of every simulated field of a report's job records."""
    rows = [(int(report.steps), _exact(report.busy_time))]
    for record in report.records:
        rows.append(
            (
                record.spec.job_id,
                record.status,
                _exact(record.admitted),
                _exact(record.finished),
                int(record.preemptions),
                _exact(record.gpu_seconds),
                int(record.iterations),
                tuple(
                    (
                        _exact(result.best_fitness),
                        int(result.iterations),
                        int(result.evaluations),
                        str(result.stopping_reason),
                        _exact(result.simulated_time),
                        result.best_solution.tobytes().hex(),
                    )
                    for result in record.results
                ),
            )
        )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_preempting_trace_records_are_unchanged(instance):
    problem, neighborhood = instance
    jobs = poisson_trace(
        24,
        4000.0,
        rng=11,
        replicas=(1, 4),
        budget=(5, 40),
        priorities=(0, 0, 1),
        tenants=2,
    )
    evaluator = MultiGPUEvaluator(problem, neighborhood, devices=2)
    try:
        report = SolveServer(
            evaluator, capacity=8, transfer_mode="reduced"
        ).run_trace(jobs)
    finally:
        evaluator.close()
    assert report.preempted_jobs > 0
    assert report.completed == len(jobs)
    # Recorded with the mask-summing leased count the stored one replaced.
    assert record_digest(report) == EXPECTED_DIGEST


EXPECTED_DIGEST = "a97aafc808da2fe9f5b2334196db1080935735f4db27f9b072cc47b7bee75546"
