"""The simulated timeline of a fleet step, pinned bit for bit.

Each cell drives a GPU evaluator through resident search steps and hashes
everything the simulator prices: every device's per-stream interval
columns (kind, name, start, end), cursor and busy time, the host and
interconnect lanes, ``TransferEngine.snapshot()``, every ``DeviceStats``
counter and each evaluator's ``stats.simulated_time`` — next to the
trajectories the steps produced.  Floats enter the hash as exact hex
spellings, so moving one interval or flipping one float bit fails a cell.

The digests were recorded before the fleet step was priced in one pass:
with a reduction epilogue per device, event barriers recomputed by every
stream op and device clocks taken as a max over streams.
"""

import hashlib

import numpy as np
import pytest

from repro.core import GPUEvaluator, MultiGPUEvaluator
from repro.localsearch import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import PermutedPerceptronProblem
from repro.service import SolveServer, poisson_trace

DEVICES = 4
REPLICAS = 10
ITERATIONS = 30


@pytest.fixture(scope="module")
def instance():
    problem = PermutedPerceptronProblem.generate(21, 21, rng=7)
    return problem, KHammingNeighborhood(problem.n, 1)


def _canon(value):
    """An exact, version-stable spelling of snapshot values."""
    if isinstance(value, dict):
        return tuple((str(key), _canon(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_canon(item) for item in value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes().hex())
    return value if value is None else str(value)


def _timeline_rows(timeline, owners):
    """Interval columns per stream; buffer names keep their owner's role,
    not its ``id()``, which differs from run to run."""

    def stable(name):
        for token, owner in owners.items():
            name = name.replace(str(id(owner)), token)
        return name

    return tuple(
        (
            name,
            stream.cursor.hex(),
            stream.busy_time.hex(),
            tuple(
                (iv.kind, stable(iv.name), iv.start.hex(), iv.end.hex())
                for iv in stream.intervals
            ),
        )
        for name, stream in sorted(timeline.streams.items())
    )


def _context_rows(context, owners):
    counters = context.stats.snapshot()
    # Host wall seconds, not simulated time: differs from run to run.
    counters.pop("host_eval_time")
    return (
        _timeline_rows(context.timeline, owners),
        _canon(counters),
        int(context.memory.allocated_bytes),
    )


def _evaluator_rows(evaluator):
    stats = evaluator.stats
    return (int(stats.calls), int(stats.evaluations), stats.simulated_time.hex())


def simulation_digest(evaluator, outputs) -> str:
    """Hash of everything an evaluator's steps priced, plus their outputs."""
    if isinstance(evaluator, MultiGPUEvaluator):
        contexts = evaluator.pool.contexts
        engine = evaluator.pool.engine
        subs = evaluator._sub_evaluators
        host = evaluator.scheduler.host_timeline
    else:
        contexts, engine, subs, host = [evaluator.context], evaluator.context.engine, [], None
    owners = {"fleet": evaluator, **{f"dev{i}": sub for i, sub in enumerate(subs)}}
    rows = (
        tuple(_context_rows(context, owners) for context in contexts),
        () if host is None else _timeline_rows(host, owners),
        _timeline_rows(engine.timeline, owners),
        _canon(engine.snapshot()),
        _evaluator_rows(evaluator),
        tuple(_evaluator_rows(sub) for sub in subs),
        _canon(outputs),
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _make(kind, problem, neighborhood):
    if kind == "fleet":
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=DEVICES)
        assert evaluator.peer_routing
        return evaluator
    return GPUEvaluator(problem, neighborhood)


def _run_records(result):
    return [
        (
            r.best_fitness,
            r.iterations,
            r.evaluations,
            r.stopping_reason,
            r.simulated_time,
            r.best_solution,
        )
        for r in result
    ]


#: MultiStartRunner options of the runner-driven cells.
RUNNER_CELLS = {
    "delta": dict(algorithm="tabu", transfer_mode="delta"),
    # Device-resident tabu memory with aspiration.
    "reduced-tabu": dict(algorithm="tabu", transfer_mode="reduced"),
    # A tenure longer than the neighborhood: the on-device robust escape.
    "tabu-escape": dict(
        algorithm="tabu", transfer_mode="reduced", tenure=30, aspiration=False
    ),
    "first-improvement": dict(algorithm="first-improvement", transfer_mode="reduced"),
    "persistent": dict(algorithm="tabu", transfer_mode="persistent"),
    "rebalance": dict(
        algorithm="hill-climbing", transfer_mode="reduced", rebalance_every=3
    ),
}


@pytest.mark.parametrize(
    "cell,kind",
    [
        (cell, kind)
        for cell in sorted(RUNNER_CELLS)
        for kind in ("fleet", "single")
        # A single device has nothing to rebalance.
        if not (cell == "rebalance" and kind == "single")
    ],
)
def test_runner_cells(instance, cell, kind):
    problem, neighborhood = instance
    evaluator = _make(kind, problem, neighborhood)
    try:
        runner = MultiStartRunner(
            evaluator, max_iterations=ITERATIONS, **RUNNER_CELLS[cell]
        )
        outputs = _run_records(runner.run(seeds=list(range(REPLICAS))))
        digest = simulation_digest(evaluator, outputs)
    finally:
        evaluator.close()
    assert digest == EXPECTED[f"{cell}/{kind}"]


@pytest.mark.parametrize("kind", ["fleet", "single"])
def test_host_mask_cell(instance, kind):
    """Reduced steps with a host admissible mask, strict replica subsets,
    escape fetches and — on the fleet — one ``rebalance_resident``."""
    problem, neighborhood = instance
    size = neighborhood.size
    rng = np.random.default_rng(5)
    evaluator = _make(kind, problem, neighborhood)
    outputs = []
    try:
        current = rng.integers(0, 2, size=(REPLICAS, problem.n)).astype(np.int8)
        fitness = problem.evaluate_batch(current).astype(np.float64)
        last = np.full((REPLICAS, size), -(10**6), dtype=np.int64)
        evaluator.begin_search(current)
        for step in range(ITERATIONS):
            if step == 7 and kind == "fleet":
                active = np.ones(REPLICAS, dtype=bool)
                active[:4] = False
                outputs.append(evaluator.rebalance_resident(active=active))
            if step % 3 == 0:
                rows = np.arange(REPLICAS)
            else:
                count = int(rng.integers(2, REPLICAS))
                rows = np.sort(rng.choice(REPLICAS, size=count, replace=False))
            admissible = (step - last[rows]) > 6
            aspiration = fitness[rows] - 1.0
            if step % 2:
                # A fully tabu row without aspiration: the host escape.
                admissible[0] = False
                aspiration = None
            indices, fits = evaluator.evaluate_resident(
                rows,
                reduce="argmin",
                admissible=admissible,
                aspiration_fitness=aspiration,
            )
            blocked = indices < 0
            if blocked.any():
                indices = np.where(blocked, last[rows].argmin(axis=1), indices)
                fits = fits.copy()
                fits[blocked] = evaluator.fetch_fitnesses(rows[blocked], indices[blocked])
            outputs.append((rows, indices, fits))
            current[rows, indices] ^= 1
            fitness[rows] = fits
            last[rows, indices] = step
            evaluator.apply_deltas(rows, indices)
        outputs.append(current)
        digest = simulation_digest(evaluator, outputs)
    finally:
        evaluator.close()
    assert digest == EXPECTED[f"host-mask/{kind}"]


@pytest.mark.parametrize("reduce", [None, "argmin", "first-improvement", "tabu"])
def test_unordered_rows_cell(instance, reduce):
    """Fleet steps over shuffled replica ids, duplicates included: each
    device keeps the caller's order of its rows and results come back in
    the caller's order."""
    problem, neighborhood = instance
    rng = np.random.default_rng(3)
    evaluator = _make("fleet", problem, neighborhood)
    outputs = []
    try:
        current = rng.integers(0, 2, size=(REPLICAS, problem.n)).astype(np.int8)
        evaluator.begin_search(current)
        if reduce == "tabu":
            evaluator.init_tabu_memory(5)
        for step in range(12):
            rows = rng.permutation(REPLICAS)[: rng.integers(3, REPLICAS + 1)]
            if step % 4 == 3 and reduce != "tabu":
                rows = np.concatenate([rows, rows[:2]])
            fitness = problem.evaluate_batch(current[rows]).astype(np.float64)
            if reduce is None:
                fitnesses = evaluator.evaluate_resident(rows)
                indices = fitnesses.argmin(axis=1)
                outputs.append(fitnesses)
            elif reduce == "tabu":
                indices, fits = evaluator.evaluate_resident(
                    rows,
                    reduce="argmin",
                    tabu_iterations=np.full(rows.size, step),
                    aspiration_fitness=fitness - 1.0,
                )
                outputs.append((indices, fits))
            elif reduce == "argmin":
                admissible = rng.random((rows.size, neighborhood.size)) < 0.5
                indices, fits = evaluator.evaluate_resident(
                    rows, reduce="argmin", admissible=admissible,
                    aspiration_fitness=fitness - 2.0,
                )
                outputs.append((indices, fits))
            else:
                indices, fits = evaluator.evaluate_resident(
                    rows, reduce="first-improvement", thresholds=fitness
                )
                outputs.append((indices, fits))
            indices = np.where(indices < 0, 0, indices)
            movers, first = np.unique(rows, return_index=True)
            evaluator.apply_deltas(movers[::-1], indices[first][::-1])
            current[movers, indices[first]] ^= 1
        digest = simulation_digest(evaluator, outputs)
    finally:
        evaluator.close()
    assert digest == EXPECTED[f"unordered-{reduce}/fleet"]


def test_preempting_server_cell(instance):
    problem, neighborhood = instance
    jobs = poisson_trace(
        20,
        4000.0,
        rng=11,
        replicas=(1, 4),
        budget=(5, 30),
        priorities=(0, 0, 1),
        tenants=2,
    )
    evaluator = _make("fleet", problem, neighborhood)
    try:
        report = SolveServer(
            evaluator, capacity=8, transfer_mode="reduced"
        ).run_trace(jobs)
        assert report.preempted_jobs > 0
        outputs = [
            (
                record.spec.job_id,
                record.status,
                record.admitted,
                record.finished,
                record.preemptions,
                record.gpu_seconds,
                record.iterations,
                _run_records(record.results),
            )
            for record in report.records
        ]
        digest = simulation_digest(evaluator, [report.steps, report.busy_time, outputs])
    finally:
        evaluator.close()
    assert digest == EXPECTED["server/fleet"]


EXPECTED = {
    "delta/fleet": (
        "e4a73e32bc0089aaed6fed42a81c86ab0954aa7957574dce613a320c5ee185ac"
    ),
    "delta/single": (
        "427e94300663c64766ab118c06c4011c865427c83ad7d727c3d587cb3907a577"
    ),
    "first-improvement/fleet": (
        "4ab2cd254bfee36d51affd356b9f2e0a13b041a4d79bea28b770d5a30067e18d"
    ),
    "first-improvement/single": (
        "3b24eb6873531f1ed72de7f2d89523daab83ac1c61980652b66b21d88d44fdf0"
    ),
    "host-mask/fleet": (
        "90b04f761ce5366df51aebf5ba1b48f909723ae1ef2d1b16a7f59e274b6dd31f"
    ),
    "host-mask/single": (
        "c51f085a4cd2f2dcd078c30fd15df87e17077dac7e37ac4ebcab3d4347151481"
    ),
    "persistent/fleet": (
        "83eb5e983f1d7a308a48f588a9bf3ee4cd932f618ca69b8ddaa93a38c20a2eaa"
    ),
    "persistent/single": (
        "baa4de6d62cf048eac4ba7c8657974a2df194777804a67135ad16b6b260031c0"
    ),
    "rebalance/fleet": (
        "197eb79e3d7b1559ff1921939366d61cc175b97405d1b838c3cb57964de7d85a"
    ),
    "reduced-tabu/fleet": (
        "9f191ac0002488e27fe64f0cbd2e782820ff92a5406ca2c955418bc61350abf2"
    ),
    "reduced-tabu/single": (
        "bebb39a46d9f707c6e69e58784691ec4868ba5471e7fa2a9ba99caae96101de7"
    ),
    "server/fleet": (
        "edd25a0f46b6681a35dd5a6846e8221e5791f1af9a1e4eac1bc6341c0103b162"
    ),
    "tabu-escape/fleet": (
        "a842e59edaec54d71d7fff8cf180ff643ba92390b6285260464e0ae185b42089"
    ),
    "tabu-escape/single": (
        "bae356cef5867bd3d5ac09c05c82980485dedcafa251f38328d5286ce52e3a7d"
    ),
    "unordered-None/fleet": (
        "814cf3da78796c25a76bd19f4626b4a3d987bb5b379381cf049b012ff46e0c2b"
    ),
    "unordered-argmin/fleet": (
        "b265471d6c4b60d0b5b8ba1fb6d06ce2dad191a1ffccd519c12621eb98dd7d8d"
    ),
    "unordered-first-improvement/fleet": (
        "a88ec538f61d20cb18d0e531ff8de3902cce77ad97a10dc85982dbc83f764e86"
    ),
    "unordered-tabu/fleet": (
        "1b5e9850aba50b9cc917733a298977f37481cfa4b41811b995727eaf448d8896"
    ),
}
