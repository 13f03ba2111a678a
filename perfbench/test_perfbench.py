"""The benchmark's own checks.

Run from the repository root::

    python3 -m pytest perfbench -q

They keep ``BENCHMARK.json`` in step with the metric catalogue, check that
every layer a workload is meant to exercise records calls when traced (on
shrunken copies of the workloads, so the suite runs in seconds), that
tracing leaves the outputs unchanged, and that the pinned goldens agree
with each other.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from run import GOLDEN_DIR, WORKLOAD_NAMES  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_catalogue(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(WORKLOAD_NAMES)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER] + list(WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m.unit) for m in metrics.END_TO_END + metrics.PER_LAYER)
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_list_metrics_prints_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--list-metrics"],
        capture_output=True, text=True, check=True,
    ).stdout
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        assert re.search(rf"^{re.escape(m.name)}\s+{re.escape(m.unit)}\s", out, re.M), m.name


def test_benchmark_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lockstep_1gpu", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a traced pass takes well under a second."""
    monkeypatch.setattr(workloads, "PPP_TRIALS", 3)
    monkeypatch.setattr(workloads, "PPP_ITERATIONS", 4)
    monkeypatch.setattr(workloads, "SERVE_JOBS", 40)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_covers_every_layer_it_is_meant_to(small, name):
    workload = workloads.WORKLOADS[name]
    recorder = tracing.Tracer(name)
    inputs = recorder.trace("setup", workload.prepare, 5)
    untraced = workload.run_pass(inputs)
    traced = recorder.trace("pass", workload.run_pass, inputs)
    assert tracing.coverage_gaps(recorder.calls(), workload.required_calls) == []
    # Tracing must not change the program: identical outputs, sim metrics
    # and counters.
    assert traced.digest() == untraced.digest()
    # Self times partition the traced wall: nothing counted twice.
    table = recorder.layer_table()["pass"]
    self_sum = sum(layer["self_s"] for layer in table["layers"].values())
    assert self_sum == pytest.approx(table["traced_s"], rel=1e-6)
    assert table["traced_s"] <= table["wall_s"]


def test_engine_served_fraction_is_reported_per_workload(small):
    served = {}
    for name in ("lockstep_1gpu", "lockstep_4gpu"):
        workload = workloads.WORKLOADS[name]
        recorder = tracing.Tracer(name)
        inputs = workload.prepare(1)
        recorder.trace("pass", workload.run_pass, inputs)
        calls = recorder.calls()[("problems.engine", "GainEngine.try_evaluate")]
        served[name] = recorder.phases[0].counts.get("engine_served", 0) / calls
    assert served["lockstep_1gpu"] == 1.0
    # Multi-GPU shards decline today; reported, not asserted.
    assert 0.0 <= served["lockstep_4gpu"] <= 1.0


def test_tracer_rebinds_names_imported_with_from_and_restores_them():
    from repro.core import selection
    from repro.localsearch import tabu

    original = tabu.best_admissible_move
    assert original is selection.best_admissible_move
    recorder = tracing.Tracer("rebind")
    recorder.install()
    try:
        assert tabu.best_admissible_move is not original
        assert tabu.best_admissible_move is selection.best_admissible_move
    finally:
        recorder.uninstall()
    assert tabu.best_admissible_move is original


def test_step_times_split_runner_spans_at_each_evaluation(small):
    workload = workloads.WORKLOADS["lockstep_1gpu"]
    inputs = workload.prepare(2)
    recorder = tracing.Tracer("steps")
    result = recorder.trace("pass", workload.run_pass, inputs)
    steps = recorder.step_times_ms("pass")
    assert len(steps) == workloads.PPP_ITERATIONS
    assert sum(steps) <= result.wall_s * 1e3


def test_pinned_goldens_agree_across_the_ppp_workloads():
    pinned = {
        name: json.loads((GOLDEN_DIR / f"{name}.json").read_text())["seeds"]
        for name in WORKLOAD_NAMES
    }
    assert all(pinned.values())
    ppp = ("paper_serial", "lockstep_1gpu", "lockstep_4gpu")
    seeds = set.intersection(*(set(pinned[name]) for name in ppp))
    assert seeds
    for seed in seeds:
        items = [pinned[name][seed]["items"] for name in ppp]
        assert items[0] == items[1] == items[2], seed
        assert len({pinned[name][seed]["sim"]["acceleration"] for name in ppp}) == 1
    for entries in pinned.values():
        for entry in entries.values():
            assert re.fullmatch(r"[0-9a-f]{64}", entry["outputs_sha256"])
            assert entry["counters"]["kernel_launches"] > 0


def test_golden_pins_one_seed_exactly():
    """A full-size pass of the cheapest workload reproduces its golden."""
    name = "lockstep_1gpu"
    pinned = json.loads((GOLDEN_DIR / f"{name}.json").read_text())["seeds"]
    seed = min(pinned, key=int)
    workload = workloads.WORKLOADS[name]
    result = workload.run_pass(workload.prepare(int(seed)))
    assert result.pinned() == {key: pinned[seed][key] for key in result.pinned()}
