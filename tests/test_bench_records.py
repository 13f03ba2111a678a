"""Smoke runs of the bench scripts never overwrite the committed records.

Every ``benchmarks/bench_*.py`` that records a ``BENCH_*.json`` resolves its
destination through ``parse_args``: the committed file for a full run, the
git-ignored ``.bench_out/smoke/`` for ``--smoke``, and ``--json`` wherever
it points.  The scripts are imported, not run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
RECORDING = sorted(
    path
    for path in BENCH_DIR.glob("bench_*.py")
    if "BENCH_" in path.read_text() and "JSON_PATH" in path.read_text()
)


def load(path):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


def test_every_committed_record_has_a_recording_script():
    committed = {path.name for path in BENCH_DIR.glob("BENCH_*.json")}
    recorded = {load(path).JSON_PATH.name for path in RECORDING}
    assert committed <= recorded
    assert len(RECORDING) >= 8


@pytest.mark.parametrize("path", RECORDING, ids=lambda path: path.stem)
def test_smoke_run_writes_an_ignored_path(path, tmp_path):
    module = load(path)
    records = sys.modules["_records"]
    committed = module.JSON_PATH
    assert committed.parent == BENCH_DIR

    assert module.parse_args([]).json == committed
    smoke = module.parse_args(["--smoke"]).json
    assert smoke != committed
    assert smoke == records.SMOKE_DIR / committed.name
    assert smoke.resolve().is_relative_to(ROOT / ".bench_out")
    target = tmp_path / "artifacts" / "out.json"
    assert module.parse_args(["--smoke", "--json", str(target)]).json == target
    assert target.parent.is_dir()


def test_smoke_directory_is_git_ignored():
    ignored = (ROOT / ".gitignore").read_text().split()
    assert ".bench_out/" in ignored
