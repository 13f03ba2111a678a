"""Packaging-level smoke tests: public API surface, module entry point, metadata."""

import subprocess
import sys

import pytest

import repro


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        ["mappings", "neighborhoods", "problems", "gpu", "core", "localsearch", "harness"],
    )
    def test_subpackage_all_exports_resolve(self, module):
        import importlib

        mod = importlib.import_module(f"repro.{module}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"repro.{module}.{name}"

    def test_one_liner_workflow(self):
        # The README's quickstart, condensed: the library must be usable in a
        # handful of lines end to end.
        from repro import CPUEvaluator, KHammingNeighborhood, PermutedPerceptronProblem, TabuSearch

        problem = PermutedPerceptronProblem.generate(15, 15, rng=0)
        result = TabuSearch(
            CPUEvaluator(problem, KHammingNeighborhood(15, 2)), max_iterations=50
        ).run(rng=0)
        assert result.iterations <= 50


class TestSingleBlasPool:
    def test_repro_imports_no_scipy(self):
        """The package runs one BLAS library, NumPy's: importing it must not
        pull in SciPy (whose own OpenBLAS would add a second thread pool)."""
        code = (
            "import sys\n"
            "import repro, repro.core, repro.service, repro.harness, repro.cli\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr


class TestModuleEntryPoint:
    def test_python_dash_m_repro_devices(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "devices"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "GTX 280" in completed.stdout

    def test_python_dash_m_repro_help(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        for command in ("tables", "figure8", "solve", "devices", "mapping"):
            assert command in completed.stdout
