"""Machine context recorded with every benchmark record.

Host timings are only comparable between records taken under the same
context: core count, BLAS library and thread count, interpreter and library
versions, and every environment switch that changes the program's paths.
The BLAS thread count is *read* from NumPy's and SciPy's bundled OpenBLAS
through ``ctypes`` and never set, so the benchmark measures the user-default
threading.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)

#: Context keys whose difference makes two records incomparable.
COMPARED_KEYS = ("nproc", "blas", "python", "numpy", "scipy", "env")


def _bundled_openblas(package) -> list[Path]:
    """OpenBLAS shared objects that ship inside a wheel's ``<name>.libs``."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    return sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []


def _call(handle, names, restype):
    for name in names:
        fn = getattr(handle, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_info(package) -> dict:
    """Vendor, build config and thread count of a package's bundled OpenBLAS."""
    for path in _bundled_openblas(package):
        try:
            handle = ctypes.CDLL(str(path))
        except OSError:
            continue
        threads = _call(handle, _THREAD_SYMBOLS, ctypes.c_int)
        if threads is None:
            continue
        config = _call(handle, _CONFIG_SYMBOLS, ctypes.c_char_p)
        return {
            "vendor": "openblas",
            "library": path.name,
            "config": config.decode() if config else None,
            "threads": int(threads),
        }
    return {"vendor": "unknown", "library": None, "config": None, "threads": None}


def machine_context() -> dict:
    """Everything a host timing depends on besides the code itself."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads SciPy's BLAS)

    env = {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_") or key.endswith("_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas_info(numpy), "scipy": blas_info(scipy)},
        "env": env,
    }


def context_differences(context: dict, baseline: dict) -> list[str]:
    """Keys on which ``context`` differs from ``baseline`` (empty: comparable)."""
    return [key for key in COMPARED_KEYS if context.get(key) != baseline.get(key)]
