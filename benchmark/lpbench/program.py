"""Locating the program under test and recording the environment it runs in.

The benchmark builds nothing: lpcore is pure Python and is imported from
the checkout's ``src/`` directory, never from an installed copy.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"


class ProgramMissing(RuntimeError):
    """The checkout holds no lpcore sources to benchmark."""


def load_lpcore():
    """Import lpcore from ``src/`` of this checkout; refuse any other copy."""
    package = SRC / "lpcore"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no lpcore sources under {package}")
    sys.path.insert(0, str(SRC))
    import lpcore

    if Path(lpcore.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported lpcore from {lpcore.__file__}, not from {package}")
    return lpcore


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def evaluate_threads() -> int:
    """Thread count `lpcore evaluate` resolves with the current environment.

    Uses the program's own resolver while it exists; a program without one
    evaluates serially.
    """
    from lpcore import cli

    resolver = getattr(cli, "_max_workers", None)
    return int(resolver()) if resolver is not None else 1


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS would use, read from the loaded library."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "evaluate_threads": evaluate_threads(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }
