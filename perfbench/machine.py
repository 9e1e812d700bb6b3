"""Facts about the machine and libraries a result was measured with."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

# numpy's bundled OpenBLAS, then a system OpenBLAS
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads(lib_dirs: list[Path]) -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its own API."""
    for directory in lib_dirs:
        for lib in sorted(directory.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in _THREAD_SYMBOLS:
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib_dirs = [Path(np.__file__).resolve().parent.parent / "numpy.libs"]
    if blas.get("lib directory"):
        lib_dirs.append(Path(blas["lib directory"]))
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(lib_dirs),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
