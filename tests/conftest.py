"""Keep each test's numbers independent of the tests that ran before it.

Once started, ``gcn._pool`` holds numpy's OpenBLAS to one thread for the rest of
the process, and OpenBLAS may round a small graph's products differently on one
thread than on several. After a test that started the pool, the fixture below
shuts it down and gives OpenBLAS back the thread count it had at import.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from modcluster import gcn

_POOL = gcn._pool  # the cached function itself, whatever a test patched in its place


def _openblas_threads():
    """The getter and setter of numpy's OpenBLAS thread count, found in numpy.libs as
    ``gcn._pool`` finds the setter, or None without them."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            blas = ctypes.CDLL(str(lib))
        except OSError:
            continue
        get = getattr(blas, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(blas, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_OPENBLAS = _openblas_threads()
_THREADS = _OPENBLAS[0]() if _OPENBLAS else None


@pytest.fixture(autouse=True)
def stop_the_pool():
    yield
    if _POOL.cache_info().currsize:
        pool = _POOL()
        if pool is not None:
            pool.shutdown()
        _POOL.cache_clear()
        if _OPENBLAS:
            _OPENBLAS[1](_THREADS)
