"""One BLAS thread per worker process.

A worker forked after NumPy loaded inherits OpenBLAS's thread count,
every core, so N workers would run N × cores threads and thrash.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["limit_blas_threads"]

#: ``(set, get)`` symbols: the scipy-openblas NumPy wheels ship, plain
#: OpenBLAS (64- and 32-bit interfaces), MKL
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)
#: an explicit setting of any of these is the user's and wins
_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loaded_blas():
    """``(set, get)`` of the BLAS NumPy loaded (found through the Linux
    ``/proc/self/maps``), or ``None``."""
    import numpy  # noqa: F401 — loads the BLAS

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "/" in line}
    except OSError:
        return None
    for path in sorted(p for p in paths if "blas" in p.lower() or "mkl" in p.lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def limit_blas_threads() -> None:
    """Run this worker process's BLAS on one thread, through ``ctypes``.

    A no-op when a thread variable in ``_ENV`` is set or no known BLAS
    is loaded. Inline runs never call it and keep every core.
    """
    if not any(name in os.environ for name in _ENV):
        blas = _loaded_blas()
        if blas is not None:
            blas[0](1)
