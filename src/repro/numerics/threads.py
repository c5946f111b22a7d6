"""One BLAS thread per compute slot.

A server runs ``slots`` kernels side by side, and the predictor rates
each slot at the server's per-processor speed.  The OpenBLAS NumPy ships
would also spread every kernel over its own thread pool, whose idle
threads busy-wait after each call: on a 2-vCPU host a 384x384 ``@``
issued every 9 ms costs 2.1 ms of wall but 13.3 ms of CPU with two BLAS
threads, against 3.4 ms of both with one.  So every process that runs
kernels on a compute pool pins the loaded BLAS to one thread, and the
slot count is the only parallelism.  The setting is process-wide: it
also covers any other BLAS call the process makes.

The library is found through ``/proc/self/maps`` and driven through its
``*set_num_threads*`` symbol with :mod:`ctypes`.  Where no supported
library is mapped (another BLAS, another OS) both functions report
``None`` -- "not controlled" -- and change nothing.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Optional

__all__ = ["SLOT_BLAS_THREADS", "blas_threads", "pin_blas_threads"]

#: BLAS threads each compute slot runs its kernel on
SLOT_BLAS_THREADS = 1

_MAPS = "/proc/self/maps"
#: (setter, getter) symbol pairs, most specific build first
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _find_blas():
    """The ``(set, get)`` functions of the mapped OpenBLAS, or ``None``."""
    import numpy  # noqa: F401 - maps the BLAS it links

    try:
        with open(_MAPS, encoding="utf-8", errors="replace") as fh:
            paths = sorted({
                line.split(None, 5)[-1].strip()
                for line in fh
                if "openblas" in line.lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def blas_threads() -> Optional[int]:
    """Threads the loaded BLAS runs a call on; ``None`` if not controlled."""
    found = _find_blas()
    return None if found is None else found[1]()


def pin_blas_threads(threads: int = SLOT_BLAS_THREADS) -> Optional[int]:
    """Set the loaded BLAS to ``threads``; return the count now in force.

    Idempotent and cheap once the library is found; ``None`` (and no
    change) when it is not controlled.
    """
    found = _find_blas()
    if found is None:
        return None
    setter, getter = found
    if getter() != threads:
        setter(threads)
    return getter()
