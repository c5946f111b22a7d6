"""The process-wide thread policy for kernels: one BLAS thread per
compute slot, and one interpreter lane for kernels that hold the GIL.

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

Slots buy parallelism only for kernels that spend their time in native
code with the GIL released.  On a 2-vCPU host, two slots halve the
wall time per 384x384 ``blas/dgemm`` (3.06 -> 1.52 ms).  Most of the
catalogue is Python loops over NumPy calls, and two such kernels in one
process convoy on the GIL: ``linsys/inverse`` n=64 plus ``sort/merge``
n=256 on two threads spend 5,075 us of CPU per pair instead of 3,543,
and take 4,242 us of wall instead of 3,543 (medians of 7 runs).  So
every kernel not registered as releasing the
GIL runs inside :data:`INTERPRETER_LANE`, one process-wide lock: a
second such kernel waits on the lock, asleep, instead of contending for
the interpreter.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from typing import Optional

__all__ = [
    "FREE_LANE", "INTERPRETER_LANE", "SLOT_BLAS_THREADS", "blas_threads",
    "pin_blas_threads",
]

#: BLAS threads each compute slot runs its kernel on
SLOT_BLAS_THREADS = 1

#: held while a kernel that keeps the GIL runs: at most one per process
INTERPRETER_LANE = threading.Lock()
if hasattr(os, "register_at_fork"):
    # a child forked while another thread runs a kernel (a ProcessPool
    # spawning beside thread slots) would inherit the lane held by a
    # thread it does not have, and deadlock on its first kernel
    os.register_at_fork(after_in_child=INTERPRETER_LANE._at_fork_reinit)
#: what a kernel that releases the GIL holds instead: nothing
FREE_LANE = contextlib.nullcontext()

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
