"""Thread-count control for the OpenBLAS library numpy is linked against.

numpy's ``@`` hands large products to OpenBLAS, which spreads them over a
thread per core.  A process that is itself one of several busy workers
(one fleet worker per core) oversubscribes the machine that way, so such
a worker pins BLAS to one thread.  The library is found through ``ctypes``
among the shared objects already mapped into this process; without an
OpenBLAS (another BLAS, or no ``/proc/self/maps``) the pin is a no-op.

Symbol resolution is memoized: resolving once in a parent process before
``fork`` leaves each child a single store or C call.
"""

from __future__ import annotations

import ctypes
import functools
from collections import namedtuple

__all__ = ["openblas", "pin_blas_to_one_thread"]

# (setter, getter) symbol pairs: the reference OpenBLAS build, then the
# 64-bit-integer build numpy's wheels ship as scipy-openblas.
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
)

# ``cpu_number`` is OpenBLAS's own thread-count variable (a C ``int``), or
# None when the build does not export it.
_OpenBLAS = namedtuple("_OpenBLAS", ["set_threads", "get_threads",
                                     "cpu_number"])


@functools.lru_cache(maxsize=None)
def openblas():
    """The loaded OpenBLAS's thread controls — ``set_threads``,
    ``get_threads`` and ``cpu_number`` — or ``None``.  Memoized: the first
    call resolves the symbols."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "blas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _SYMBOLS:
            if hasattr(library, setter) and hasattr(library, getter):
                set_threads = getattr(library, setter)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                get_threads = getattr(library, getter)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                try:
                    cpu_number = ctypes.c_int.in_dll(library,
                                                     "blas_cpu_number")
                except ValueError:
                    cpu_number = None
                return _OpenBLAS(set_threads, get_threads, cpu_number)
    return None


def pin_blas_to_one_thread():
    """Run OpenBLAS single-threaded in this process (no-op without it).

    Where the build exports OpenBLAS's count variable, this is a plain
    store to it.  The public setter first restarts the thread pool that
    ``fork`` shut down, and those idle threads spin for about 0.1 s in
    every freshly forked worker, slowing its start-up.
    """
    blas = openblas()
    if blas is None:
        return
    if blas.cpu_number is not None:
        blas.cpu_number.value = 1
    else:
        blas.set_threads(1)
