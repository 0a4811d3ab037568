"""Thread counts of the two OpenBLAS builds: scipy's pinned, numpy's read.

scipy's wheels link ``scipy.linalg._flapack`` against their own OpenBLAS,
which serves the QR, Cholesky and triangular solves.  Its default of one
thread per core oversubscribes the machine once Monte Carlo cells run in
worker processes, and the small matrices of one test or replication gain
nothing from threading; pinning it leaves every output bitwise unchanged.
``cli.main`` holds the pin around every command, and ``run_mc`` takes it
again (with a pool initializer for its workers) for library callers; a nested
pin is harmless, because each level restores the count it found.  Library
calls outside ``run_mc`` keep the process's own setting.

numpy's separate OpenBLAS build serves the matrix products.  It is never
set, because pinning it moves the statistics' low bits; ``run_mc`` only reads
its thread count, to start no more worker processes than it leaves cores for.

The thread functions are looked up through the extension modules, so the
dynamic linker finds them in whichever OpenBLAS each one loaded; a build on
another BLAS or LAPACK exports none, and the pin (or the read) then does
nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

# numpy's thread query: the numpy 2.x wheels' name first, then numpy 1.x's
NUMPY_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_")


@functools.lru_cache(maxsize=None)
def _library(path: str) -> ctypes.CDLL:
    """The loaded shared object at ``path``, wrapped once per process.

    Every ``ctypes.CDLL`` instance defines its own function-pointer class, a
    reference cycle; wrapping once keeps a command from leaving such garbage.
    """
    return ctypes.CDLL(path)


def _thread_functions():
    """(get, set) for the thread count of scipy's OpenBLAS, or None when absent."""
    from scipy.linalg import _flapack

    lib = _library(_flapack.__file__)
    try:
        get_threads = lib.scipy_openblas_get_num_threads
        set_threads = lib.scipy_openblas_set_num_threads
    except AttributeError:
        return None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    return get_threads, set_threads


def numpy_blas_threads():
    """Thread count of numpy's OpenBLAS, or None when it exports no thread query."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath

    lib = _library(_multiarray_umath.__file__)
    for name in NUMPY_THREAD_QUERIES:
        try:
            get_threads = getattr(lib, name)
        except AttributeError:
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        return get_threads()
    return None


@contextlib.contextmanager
def single_threaded_lapack():
    """Run the body with scipy's LAPACK on one thread, then restore the previous count.

    Yields True when the pin is in place and False when scipy's LAPACK
    exports no thread control, in which case nothing is changed.
    """
    functions = _thread_functions()
    if functions is None:
        yield False
        return
    get_threads, set_threads = functions
    previous = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(previous)


def pin_worker_lapack():
    """Process-pool initializer: one LAPACK thread for the life of the worker."""
    functions = _thread_functions()
    if functions is not None:
        functions[1](1)
