"""Fixtures shared by the test modules."""

import concurrent.futures
import contextlib

import pytest

from serieslm import _blas


@pytest.fixture
def lapack_threads():
    """scipy's LAPACK thread functions, with the count set to 3 for the test."""
    functions = _blas._thread_functions()
    if functions is None:
        pytest.skip("scipy's LAPACK exports no OpenBLAS thread control")
    get_threads, set_threads = functions
    before = get_threads()
    set_threads(3)
    yield get_threads
    set_threads(before)


@pytest.fixture
def serial_pool(monkeypatch):
    """ProcessPoolExecutor replaced by a pool that maps in this process.

    Yields the list of ``max_workers`` of every pool started.
    """
    started = []

    class SerialPool(contextlib.AbstractContextManager):
        def __init__(self, max_workers, initializer):
            started.append(max_workers)

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    yield started
