"""Fixtures shared by the test modules."""

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
