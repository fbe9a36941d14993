"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates on top of what is live before it."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture()
def traced_peak():
    """``traced_peak(fn, *args)``: the peak bytes of one call, by tracemalloc."""
    return _traced_peak
