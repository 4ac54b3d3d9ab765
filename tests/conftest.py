"""Shared fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` and returns ``(result, peak)``, where
    ``peak`` is the most memory, in bytes, that was allocated and not yet
    freed at any point during the call, as tracemalloc counts it.  NumPy
    reports its data buffers to tracemalloc, so the peak of an array-building
    call is exact and repeats from run to run."""

    def measure(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        return result, peak

    return measure
