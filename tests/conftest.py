"""Shared fixtures."""

import tracemalloc
import warnings

import pytest

# When a property test fails, Hypothesis imports its patch writer,
# hypothesis.extra._patching, from inside pytest's report hook.  That module
# imports libcst, which can raise a DeprecationWarning from a dependency
# (mypy_extensions); the suite's error::DeprecationWarning filter turns it
# into an INTERNALERROR that ends the session before the remaining tests
# run.  Importing the module once here, with warnings ignored, leaves a
# failing property test to fail like any other.  Package code is still
# imported under the suite's filters.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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
