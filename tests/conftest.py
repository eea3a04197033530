import os
import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(fn) calls fn() and returns (its result, the peak bytes
    tracemalloc saw allocated during the call)."""
    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test, every helper process a test forked has been reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
