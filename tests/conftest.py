import os
import tracemalloc

import pytest

from hjdirac.dynamics import HamiltonianModel


# Two oracle models the tests build: H = p.p / 2, whose canonical flow is a
# straight line at constant momentum, and the 1-D oscillator in x1, whose
# x1 is cos(omega s) from x1 = 1 at rest.

def quadratic_model():
    def h(x, p):
        return 0.5 * (p[0] * p[0] - p[1] * p[1] - p[2] * p[2] - p[3] * p[3])

    def dh_dx(x, p):
        return 0.0, 0.0, 0.0, 0.0

    def dh_dp(x, p):
        return p[0], -p[1], -p[2], -p[3]

    return HamiltonianModel(h, dh_dx, dh_dp)


def harmonic_model(omega=1.0):
    omega_sq = omega ** 2

    def h(x, p):
        return 0.5 * (p[1] * p[1]) + 0.5 * omega_sq * (x[1] * x[1])

    def dh_dx(x, p):
        return 0.0, omega_sq * x[1], 0.0, 0.0

    def dh_dp(x, p):
        return 0.0, p[1], 0.0, 0.0

    return HamiltonianModel(h, dh_dx, dh_dp)


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
