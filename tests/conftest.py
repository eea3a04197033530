import ast
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hjdirac.dynamics import HamiltonianModel
from hjdirac.geometry import eval_poly, poly_partials


# Two oracle models the tests build: H = p.p / 2, whose canonical flow is a
# straight line at constant momentum, and the 1-D oscillator in x1, whose
# x1 is cos(omega s) from x1 = 1 at rest. Their callables take one state
# y = (x0, x1, x2, x3, p0, p1, p2, p3).

def quadratic_model():
    def h(y):
        _, _, _, _, p0, p1, p2, p3 = y
        return 0.5 * (p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3)

    def dh_dx(y):
        return 0.0, 0.0, 0.0, 0.0

    def dh_dp(y):
        _, _, _, _, p0, p1, p2, p3 = y
        return p0, -p1, -p2, -p3

    return HamiltonianModel(h, dh_dx, dh_dp)


def harmonic_model(omega=1.0):
    omega_sq = omega ** 2

    def h(y):
        _, x1, _, _, _, p1, _, _ = y
        return 0.5 * (p1 * p1) + 0.5 * omega_sq * (x1 * x1)

    def dh_dx(y):
        return 0.0, omega_sq * y[1], 0.0, 0.0

    def dh_dp(y):
        return 0.0, y[5], 0.0, 0.0

    return HamiltonianModel(h, dh_dx, dh_dp)


class TermListMetric:
    """A metric with off-diagonal entries, for the routines that take any
    metric (tetrad_at, christoffel_at), which no metric kind is: dim,
    matrix(x) and dg(x), the partials d_lambda g_{mu nu}, from a square
    matrix of term lists, each entry evaluated by eval_poly and
    differentiated term by term by poly_partials, and both symmetrized as
    0.5 * (m + m^T) (exact when the term lists are symmetric). A stack of
    points (..., dim) is read one point at a time."""

    def __init__(self, entries):
        self.entries = entries
        self.dim = len(entries)

    def matrix(self, x):
        if np.ndim(x) > 1:
            return np.array([self.matrix(p) for p in x])
        out = np.array([[eval_poly(t, x) for t in row] for row in self.entries])
        return 0.5 * (out + out.T)

    def dg(self, x):
        if np.ndim(x) > 1:
            return np.array([self.dg(p) for p in x])
        out = np.array([[[eval_poly(poly_partials(t, self.dim)[lam], x) for t in row]
                         for row in self.entries] for lam in range(self.dim)])
        return 0.5 * (out + out.transpose(0, 2, 1))


def src_env(**extra):
    """os.environ, with this checkout's src/ first on PYTHONPATH and extra
    set, for a child Python that must import this hjdirac."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src, **extra)


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


def loop_calls(source):
    """The names called in the one for loop of a compiled run's source, a
    raise's exception class among them."""
    loop, = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)]
    return {ast.unparse(node.func) for statement in loop.body for node in ast.walk(statement)
            if isinstance(node, ast.Call)}
