"""Metrics, local tetrads, Christoffel symbols, and chart-adapted gammas.

All metrics carry signature (+, -, ..., -) with the timelike direction first.
Points are plain float arrays in chart coordinates. Polynomial entries in JSON
configs are term lists [[coeff, [e0, e1, ...]], ...] meaning
sum(coeff * prod(x_i**e_i)); no string expressions are read. Every metric
kind, minkowski and polar too, is built from term lists, which it compiles
once, with their term-wise partials, in eval_poly's order, from their numbers.
"""

from functools import partial

import numpy as np

from ._util import Tape, Traced
from .clifford import ETA_DIAG, GAMMAS
from .config import METRIC, parse
from .errors import BadSignature, SingularJacobian, SingularMetric, UsageError

__all__ = [
    "MetricField",
    "TetradFrame",
    "minkowski_metric",
    "polar_metric",
    "diagonal_metric",
    "metric_from_config",
    "polar_jacobian",
    "tetrad_at",
    "christoffel_at",
    "covariant_gamma",
    "chart_metric",
    "eval_poly",
    "poly_partials",
]

COND_GUARD = 1e12


def eval_poly(terms, x):
    """The value, a float, of a polynomial term list [[coeff, [exponents...]],
    ...] at one point x, computed in Python floats: a list's entries as they
    are, a 1-D array's read through tolist()."""
    coords = x if isinstance(x, list) else np.asarray(x, dtype=float).tolist()
    total = 0.0
    for coeff, exps in terms:
        term = float(coeff)
        for xi, ei in zip(coords, exps):
            if ei:
                term *= xi ** int(ei)
        total += term
    return total


def _coordinates(x):
    """(the stack's shape, the coordinates) of a point x (dim,) or a stack of
    points (..., dim), as the compiled polynomials read them: dim Python
    floats for a point, dim object arrays of them for a stack. So each entry
    of a stack is the Python float operations of its point alone, x ** e by
    Python's pow too, with their bits and their OverflowError."""
    x = np.asarray(x, dtype=float)
    return x.shape[:-1], list(np.moveaxis(x, -1, 0).astype(object))


def _compiled(values, dim):
    """x -> values(xs), compiled once as straight-line code from one trace
    of values, which maps the dim Traced coordinates xs to eval_poly's
    result or a list of them. Like eval_poly, it reads a list x as it is and
    any other point through np.asarray(x, float).tolist()."""
    tape = Tape()
    tape.head.append("x = x if isinstance(x, list) else asarray(x, float).tolist()")
    return tape.compile("f(x)", values([Traced(tape, "x[%d]" % i) for i in range(dim)]),
                        "<metric polynomials>")


def poly_partials(terms, dim):
    """The term lists of d_a of a polynomial term list, one per axis a < dim,
    differentiated term by term: c x^e becomes (c e_a) x^(e - 1_a). Like
    eval_poly, it reads each coefficient as float(c) and exponent as int(e)."""
    partials = []
    for a in range(dim):
        part = []
        for coeff, exps in terms:
            e = int(exps[a]) if a < len(exps) else 0
            if e:
                reduced = list(exps)
                reduced[a] = e - 1
                part.append([float(coeff) * e, reduced])
        partials.append(part)
    return partials


class MetricField:
    """A diagonal metric of dim entries: diag(x) -> its dim entries, and
    partials, the (lambda, a, x -> d_lambda g_aa) of its nonzero partials in
    order of a. matrix(x) -> the (..., dim, dim) metric and dg(x) -> the
    (..., dim, dim, dim) partials d_lambda g_{mu nu}, which christoffel_at
    and the covariant records read, follow from them, at a point x (dim,) or
    at each of a stack of points (..., dim).
    """

    def __init__(self, dim, diag, partials):
        self.dim = dim
        self.diag = diag
        self.partials = partials

    def matrix(self, x):
        shape, coords = _coordinates(x)
        out = np.zeros(shape + (self.dim,) * 2)
        for a, entry in enumerate(self.diag(coords)):
            out[..., a, a] = entry
        return out

    def dg(self, x):
        shape, coords = _coordinates(x)
        out = np.zeros(shape + (self.dim,) * 3)
        for lam, a, part in self.partials:
            out[..., lam, a, a] = part(coords)
        return out


def minkowski_metric(dim=4):
    """diag(1, -1, ..., -1) of dim entries, each a constant term list."""
    return diagonal_metric([[[1.0, []]]] + [[[-1.0, []]]] * (dim - 1))


def polar_metric(dim=4):
    """diag(1, -1, -r^2[, -1]) in coordinates (t, r, theta[, z])."""
    if dim not in (3, 4):
        raise UsageError("polar metric supports dim 3 or 4")
    return diagonal_metric([[[1.0, []]], [[-1.0, []]], [[-1.0, [0, 2]]], [[-1.0, []]]][:dim])


def _termwise_partials(entry_polys):
    """(lam, a, x -> d_lam of entry a's term list) for the diagonal entries
    in order of a, compiled; partials that are the empty term list are
    dropped up front, so no known zero is evaluated."""
    dim = len(entry_polys)
    return [(lam, a, _compiled(partial(eval_poly, part), dim))
            for a, terms in enumerate(entry_polys)
            for lam, part in enumerate(poly_partials(terms, dim)) if part]


def diagonal_metric(entry_polys):
    dim = len(entry_polys)
    diag = _compiled(lambda xs: [eval_poly(p, xs) for p in entry_polys], dim)
    return MetricField(dim, diag, _termwise_partials(entry_polys))


def metric_from_config(cfg):
    cfg = parse(METRIC, cfg, "metric")
    if cfg["kind"] == "minkowski":
        return minkowski_metric(cfg["dim"])
    if cfg["kind"] == "polar":
        return polar_metric(cfg["dim"])
    return diagonal_metric(cfg["entries"])


def _check_signature(gx):
    eigs = np.linalg.eigvalsh(gx)
    n_pos = int(np.sum(eigs > 0))
    n_neg = int(np.sum(eigs < 0))
    if n_pos != 1 or n_neg != len(gx) - 1:
        raise BadSignature(f"eigenvalue signs {np.sign(eigs).astype(int).tolist()}, expected one + rest -")


class TetradFrame:
    """Rows e[a] are frame vectors: e g e^T = eta at the construction point."""

    def __init__(self, e, x, residual):
        self.e = e
        self.x = np.asarray(x, dtype=float)
        self.residual = residual


def tetrad_at(metric, x):
    """Signature-aware Gram-Schmidt on the coordinate basis, timelike first.

    Returns a TetradFrame with residual ||e g e^T - eta||_max. Raises
    BadSignature when the metric eigenvalue signs are not (+, -, ..., -).
    """
    gx = metric.matrix(x)
    _check_signature(gx)
    dim = metric.dim
    eta_diag = np.array([1.0] + [-1.0] * (dim - 1))
    frame = np.zeros((dim, dim))
    for a in range(dim):
        w = np.zeros(dim)
        w[a] = 1.0
        for b in range(a):
            w = w - eta_diag[b] * (frame[b] @ gx @ w) * frame[b]
        n2 = w @ gx @ w
        if eta_diag[a] * n2 <= 0:
            raise BadSignature(f"basis vector {a} has squared norm {n2:.3e} of the wrong sign")
        frame[a] = w / np.sqrt(abs(n2))
    residual = float(np.abs(frame @ gx @ frame.T - np.diag(eta_diag)).max())
    return TetradFrame(frame, x, residual)


def christoffel_at(metric, x):
    """Gamma^mu_{nu lambda} from the metric, symmetric in (nu, lambda), at a
    point x (dim,) or at each of a stack of points (..., dim): (..., dim,
    dim, dim), each point's with the bits it has alone.

    The partials are the metric's dg. Raises SingularMetric when cond(g)
    exceeds COND_GUARD at a point, naming the first such point of the stack
    (in C order) and giving its flat index as the error's point.
    """
    gx = metric.matrix(x)
    cond = np.ravel(np.linalg.cond(gx))
    over = np.flatnonzero(cond > COND_GUARD)
    if over.size:
        i = int(over[0])
        raise SingularMetric("cond(g) = %.3e at x = %s" % (
            cond[i], np.reshape(x, (-1, metric.dim))[i].tolist()), point=i)
    ginv = np.linalg.inv(gx)
    dg = metric.dg(x)
    # one sigma term at a time: each entry sums in the order of the index formula
    gamma = np.zeros(dg.shape)
    for sig in range(metric.dim):
        d = dg[..., sig, :]  # d[..., nu, lam] = d_nu g_{sig lam}
        gamma += ginv[..., sig, None, None] * (d + np.swapaxes(d, -1, -2)
                                               - dg[..., sig, :, :])[..., None, :, :]
    return 0.5 * gamma


# A 4-dimensional chart of the flat reference frame is given by its Jacobian
# in closed form: jacobian(x_chart) -> J[a, mu] = d(reference^a)/d(chart^mu).

def polar_jacobian(x):
    """The Jacobian of (t, r, theta, z) -> (t, r cos theta, r sin theta, z)."""
    _, r, th, _ = x
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, np.cos(th), -r * np.sin(th), 0.0],
        [0.0, np.sin(th), r * np.cos(th), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def chart_metric(jacobian, x):
    """Metric induced on a chart by the flat reference: g = J^T eta J."""
    jac = jacobian(x)
    return jac.T @ np.diag(ETA_DIAG) @ jac


def covariant_gamma(jacobian, x):
    """Chart-adapted gamma matrices gamma~^mu = (d chart^mu / d ref^a) gamma^a.

    They satisfy {gamma~^mu, gamma~^nu} = 2 g^{mu nu} I for the induced
    inverse metric. Raises SingularJacobian when the chart Jacobian is
    numerically singular at x.
    """
    jac = jacobian(x)
    det = np.linalg.det(jac)
    if abs(det) < 1e-12 or np.linalg.cond(jac) > COND_GUARD:
        raise SingularJacobian(f"chart Jacobian det = {det:.3e} at x = {np.asarray(x).tolist()}")
    jinv = np.linalg.inv(jac)  # jinv[mu, a] = d(chart^mu)/d(ref^a)
    gammas = [sum(jinv[mu, a] * GAMMAS[a] for a in range(4)) for mu in range(4)]
    ginv = jinv @ np.diag(ETA_DIAG) @ jinv.T
    return gammas, ginv
