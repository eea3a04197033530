"""Metrics, local tetrads, Christoffel symbols, and chart-adapted gammas.

All metrics carry signature (+, -, ..., -) with the timelike direction first.
Points are plain float arrays in chart coordinates. Polynomial entries in JSON
configs are term lists [[coeff, [e0, e1, ...]], ...] meaning
sum(coeff * prod(x_i**e_i)); no string expressions are evaluated.
"""

from functools import partial

import numpy as np

from .clifford import ETA_DIAG, GAMMAS
from .config import METRIC, parse
from .errors import BadSignature, SingularJacobian, SingularMetric, UsageError

__all__ = [
    "MetricField",
    "TetradFrame",
    "CoordinateChart",
    "minkowski_metric",
    "polar_metric",
    "diagonal_metric",
    "metric_from_config",
    "polar_chart",
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
    """A metric given by a callable x -> symmetric (dim, dim) matrix and
    dg(x) -> array (dim, dim, dim) of its partials d_lambda g_{mu nu} in
    closed form, which christoffel_at and the covariant flow read. A
    diagonal metric gives diag(x) -> its dim entries and partials, the
    (lambda, a, a, x -> d_lambda g_aa) of its nonzero partials in order of
    a, from which g, dg and inverse_diag follow.
    """

    def __init__(self, g=None, dim=4, *, dg=None, diag=None, partials=None):
        if diag is not None:
            def g(x):
                return np.diag(np.array(diag(x), dtype=float))
            dg = _dg_of(partials, dim)
        self.g = g
        self.dim = dim
        self.dg = dg
        self.diag = diag
        self.partials = partials

    def matrix(self, x):
        out = np.asarray(self.g(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.dim, self.dim):
            raise UsageError(f"metric returned shape {out.shape}, expected ({self.dim}, {self.dim})")
        return out

    def inverse_diag(self, x):
        """A diagonal metric's 1 / g_aa at x, in Python floats, raising
        np.linalg.inv's LinAlgError("Singular matrix") on a zero entry."""
        d = self.diag(x)
        if not all(d):
            raise np.linalg.LinAlgError("Singular matrix")
        return [1.0 / v for v in d]


def minkowski_metric(dim=4):
    # the entries are listed per call, so a dim too large for memory is
    # refused by the caller's check of x0 against it, before any is listed
    return MetricField(dim=dim, diag=lambda x: [1.0] + [-1.0] * (dim - 1), partials=[])


def polar_metric(dim=4):
    """diag(1, -1, -r^2[, -1]) in coordinates (t, r, theta[, z])."""
    if dim not in (3, 4):
        raise UsageError("polar metric supports dim 3 or 4")

    def diag(x):
        return [1.0, -1.0, -float(x[1]) ** 2] + ([-1.0] if dim == 4 else [])

    return MetricField(dim=dim, diag=diag,
                       partials=[(1, 2, 2, lambda x: -2.0 * float(x[1]))])


def _termwise_partials(indexed_terms, dim):
    """(lam, i, j, x -> d_lam of the term list at (i, j)) for the
    ((i, j), terms) pairs given, in their order; partials that are the empty
    term list are dropped up front, so no known zero is evaluated."""
    return [(lam, i, j, partial(eval_poly, part)) for (i, j), terms in indexed_terms
            for lam, part in enumerate(poly_partials(terms, dim)) if part]


def _dg_of(partials, dim):
    """dg(x) with dg[lam, i, j] from the (lam, i, j, part) given, zero elsewhere."""
    def dg(x):
        out = np.zeros((dim, dim, dim))
        for lam, i, j, part in partials:
            out[lam, i, j] = part(x)
        return out

    return dg


def diagonal_metric(entry_polys):
    dim = len(entry_polys)

    def diag(x):
        return [eval_poly(p, x) for p in entry_polys]

    partials = _termwise_partials((((a, a), p) for a, p in enumerate(entry_polys)), dim)
    return MetricField(dim=dim, diag=diag, partials=partials)


def metric_from_config(cfg):
    cfg = parse(METRIC, cfg, "metric")
    if cfg["kind"] == "minkowski":
        return minkowski_metric(cfg["dim"])
    if cfg["kind"] == "polar":
        return polar_metric(cfg["dim"])
    if cfg["kind"] == "diagonal":
        return diagonal_metric(cfg["entries"])
    # custom-polynomial: a full matrix of term lists
    entries = cfg["entries"]
    dim = len(entries)

    def g(x):
        out = np.empty((dim, dim))
        for i in range(dim):
            for j in range(dim):
                out[i, j] = eval_poly(entries[i][j], x)
        return 0.5 * (out + out.T)

    raw_dg = _dg_of(_termwise_partials((((i, j), entries[i][j]) for i in range(dim)
                                        for j in range(dim)), dim), dim)

    def dg(x):  # symmetrized exactly as g is
        out = raw_dg(x)
        return 0.5 * (out + out.transpose(0, 2, 1))

    return MetricField(g, dim=dim, dg=dg)


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
    """Gamma^mu_{nu lambda} from the metric, symmetric in (nu, lambda).

    The partials are the metric's dg. Raises SingularMetric when cond(g)
    exceeds 1e12.
    """
    gx = metric.matrix(x)
    if np.linalg.cond(gx) > COND_GUARD:
        raise SingularMetric(f"cond(g) = {np.linalg.cond(gx):.3e} at x = {np.asarray(x).tolist()}")
    ginv = np.linalg.inv(gx)
    dg = metric.dg(np.asarray(x, dtype=float))
    # one sigma term at a time: each entry sums in the order of the index formula
    gamma = np.zeros((metric.dim,) * 3)
    for sig in range(metric.dim):
        d = dg[:, sig, :]  # d[nu, lam] = d_nu g_{sig lam}
        gamma += ginv[:, sig, None, None] * (d + d.T - dg[sig])
    return 0.5 * gamma


class CoordinateChart:
    """A 4-dimensional chart of the flat reference frame, given by its
    Jacobian in closed form:
    jacobian(x_chart) -> J[a, mu] = d(reference^a)/d(chart^mu).
    """

    def __init__(self, jacobian):
        self._jacobian = jacobian

    def jacobian_matrix(self, x):
        return np.asarray(self._jacobian(np.asarray(x, dtype=float)), dtype=float)


def polar_chart():
    """The Jacobian of (t, r, theta, z) -> (t, r cos theta, r sin theta, z)."""

    def jacobian(x):
        _, r, th, _ = x
        return np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, np.cos(th), -r * np.sin(th), 0.0],
            [0.0, np.sin(th), r * np.cos(th), 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])

    return CoordinateChart(jacobian)


def chart_metric(chart, x):
    """Metric induced on the chart by the flat reference: g = J^T eta J."""
    jac = chart.jacobian_matrix(x)
    return jac.T @ np.diag(ETA_DIAG) @ jac


def covariant_gamma(chart, x):
    """Chart-adapted gamma matrices gamma~^mu = (d chart^mu / d ref^a) gamma^a.

    They satisfy {gamma~^mu, gamma~^nu} = 2 g^{mu nu} I for the induced
    inverse metric. Raises SingularJacobian when the chart Jacobian is
    numerically singular at x.
    """
    jac = chart.jacobian_matrix(x)
    det = np.linalg.det(jac)
    if abs(det) < 1e-12 or np.linalg.cond(jac) > COND_GUARD:
        raise SingularJacobian(f"chart Jacobian det = {det:.3e} at x = {np.asarray(x).tolist()}")
    jinv = np.linalg.inv(jac)  # jinv[mu, a] = d(chart^mu)/d(ref^a)
    gammas = [sum(jinv[mu, a] * GAMMAS[a] for a in range(4)) for mu in range(4)]
    ginv = jinv @ np.diag(ETA_DIAG) @ jinv.T
    return gammas, ginv
