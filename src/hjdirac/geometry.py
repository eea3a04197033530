"""Metrics, local tetrads, Christoffel symbols, and chart-adapted gammas.

All metrics carry signature (+, -, ..., -) with the timelike direction first.
Points are plain float arrays in chart coordinates. Polynomial entries in JSON
configs are term lists [[coeff, [e0, e1, ...]], ...] meaning
sum(coeff * prod(x_i**e_i)); no string expressions are evaluated.
"""

import numpy as np

from ._util import central_difference, config_kind
from .clifford import ETA_DIAG
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
    "scaled_time_chart",
    "tetrad_at",
    "christoffel_at",
    "covariant_gamma",
    "chart_metric",
    "eval_poly",
]

COND_GUARD = 1e12
METRIC_FD_SCALE = 1e-5  # h_lambda = 1e-5 * max(1, |x_lambda|)
CHART_FD_SCALE = 1e-6


def eval_poly(terms, x):
    """Evaluate a polynomial term list [[coeff, [exponents...]], ...] at x.

    A single point (n,) gives a float; a stack of points (..., n) gives one
    value per point, also for a constant or empty list. A single point is
    evaluated in Python floats and a stack in numpy arrays: the two round
    x ** e differently, and each route keeps the bytes of its callers.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        coords, total = x.tolist(), 0.0
    else:
        coords, total = np.moveaxis(x, -1, 0), np.zeros(x.shape[:-1])
    for coeff, exps in terms:
        term = float(coeff)
        for xi, ei in zip(coords, exps):
            if ei:
                term *= xi ** int(ei)
        total += term
    return total


class MetricField:
    """A metric given by a callable x -> symmetric (dim, dim) matrix.

    Optional dg(x) -> array (dim, dim, dim) of partials d_lambda g_{mu nu}
    replaces the central-difference default in christoffel_at.
    """

    def __init__(self, g, dim=4, kind="custom", dg=None):
        self.g = g
        self.dim = dim
        self.kind = kind
        self.dg = dg

    def matrix(self, x):
        out = np.asarray(self.g(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.dim, self.dim):
            raise UsageError(f"metric returned shape {out.shape}, expected ({self.dim}, {self.dim})")
        return out


def minkowski_metric(dim=4):
    eta = np.diag(np.array([1.0] + [-1.0] * (dim - 1)))
    return MetricField(lambda x: eta.copy(), dim=dim, kind="minkowski",
                       dg=lambda x: np.zeros((dim, dim, dim)))


def polar_metric(dim=4):
    """diag(1, -1, -r^2[, -1]) in coordinates (t, r, theta[, z])."""
    if dim not in (3, 4):
        raise UsageError("polar metric supports dim 3 or 4")

    def g(x):
        entries = [1.0, -1.0, -float(x[1]) ** 2] + ([-1.0] if dim == 4 else [])
        return np.diag(np.array(entries))

    return MetricField(g, dim=dim, kind="polar")


def diagonal_metric(entry_polys, dim=None):
    dim = dim or len(entry_polys)

    def g(x):
        return np.diag(np.array([eval_poly(p, x) for p in entry_polys]))

    return MetricField(g, dim=dim, kind="diagonal")


# config keys each metric kind reads, besides "kind"
_METRIC_KEYS = {"minkowski": ("dim",), "polar": ("dim",),
                "diagonal": ("entries", "dim"), "custom-polynomial": ("entries",)}


def metric_from_config(cfg):
    kind = config_kind(cfg, _METRIC_KEYS, "metric")
    if kind == "minkowski":
        return minkowski_metric(int(cfg.get("dim", 4)))
    if kind == "polar":
        return polar_metric(int(cfg.get("dim", 4)))
    if kind == "diagonal":
        return diagonal_metric(cfg["entries"], cfg.get("dim"))
    # custom-polynomial: a full matrix of term lists
    entries = cfg["entries"]
    dim = len(entries)

    def g(x):
        out = np.empty((dim, dim))
        for i in range(dim):
            for j in range(dim):
                out[i, j] = eval_poly(entries[i][j], x)
        return 0.5 * (out + out.T)

    return MetricField(g, dim=dim, kind="custom-polynomial")


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


def _metric_partials(metric, x):
    """dg[lam] = d_lam g at x: the metric's own dg, else central differences."""
    x = np.asarray(x, dtype=float)
    if metric.dg is not None:
        return np.asarray(metric.dg(x), dtype=float)
    return central_difference(metric.matrix, x, METRIC_FD_SCALE)


def christoffel_at(metric, x):
    """Gamma^mu_{nu lambda} from the metric, symmetric in (nu, lambda).

    Partials are analytic when the metric provides dg, else central
    differences with step 1e-5 * max(1, |x^lambda|) per axis. Raises
    SingularMetric when cond(g) exceeds 1e12.
    """
    gx = metric.matrix(x)
    if np.linalg.cond(gx) > COND_GUARD:
        raise SingularMetric(f"cond(g) = {np.linalg.cond(gx):.3e} at x = {np.asarray(x).tolist()}")
    ginv = np.linalg.inv(gx)
    dg = _metric_partials(metric, x)
    # one sigma term at a time: each entry sums in the order of the index formula
    gamma = np.zeros((metric.dim,) * 3)
    for sig in range(metric.dim):
        d = dg[:, sig, :]  # d[nu, lam] = d_nu g_{sig lam}
        gamma += ginv[:, sig, None, None] * (d + d.T - dg[sig])
    return 0.5 * gamma


class CoordinateChart:
    """Map from chart coordinates to the flat reference frame.

    forward: chart -> reference, backward: reference -> chart,
    jacobian(x_chart) -> J[a, mu] = d(reference^a)/d(chart^mu); when jacobian
    is omitted it is built from forward by central differences.
    """

    def __init__(self, name, forward, backward, jacobian=None, dim=4):
        self.name = name
        self.forward = forward
        self.backward = backward
        self._jacobian = jacobian
        self.dim = dim

    def jacobian_matrix(self, x):
        x = np.asarray(x, dtype=float)
        if self._jacobian is not None:
            return np.asarray(self._jacobian(x), dtype=float)
        # C order: a matmul's rounding depends on its operands' memory layout
        return np.ascontiguousarray(central_difference(self.forward, x, CHART_FD_SCALE).T)


def polar_chart():
    """(t, r, theta, z) -> (t, r cos theta, r sin theta, z)."""

    def forward(x):
        t, r, th, z = x
        return np.array([t, r * np.cos(th), r * np.sin(th), z])

    def backward(x):
        t, cx, cy, z = x
        return np.array([t, np.hypot(cx, cy), np.arctan2(cy, cx), z])

    def jacobian(x):
        _, r, th, _ = x
        return np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, np.cos(th), -r * np.sin(th), 0.0],
            [0.0, np.sin(th), r * np.cos(th), 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])

    return CoordinateChart("polar", forward, backward, jacobian=jacobian)


def scaled_time_chart(factor):
    """Chart whose time coordinate is `factor` times the reference time."""
    scale = np.array([1.0 / factor, 1.0, 1.0, 1.0])

    def jacobian(x):
        return np.diag(scale)

    return CoordinateChart(f"scaled-time({factor})",
                           lambda x: np.asarray(x, float) * scale,
                           lambda x: np.asarray(x, float) / scale,
                           jacobian=jacobian)


def chart_metric(chart, x):
    """Metric induced on the chart by the flat reference: g = J^T eta J."""
    jac = chart.jacobian_matrix(x)
    return jac.T @ np.diag(ETA_DIAG[: chart.dim]) @ jac


def covariant_gamma(rep, chart, x):
    """Chart-adapted gamma matrices gamma~^mu = (d chart^mu / d ref^a) gamma^a.

    They satisfy {gamma~^mu, gamma~^nu} = 2 g^{mu nu} I for the induced
    inverse metric. Raises SingularJacobian when the chart Jacobian is
    numerically singular at x.
    """
    if chart.dim != 4:
        raise UsageError("covariant gammas need a 4-dimensional chart")
    jac = chart.jacobian_matrix(x)
    det = np.linalg.det(jac)
    if abs(det) < 1e-12 or np.linalg.cond(jac) > COND_GUARD:
        raise SingularJacobian(f"chart Jacobian det = {det:.3e} at x = {np.asarray(x).tolist()}")
    jinv = np.linalg.inv(jac)  # jinv[mu, a] = d(chart^mu)/d(ref^a)
    gammas = [sum(jinv[mu, a] * rep.gammas[a] for a in range(4)) for mu in range(4)]
    ginv = jinv @ np.diag(ETA_DIAG) @ jinv.T
    return gammas, ginv
