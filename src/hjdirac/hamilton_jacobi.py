"""Hamilton-Jacobi fields and their verification checks.

A field is its one-form dW = (dW/dt, dW/dx1, dW/dx2, dW/dx3) on events
x = (t, x1, x2, x3), in lower-index components and in closed form, and
optionally W(x) itself; the momentum is the spatial part and H = -dW/dt. A
field with no W is how counterexamples that are not gradients of anything
get checked.

Exactness is verified by two independent routes: antisymmetry of the mixed
partials of the one-form, and trapezoid loop integrals around random
axis-aligned rectangles.
"""

import numpy as np

from .clifford import ETA_DIAG, TOL_NULL
from ._util import central_difference
from .errors import (
    DomainBoundary,
    IllConditioned,
    NonMonotone,
    NonTimelikeSeparation,
    UsageError,
)

__all__ = [
    "Box",
    "HamiltonJacobiField",
    "ProjectileField",
    "HJReport",
    "ScaleReport",
    "PerpDecomposition",
    "loop_integral",
    "is_exact",
    "mass_shell_check",
    "scale_check",
    "construct_geodesic_W",
    "projectile_field",
    "curl_counterexample_field",
    "linearly_shifted",
    "decompose_parallel_perp",
]

TOL = 1e-8  # every exactness and scaling judgement
# is_exact's sample: closedness points, random rectangles and segments a side
N_POINTS, N_LOOPS, SEGMENTS = 40, 20, 4096


class Box:
    """Axis-aligned region lo <= x <= hi used for sampling and domain guards."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.hi <= self.lo):
            raise UsageError("box needs hi > lo on every axis")

    def sample(self, rng, n):
        return self.lo + rng.uniform(size=(n, 4)) * (self.hi - self.lo)


class HamiltonJacobiField:
    """one_form(x) -> dW and, optionally, value(x) -> W; both take one point
    (4,) or a stack of points (..., 4), so loop quadrature runs at array
    speed."""

    def __init__(self, one_form, value=None, m0=None, region=None, name="field"):
        self._value = value
        self._one_form = one_form
        self.m0 = m0
        self.region = region
        self.name = name

    # -- evaluation ---------------------------------------------------------

    def _guard(self, x):
        if self.region is None:
            return
        pts = np.asarray(x, dtype=float).reshape(-1, 4)
        slack = 1e-12
        bad = np.any(pts < self.region.lo - slack, axis=1) | np.any(pts > self.region.hi + slack, axis=1)
        if bad.any():
            p = pts[int(np.argmax(bad))]
            raise DomainBoundary(f"{p.tolist()} outside the field's region")

    def value(self, x):
        if self._value is None:
            raise UsageError(f"field {self.name!r} has no W, only a one-form")
        self._guard(x)
        return np.asarray(self._value(np.asarray(x, dtype=float)), dtype=float)

    def one_form(self, x):
        """dW components at x (or at a stack of points (..., 4))."""
        self._guard(x)
        return np.asarray(self._one_form(np.asarray(x, dtype=float)), dtype=float)

    def has_value(self):
        return self._value is not None


# -- exactness ---------------------------------------------------------------

def _closedness_residual(field, points):
    """max |d_a w_b - d_b w_a| over the sampled points, from central
    differences of the one-form (step 1e-5 * max(1, |x_a|))."""
    d = central_difference(field.one_form, points, 1e-5)  # d[a, ..., b] = d_a w_b
    return float(np.abs(d - np.swapaxes(d, 0, -1)).max())


def loop_integral(field, axes, corner, extents, segments=SEGMENTS):
    """Trapezoid integral of the one-form around an axis-aligned rectangle.

    The loop starts at `corner`, runs +axes[0], +axes[1], -axes[0], -axes[1]
    (positively oriented in the (axes[0], axes[1]) plane). Returns (value,
    scale) where scale = perimeter * max |one-form| on the loop.
    """
    a, b = axes
    corner = np.asarray(corner, dtype=float)
    ea, eb = np.zeros(4), np.zeros(4)
    ea[a], eb[b] = extents[0], extents[1]
    legs = [(corner, ea, a), (corner + ea, eb, b),
            (corner + ea + eb, -ea, a), (corner + eb, -eb, b)]
    total = 0.0
    peak = 0.0
    ts = np.linspace(0.0, 1.0, segments + 1)
    for start, step, axis in legs:
        pts = start[None, :] + ts[:, None] * step[None, :]
        comp = field.one_form(pts)
        peak = max(peak, float(np.abs(comp).max()))
        f = comp[:, axis] * step[axis]
        total += float((0.5 * f[0] + f[1:-1].sum() + 0.5 * f[-1]) / segments)
    perimeter = 2.0 * (abs(extents[0]) + abs(extents[1]))
    return total, perimeter * max(peak, 1e-300)


class HJReport:
    """Exactness verdict plus the residuals behind it."""

    def __init__(self, closedness_residual, max_loop_normalized, mass_shell_residual):
        self.closedness_residual = float(closedness_residual)
        self.max_loop_normalized = float(max_loop_normalized)
        self.mass_shell_residual = None if mass_shell_residual is None else float(mass_shell_residual)
        self.passed = bool(self.closedness_residual <= TOL
                           and self.max_loop_normalized <= TOL)


def is_exact(field, region=None, seed=0):
    """Exactness check: closedness residual at N_POINTS random points plus
    the integrals around N_LOOPS random rectangles.

    Loop values are normalized by perimeter * max|one-form| on the loop; the
    field passes when both routes sit at or below TOL. Deterministic for a
    fixed seed.
    """
    region = region or field.region
    if region is None:
        raise UsageError("is_exact needs a region (argument or field.region)")
    rng = np.random.default_rng(seed)
    scale = region.hi - region.lo
    # sample with a small inward margin so the closedness stencil stays in-region
    points = region.lo + (0.001 + 0.998 * rng.uniform(size=(N_POINTS, 4))) * scale
    closed = _closedness_residual(field, points)
    worst_norm = 0.0
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    for _ in range(N_LOOPS):
        a, b = pairs[rng.integers(len(pairs))]
        ext = rng.uniform(0.2, 0.9, size=2) * np.array([scale[a], scale[b]])
        corner = region.lo + rng.uniform(0.0, 1.0, size=4) * (region.hi - region.lo)
        corner[a] = region.lo[a] + rng.uniform(0, 1) * (scale[a] - ext[0])
        corner[b] = region.lo[b] + rng.uniform(0, 1) * (scale[b] - ext[1])
        value, loop_scale = loop_integral(field, (a, b), corner, ext)
        worst_norm = max(worst_norm, abs(value) / loop_scale)
    shell = None
    if field.m0 is not None:
        shell = mass_shell_check(field, points)
    return HJReport(closed, worst_norm, shell)


def mass_shell_check(field, points):
    """max |H^2 - |p|^2 - m0^2| / max(1, m0^2) over the points."""
    if field.m0 is None:
        raise UsageError("mass_shell_check needs a field with m0")
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    form = field.one_form(pts)
    h2 = form[:, 0] ** 2
    p2 = (form[:, 1:] ** 2).sum(axis=1)
    return float(np.abs(h2 - p2 - field.m0 ** 2).max() / max(1.0, field.m0 ** 2))


# -- reparameterization (scaling) -------------------------------------------

class ScaleReport:
    def __init__(self, exactness, inverse_max_err, w_range, passed):
        self.exactness = exactness      # HJReport of the transformed field
        self.inverse_max_err = inverse_max_err
        self.w_range = w_range
        self.passed = passed


def _invert_monotone(psi, y, lo, hi, increasing, tol=1e-13, max_iter=200):
    flo, fhi = psi(lo), psi(hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = psi(mid)
        if (fm < y) == increasing:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo < tol * max(1.0, abs(lo) + abs(hi)):
            break
    return 0.5 * (lo + hi)


def scale_check(field, psi, psi_prime, region=None, n_points=25, seed=0):
    """Reparameterization invariance: W* = psi(W) has one-form psi'(W) dW.

    Forward: the transformed field passes is_exact and its momentum / H are
    the psi'(W)-scaled originals. Inverse: W recovered from psi(W) by
    bisection matches W. Raises NonMonotone when psi' vanishes or changes
    sign on the needed range.
    """
    region = region or field.region
    if region is None:
        raise UsageError("scale_check needs a region")
    if not field.has_value():
        raise UsageError("scale_check needs a field with W values")
    rng = np.random.default_rng(seed)
    probe = region.sample(rng, max(n_points, 200))
    w_vals = np.atleast_1d(field.value(probe))
    w_lo, w_hi = float(w_vals.min()), float(w_vals.max())
    pad = 1e-6 * max(1.0, abs(w_lo), abs(w_hi)) + 0.05 * (w_hi - w_lo)
    grid = np.linspace(w_lo - pad, w_hi + pad, 512)
    dpsi = np.array([psi_prime(w) for w in grid])
    if np.any(dpsi > 0) and np.any(dpsi < 0) or np.abs(dpsi).min() < 1e-12:
        raise NonMonotone(f"psi' crosses zero on [{w_lo:.3g}, {w_hi:.3g}]")
    increasing = bool(dpsi[0] > 0)

    def scaled_value(x):
        return psi(field.value(x))

    def scaled_form(x):
        w = np.asarray(field.value(x), dtype=float)
        return np.asarray(psi_prime(w), dtype=float)[..., None] * field.one_form(x)

    transformed = HamiltonJacobiField(
        value=scaled_value, one_form=scaled_form, m0=None, region=region,
        name=f"psi({field.name})",
    )
    exactness = is_exact(transformed, region=region, seed=seed)

    # scaled momentum / H at sample points (componentwise identity)
    pts = probe[:n_points]
    base_form = field.one_form(pts)
    scaled_form = transformed.one_form(pts)
    factors = np.array([psi_prime(w) for w in np.atleast_1d(field.value(pts))])
    comp_err = float(np.abs(scaled_form - factors[:, None] * base_form).max())

    inv_err = 0.0
    lo, hi = w_lo - pad, w_hi + pad
    for x in pts:
        y = psi(field.value(x))
        w_rec = _invert_monotone(psi, y, lo, hi, increasing)
        inv_err = max(inv_err, abs(w_rec - field.value(x)))
    passed = exactness.passed and comp_err <= TOL and inv_err <= 1e-7 * max(1.0, abs(w_hi))
    report = ScaleReport(exactness, inv_err, (w_lo, w_hi), passed)
    return report


# -- concrete fields ---------------------------------------------------------

def construct_geodesic_W(m0, base_point=(0.0, 0.0, 0.0, 0.0)):
    """W = m0 * s with s the proper separation from the base point.

    One-form components are m0 * (dt, -dx1, -dx2, -dx3)/s (= m0 times the
    lowered unit tangent of the straight line through base_point and x).
    Raises NonTimelikeSeparation off the timelike cone.
    """
    base = np.asarray(base_point, dtype=float)

    def proper_s(x):
        delta = np.asarray(x, dtype=float) - base
        s2 = delta[..., 0] ** 2 - (delta[..., 1:] ** 2).sum(axis=-1)
        scale = np.maximum(1.0, (delta ** 2).sum(axis=-1))
        if np.any(s2 <= TOL_NULL * scale):
            raise NonTimelikeSeparation("separation from the base point is not timelike")
        return np.sqrt(s2), delta

    def value(x):
        s, _ = proper_s(x)
        return m0 * s

    def one_form(x):
        s, delta = proper_s(x)
        lowered = delta * ETA_DIAG
        return m0 * lowered / s[..., None]

    return HamiltonJacobiField(value=value, one_form=one_form, m0=m0,
                               name="geodesic")


class ProjectileField(HamiltonJacobiField):
    """Uniform-force field: a one-parameter family of exact linear fields.

    Differentiation treats the curve parameter s as frozen, so each member
    W_s = m0*u_x*x + m0*(u_y - g s)*y - m0*tdot(s)*t + w0 is linear in the
    event with one-form (-m0*tdot, m0*u_x, m0*(u_y - g s), 0); tdot(s) =
    sqrt(1 + u_x^2 + (u_y - g s)^2) keeps (dW/dt)^2 = m0^2 + p1^2 + p2^2
    exact. at_parameter(s) freezes a member; the trajectory closed forms
    x(s), y(s) = y0 + u_y s - g s^2/2 and t(s) come along as oracles.
    """

    def __init__(self, m0, u_x, u_y, g, w0=0.0, base_event=(0.0, 0.0, 0.0, 0.0),
                 frozen_s=0.0, region=None):
        self.u_x = float(u_x)
        self.u_y = float(u_y)
        self.g = float(g)
        self.w0 = float(w0)
        self.base_event = np.asarray(base_event, dtype=float)
        self.frozen_s = float(frozen_s)
        m0 = float(m0)
        super().__init__(value=self._value_fn, one_form=self._one_form_fn, m0=m0,
                         region=region, name="projectile")

    # kinematics ------------------------------------------------------------

    def tdot(self, s):
        return np.sqrt(1.0 + self.u_x ** 2 + (self.u_y - self.g * np.asarray(s, dtype=float)) ** 2)

    def elapsed_time(self, s):
        """Closed-form t(s) - t0 = integral of tdot (asinh antiderivative)."""
        s = np.asarray(s, dtype=float)
        a2 = 1.0 + self.u_x ** 2
        if self.g == 0.0:
            return s * np.sqrt(a2 + self.u_y ** 2)

        def anti(w):
            return 0.5 * (w * np.sqrt(a2 + w ** 2) + a2 * np.arcsinh(w / np.sqrt(a2)))

        return (anti(self.u_y) - anti(self.u_y - self.g * s)) / self.g

    def position(self, s):
        """Event (t, x, y, z) on the trajectory at proper parameter s."""
        s = np.asarray(s, dtype=float)
        t0, x0, y0, z0 = self.base_event
        return np.stack([
            np.asarray(t0 + self.elapsed_time(s), dtype=float),
            np.asarray(x0 + self.u_x * s, dtype=float),
            np.asarray(y0 + self.u_y * s - 0.5 * self.g * s ** 2, dtype=float),
            np.broadcast_to(np.float64(z0), s.shape),
        ], axis=-1)

    def tangent(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([
            np.asarray(self.tdot(s), dtype=float),
            np.broadcast_to(np.float64(self.u_x), s.shape),
            np.asarray(self.u_y - self.g * s, dtype=float),
            np.zeros(s.shape),
        ], axis=-1)

    def at_parameter(self, s):
        return ProjectileField(self.m0, self.u_x, self.u_y, self.g, w0=self.w0,
                               base_event=self.base_event, frozen_s=s, region=self.region)

    # field members ----------------------------------------------------------

    def _coeffs(self):
        s = self.frozen_s
        return np.array([-self.m0 * self.tdot(s), self.m0 * self.u_x,
                         self.m0 * (self.u_y - self.g * s), 0.0])

    def _value_fn(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self._coeffs() + self.w0

    def _one_form_fn(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self._coeffs(), x.shape).copy()


def projectile_field(m0, u_x, u_y, g):
    return ProjectileField(m0, u_x, u_y, g)


def curl_counterexample_field():
    """One-form (0, -x2, x1, 0): not closed; loop value = 2 * enclosed area."""

    def one_form(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 1] = -x[..., 2]
        out[..., 2] = x[..., 1]
        return out

    return HamiltonJacobiField(one_form=one_form, name="curl-counterexample")


def linearly_shifted(field, coeffs, name=None):
    """Field with W + c_a x^a: one-form shifted by the constant covector c."""
    coeffs = np.asarray(coeffs, dtype=float)
    value = None
    if field.has_value():
        def value(x):
            return field.value(x) + np.asarray(x, dtype=float) @ coeffs

    def one_form(x):
        return field.one_form(x) + coeffs

    return HamiltonJacobiField(value=value, one_form=one_form, m0=field.m0,
                               region=field.region,
                               name=name or f"{field.name}+linear")


# -- parallel / perpendicular split ------------------------------------------

class PerpDecomposition:
    def __init__(self, constants, parallel_field, residual, n_points):
        self.constants = constants
        self.parallel_field = parallel_field
        self.residual = residual
        self.n_points = n_points


def decompose_parallel_perp(field, tangent, points):
    """Split dW into a part parallel to the congruence and a constant covector.

    tangent(x) -> unit timelike u^a (upper). Solves the joint least squares
    dW(x_i) = c + lambda_i * lower(u(x_i)) for the global constants c; the
    returned parallel field is W - c_a x^a. Raises IllConditioned when the
    sampled tangents do not pin c down (normal matrix condition > 1e10).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    n = len(pts)
    if n < 2:
        raise UsageError("need at least two sample points")
    norm_mat = np.zeros((4, 4))
    rhs = np.zeros(4)
    projs = []
    forms = []
    for x in pts:
        u = np.asarray(tangent(x), dtype=float)
        ulow = ETA_DIAG * u
        uhat = ulow / np.linalg.norm(ulow)
        proj = np.eye(4) - np.outer(uhat, uhat)
        w = field.one_form(x)
        norm_mat += proj
        rhs += proj @ w
        projs.append(proj)
        forms.append(w)
    if np.linalg.cond(norm_mat) > 1e10:
        raise IllConditioned("sampled tangents do not determine the constants")
    constants = np.linalg.solve(norm_mat, rhs)
    residual = max(float(np.linalg.norm(proj @ (w - constants)))
                   for proj, w in zip(projs, forms))
    parallel = linearly_shifted(field, -constants, name=f"{field.name}-parallel")
    return PerpDecomposition(constants, parallel, residual, n)
