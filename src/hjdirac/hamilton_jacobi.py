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
from .errors import NonTimelikeSeparation, UsageError

__all__ = [
    "Box",
    "HamiltonJacobiField",
    "ProjectileField",
    "HJReport",
    "loop_integral",
    "is_exact",
    "mass_shell_check",
    "construct_geodesic_W",
    "projectile_field",
    "curl_counterexample_field",
]

TOL = 1e-8  # every exactness judgement
# is_exact's sample: closedness points, random rectangles and segments a side
N_POINTS, N_LOOPS, SEGMENTS = 40, 20, 4096


class Box:
    """Axis-aligned region lo <= x <= hi that the checks sample."""

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

    def __init__(self, one_form, value=None, m0=None, name="field"):
        self._value = value
        self._one_form = one_form
        self.m0 = m0
        self.name = name

    def value(self, x):
        if self._value is None:
            raise UsageError(f"field {self.name!r} has no W, only a one-form")
        return np.asarray(self._value(np.asarray(x, dtype=float)), dtype=float)

    def one_form(self, x):
        """dW components at x (or at a stack of points (..., 4))."""
        return np.asarray(self._one_form(np.asarray(x, dtype=float)), dtype=float)


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


def is_exact(field, region, seed=0):
    """Exactness check: closedness residual at N_POINTS random points plus
    the integrals around N_LOOPS random rectangles.

    Loop values are normalized by perimeter * max|one-form| on the loop; the
    field passes when both routes sit at or below TOL. Deterministic for a
    fixed seed.
    """
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
    W_s = m0*u_x*x + m0*(u_y - g s)*y - m0*tdot(s)*t is linear in the
    event with one-form (-m0*tdot, m0*u_x, m0*(u_y - g s), 0); tdot(s) =
    sqrt(1 + u_x^2 + (u_y - g s)^2) keeps (dW/dt)^2 = m0^2 + p1^2 + p2^2
    exact. at_parameter(s) freezes a member; the trajectory closed forms
    x(s) = u_x s, y(s) = u_y s - g s^2/2 and t(s) from the origin event come
    along as oracles.
    """

    def __init__(self, m0, u_x, u_y, g, frozen_s=0.0):
        self.u_x = float(u_x)
        self.u_y = float(u_y)
        self.g = float(g)
        self.frozen_s = float(frozen_s)
        m0 = float(m0)
        super().__init__(value=self._value_fn, one_form=self._one_form_fn, m0=m0,
                         name="projectile")

    # kinematics ------------------------------------------------------------

    def tdot(self, s):
        return np.sqrt(1.0 + self.u_x ** 2 + (self.u_y - self.g * np.asarray(s, dtype=float)) ** 2)

    def elapsed_time(self, s):
        """Closed-form t(s) = integral of tdot from 0 (asinh antiderivative)."""
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
        return np.stack([
            np.asarray(self.elapsed_time(s), dtype=float),
            np.asarray(self.u_x * s, dtype=float),
            np.asarray(self.u_y * s - 0.5 * self.g * s ** 2, dtype=float),
            np.zeros(s.shape),
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
        return ProjectileField(self.m0, self.u_x, self.u_y, self.g, frozen_s=s)

    # field members ----------------------------------------------------------

    def _coeffs(self):
        s = self.frozen_s
        return np.array([-self.m0 * self.tdot(s), self.m0 * self.u_x,
                         self.m0 * (self.u_y - self.g * s), 0.0])

    def _value_fn(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self._coeffs()

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

