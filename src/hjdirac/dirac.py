"""Spinor wave functions along curves and the operator form of the checks.

The objects here tie the scalar machinery to the gamma algebra: wave functions
Psi(x) = amplitude(W(x)) * xi with a constant bispinor xi, their derivative
along a curve, the split of slash(u) slash(dW) into scalar and wedge parts,
and the congruence-level criterion that momentum transport, operator
commutation and simultaneous eigenvectors stand or fall together.

Index bookkeeping: curve tangents and momenta are upper-index four-vectors,
field one-forms are lower-index. The contraction u^a (dW)_a needs no metric.
"""

import numpy as np

from .clifford import (
    ID4,
    minkowski_dot,
    slash,
    slash_covector,
    slash_eigensystem,
)
from ._util import central_difference
from .dynamics import operator_commutator
from .errors import OffShell, UsageError

# the tolerance of every judgement here: the mass shell and the three
# transport criteria
TOL = 1e-8
STEP = 1e-5  # central-difference step of the congruence derivatives

__all__ = [
    "WaveFunction",
    "CurveSegment",
    "line_curve",
    "projectile_curve",
    "momentum_operator",
    "DerivativeSplit",
    "derivative_split",
    "curve_derivative",
    "operator_derivative",
    "SpinorState",
    "conventional_dirac_residual",
    "Congruence",
    "geodesic_congruence",
    "sheared_congruence",
    "lie_derivative",
    "directional_derivative",
    "geodesic_criterion_check",
]


class WaveFunction:
    """Psi(x) = amplitude(W(x)) * spinor for a scalar field W."""

    def __init__(self, field, amplitude, amplitude_prime, spinor):
        self.field = field
        self.amplitude = amplitude
        self.amplitude_prime = amplitude_prime
        self.spinor = np.asarray(spinor, dtype=complex)
        if self.spinor.shape != (4,):
            raise UsageError("spinor must be a length-4 complex vector")

    @classmethod
    def exponential(cls, field, kappa, spinor):
        """amplitude exp(kappa * W); its W-derivative is kappa * amplitude."""

        def amp(w):
            return np.exp(kappa * w)

        def amp_prime(w):
            return kappa * np.exp(kappa * w)

        return cls(field, amp, amp_prime, spinor)

    def value(self, x):
        return self.amplitude(self.field.value(x)) * self.spinor

    def derivative_factor(self, x):
        """d(amplitude)/dW evaluated at W(x)."""
        return self.amplitude_prime(self.field.value(x))


class CurveSegment:
    """Parameterized curve s -> event with its tangent dx/ds."""

    def __init__(self, position, tangent):
        self.position = position
        self.tangent = tangent


def line_curve(base, direction):
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    return CurveSegment(lambda s: base + s * direction, lambda s: direction.copy())


def projectile_curve(proj_field):
    """Curve of a uniform-force trajectory, tangent from its closed forms."""
    return CurveSegment(proj_field.position, proj_field.tangent)


def momentum_operator(field, x):
    """gamma^a (dW)_a at x; squares to (dW . dW) times the identity."""
    return slash_covector(field.one_form(x))


class DerivativeSplit:
    """slash(u) slash(w) = scalar * I + wedge, wedge antisymmetric in (u, w)."""

    def __init__(self, scalar, wedge, identity_deviation):
        self.scalar = scalar
        self.wedge = wedge
        self.identity_deviation = identity_deviation


def derivative_split(u, omega):
    """Split slash(u) slash_covector(omega) into scalar and wedge parts.

    The scalar comes from the anticommutator route (its deviation from a pure
    multiple of I is reported, not assumed); the direct contraction u^a w_a
    is left to callers as an independent cross-check.
    """
    a = slash(u)
    b = slash_covector(omega)
    anti = 0.5 * (a @ b + b @ a)
    scalar = complex(np.trace(anti)) / 4.0
    if abs(scalar.imag) < 1e-14 * max(1.0, abs(scalar.real)):
        scalar = scalar.real
    deviation = float(np.abs(anti - scalar * ID4).max())
    wedge = 0.5 * (a @ b - b @ a)
    return DerivativeSplit(scalar, wedge, deviation)


def curve_derivative(wave, curve, s, step=1e-6):
    """dPsi/ds along the curve by central differences."""
    plus = wave.value(curve.position(s + step))
    minus = wave.value(curve.position(s - step))
    return (plus - minus) / (2.0 * step)


def operator_derivative(wave, x, u):
    """dPsi/ds from the chain rule: amplitude'(W) * (u^a dW_a) * spinor.

    Returns the derivative and the DerivativeSplit whose scalar fed it, so
    callers can look at the wedge remainder.
    """
    split = derivative_split(u, wave.field.one_form(x))
    return wave.derivative_factor(x) * split.scalar * wave.spinor, split


# -- spinor eigenstructure -----------------------------------------------------

class SpinorState:
    def __init__(self, spinor, eigenvalue_a, eigenvalue_b, residual_a, residual_b):
        self.spinor = spinor
        self.eigenvalue_a = eigenvalue_a
        self.eigenvalue_b = eigenvalue_b
        self.residual_a = float(residual_a)
        self.residual_b = float(residual_b)


def _joint_candidates(v, b_matrix):
    """Spinors from the positive eigenspace of slash(v), diagonalizing the
    restriction of b_matrix to it. Returns a list of SpinorState."""
    pairs = slash_eigensystem(v)
    lam = pairs[0][0]
    basis = np.stack([pairs[0][1], pairs[1][1]], axis=1)  # 4 x 2, eigenvalue +lam
    a_matrix = slash(v)
    restricted = basis.conj().T @ b_matrix @ basis
    mus, vecs = np.linalg.eig(restricted)
    states = []
    for i in range(2):
        xi = basis @ vecs[:, i]
        xi = xi / np.linalg.norm(xi)
        res_a = np.linalg.norm(a_matrix @ xi - lam * xi)
        res_b = np.linalg.norm(b_matrix @ xi - mus[i] * xi)
        states.append(SpinorState(xi, lam, mus[i], res_a, res_b))
    return states


def conventional_dirac_residual(p, xi, m0):
    """Residual of (i gamma^a d_a - m0) on exp(-i p.x) xi, per unit spinor.

    That is |slash(p) xi - m0 xi| / |xi|: zero exactly on the positive
    eigenspace of slash(p), 2 m0 on the negative one. Raises OffShell when
    p is not timelike or p.p does not match m0.
    """
    p = np.asarray(p, dtype=float)
    xi = np.asarray(xi, dtype=complex)
    pp = minkowski_dot(p, p)
    if pp <= 0:
        raise OffShell("momentum must be timelike")
    mass = np.sqrt(pp)
    if abs(mass - m0) > TOL * max(1.0, abs(m0)):
        raise OffShell(f"sqrt(p.p) = {mass:.12g} but m0 = {m0:.12g}")
    op = slash(p) - m0 * ID4
    return float(np.linalg.norm(op @ xi) / np.linalg.norm(xi))


# -- congruences ----------------------------------------------------------------

class Congruence:
    """A tangent field u(x) with a momentum field p(x) carried along it."""

    def __init__(self, u_of, p_of):
        self.u_of = u_of
        self.p_of = p_of


def _radial_unit(x, base):
    d = np.asarray(x, dtype=float) - base
    s2 = d[0] ** 2 - d[1] ** 2 - d[2] ** 2 - d[3] ** 2
    if s2 <= 0:
        raise UsageError("congruence point not timelike-separated from the base")
    return d / np.sqrt(s2)


def geodesic_congruence(m0, base=(0.0, 0.0, 0.0, 0.0)):
    """Radial fan of straight worldlines through the base event, p = m0 u."""
    base = np.asarray(base, dtype=float)

    def u_of(x):
        return _radial_unit(x, base)

    def p_of(x):
        return m0 * _radial_unit(x, base)

    return Congruence(u_of, p_of)


def sheared_congruence(m0, amplitude=0.1):
    """The fan through the origin, but the momentum is rotated in the (x1, x2)
    plane by an angle amplitude * x1. Norm-preserving, so the mass shell
    survives while the transport law breaks."""
    base = np.zeros(4)

    def u_of(x):
        return _radial_unit(x, base)

    def p_of(x):
        u = _radial_unit(x, base)
        theta = amplitude * x[1]
        c, s = np.cos(theta), np.sin(theta)
        out = m0 * u
        out[1], out[2] = m0 * (c * u[1] - s * u[2]), m0 * (s * u[1] + c * u[2])
        return out

    return Congruence(u_of, p_of)


def directional_derivative(f, u, x):
    """u^b d_b f at x (f vector-valued)."""
    # C order: a matmul's rounding depends on its operands' memory layout
    jac = np.ascontiguousarray(central_difference(f, x, STEP).T)
    return jac @ np.asarray(u, dtype=float)


def lie_derivative(u_of, p_of, x):
    """(u^b d_b p, L_u p) at x by central differences, where
    (L_u p)^a = u^b d_b p^a - p^b d_b u^a."""
    u = np.asarray(u_of(x), dtype=float)
    p = np.asarray(p_of(x), dtype=float)
    pdot = directional_derivative(p_of, u, x)
    return pdot, pdot - directional_derivative(u_of, p, x)


def geodesic_criterion_check(congruence, points):
    """Three-way transport criterion over sampled points of a congruence.

    Checks that (a) the momentum field is Lie-dragged by the flow, (b) the
    slash of p commutes with the slash of its directional derivative along u,
    and (c) a joint spinor eigenvector exists with residuals, each at most
    TOL. The three stand or fall together; the report keeps them separate.
    """
    lie_worst = comm_worst = eigen_worst = 0.0
    for x in np.asarray(points, dtype=float).reshape(-1, 4):
        p = np.asarray(congruence.p_of(x), dtype=float)
        pdot, lie = lie_derivative(congruence.u_of, congruence.p_of, x)
        lie_worst = max(lie_worst, float(np.abs(lie).max()))
        comm_worst = max(comm_worst, operator_commutator(p, pdot)[0])
        if np.abs(pdot).max() > 1e-13 * max(1.0, np.abs(p).max()):
            b_matrix = slash(pdot)
        else:
            b_matrix = np.zeros((4, 4), dtype=complex)
        states = _joint_candidates(p, b_matrix)
        best = min(max(st.residual_a, st.residual_b) for st in states)
        eigen_worst = max(eigen_worst, best)
    verdict = "pass" if (lie_worst <= TOL and comm_worst <= TOL
                         and eigen_worst <= TOL) else "fail"
    return {
        "lie_residual": lie_worst,
        "commutator_norm": comm_worst,
        "eigen_residual": eigen_worst,
        "verdict": verdict,
    }
