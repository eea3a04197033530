"""Gamma-matrix algebra on a flat local frame, signature (+, -, -, -).

Standard Dirac representation: gamma^0 = diag(1, 1, -1, -1), spatial gammas
built from Pauli blocks. The defining relation {gamma^a, gamma^b} = 2 eta^{ab} I
holds entrywise exactly for these integer/imaginary entries.

Four-vectors are plain length-4 float arrays of upper-index components
(x0 = time); one-forms/gradients are length-4 arrays of lower-index components.
Bispinors are plain complex length-4 arrays.
"""

import numpy as np

from .errors import NullVector

__all__ = [
    "ETA_DIAG",
    "GAMMAS",
    "anticommutator_residual",
    "minkowski_dot",
    "slash",
    "slash_covector",
    "slash_eigensystem",
    "anticommutator",
]

TOL_NULL = 1e-10

# eta is its own inverse, so raised and lowered components share these values
ETA_DIAG = np.array([1.0, -1.0, -1.0, -1.0])

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)
_I2 = np.eye(2, dtype=complex)

# gamma0
GAMMA0 = np.block([[_I2, _ZERO2], [_ZERO2, -_I2]])
# gamma1
GAMMA1 = np.block([[_ZERO2, _SIGMA1], [-_SIGMA1, _ZERO2]])
# gamma2
GAMMA2 = np.block([[_ZERO2, _SIGMA2], [-_SIGMA2, _ZERO2]])
# gamma3
GAMMA3 = np.block([[_ZERO2, _SIGMA3], [-_SIGMA3, _ZERO2]])
# GAMMAS[a] is the upper-index matrix gamma^a
GAMMAS = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)

ID4 = np.eye(4, dtype=complex)


def anticommutator(a, b):
    return a @ b + b @ a


def anticommutator_residual():
    """Largest entrywise deviation of {gamma^a, gamma^b} from 2 eta^{ab} I
    over GAMMAS; 0.0, since the table holds exactly."""
    return max(float(np.abs(anticommutator(GAMMAS[a], GAMMAS[b])
                            - 2.0 * (ETA_DIAG[a] if a == b else 0.0) * ID4).max())
               for a in range(4) for b in range(4))


def minkowski_dot(u, w):
    """u . w under eta, per vector when u and w are (..., 4) stacks."""
    u = np.asarray(u, dtype=float).T
    w = np.asarray(w, dtype=float).T
    return (u[0] * w[0] - u[1] * w[1] - u[2] * w[2] - u[3] * w[3]).T


def slash_covector(w):
    """gamma^a w_a for a one-form given in lower-index components."""
    w = np.asarray(w)
    out = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        out += w[a] * GAMMAS[a]
    return out


def slash(v):
    """gamma_a v^a for a vector given in upper-index components.

    Equal to slash_covector(eta @ v); squares to (v.v) * I.
    """
    v = np.asarray(v)
    return slash_covector(ETA_DIAG * v)


def _phase_fix(vec, tol=1e-12):
    # first component clearly above noise is rotated to the positive real axis
    for c in vec:
        if abs(c) > tol:
            return vec * (np.conj(c) / abs(c))
    return vec


def _projector_basis(proj, tol=1e-10):
    # Gram-Schmidt over the projector columns in fixed order: deterministic
    basis = []
    for col in proj.T:
        w = col.copy()
        for e in basis:
            w -= np.vdot(e, w) * e
        norm = np.linalg.norm(w)
        if norm > tol:
            basis.append(w / norm)
    return [_phase_fix(e) for e in basis]


def slash_eigensystem(v):
    """Spectral decomposition of slash(v).

    Returns a list of four (eigenvalue, bispinor) pairs ordered by descending
    real part (then descending imaginary part), each eigenvalue with an
    orthonormal 2-dimensional eigenbasis. Timelike v gives +-sqrt(v.v), each
    twice; spacelike v routes to the complex pair +-i*sqrt(|v.v|). The phase
    of each eigenvector is fixed by making its first nonzero component real
    and positive, so repeated calls are bit-identical.

    Raises NullVector when |v.v| <= TOL_NULL.
    """
    n2 = minkowski_dot(v, v)
    if abs(n2) <= TOL_NULL:
        raise NullVector(f"|v.v| = {abs(n2):.3e} <= {TOL_NULL:.1e}")
    lam = np.sqrt(n2) if n2 > 0 else 1j * np.sqrt(-n2)
    s = slash(v)
    pairs = []
    for sign in (+1.0, -1.0):
        # (I +- S/lam)/2 projects onto the +-lam eigenspace since S^2 = (v.v) I
        proj = 0.5 * (ID4 + sign * s / lam)
        basis = _projector_basis(proj)
        if len(basis) != 2:
            raise NullVector("eigenspace dimension collapsed; v too close to the cone")
        for e in basis:
            pairs.append((sign * lam, e))
    pairs.sort(key=lambda it: (-np.real(it[0]), -np.imag(it[0])))
    return pairs
