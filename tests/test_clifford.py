import numpy as np
import pytest

from hjdirac import clifford as cl
from hjdirac.dirac import derivative_split
from hjdirac.errors import NullVector


def random_timelike(rng, scale=1.0):
    v = rng.normal(size=4) * scale
    v[0] = np.sign(v[0] or 1.0) * (np.linalg.norm(v[1:]) + 0.1 + abs(v[0]))
    return v


def test_anticommutator_table_exact():
    eta = np.diag(cl.ETA_DIAG)
    for a in range(4):
        for b in range(4):
            lhs = cl.anticommutator(cl.GAMMAS[a], cl.GAMMAS[b])
            rhs = 2.0 * eta[a, b] * np.eye(4)
            assert np.array_equal(lhs, rhs)
    assert cl.anticommutator_residual() == 0.0


def test_gamma_squares():
    assert np.array_equal(cl.GAMMAS[0] @ cl.GAMMAS[0], np.eye(4))
    for k in (1, 2, 3):
        assert np.array_equal(cl.GAMMAS[k] @ cl.GAMMAS[k], -np.eye(4))


@pytest.mark.parametrize(
    "v,expected",
    [
        ((1, 0, 0, 0), cl.GAMMA0),
        ((2, 1, 0, 0), 2 * cl.GAMMA0 - cl.GAMMA1),
    ],
)
def test_slash_examples(v, expected):
    assert np.array_equal(cl.slash(v), expected)


def test_slash_equals_covector_slash_of_lowered():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(size=4)
        assert np.array_equal(cl.slash(v), cl.slash_covector(cl.ETA_DIAG * v))


def test_slash_square_is_minkowski_norm():
    rng = np.random.default_rng(11)
    for _ in range(500):
        v = rng.normal(size=4) * rng.uniform(0.1, 10)
        s = cl.slash(v)
        n2 = cl.minkowski_dot(v, v)
        scale = max(1.0, abs(n2))
        assert np.abs(s @ s - n2 * np.eye(4)).max() <= 1e-12 * scale


def test_slash_linearity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        u, w = rng.normal(size=4), rng.normal(size=4)
        a, b = rng.normal(size=2)
        lhs = cl.slash(a * u + b * w)
        rhs = a * cl.slash(u) + b * cl.slash(w)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_eigensystem_time_axis_matches_generic_solver():
    # independent oracle: plain numpy eigendecomposition of gamma0
    vals, vecs = np.linalg.eig(cl.GAMMA0)
    order = np.argsort(-vals.real)
    expect_vals = vals[order]
    pairs = cl.slash_eigensystem([1, 0, 0, 0])
    got_vals = np.array([p[0] for p in pairs])
    assert np.allclose(got_vals, expect_vals, atol=1e-12)
    # gamma0 is diagonal, so the canonical basis is the eigenbasis
    for pair, basis_index in zip(pairs, (0, 1, 2, 3)):
        e = np.zeros(4, dtype=complex)
        e[basis_index] = 1.0
        assert np.allclose(pair[1], e, atol=1e-12)


def test_eigensystem_random_timelike_against_generic_solver():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = random_timelike(rng, scale=rng.uniform(0.2, 5))
        n2 = cl.minkowski_dot(v, v)
        lam = np.sqrt(n2)
        s = cl.slash(v)
        pairs = cl.slash_eigensystem(v)
        got = sorted(np.real(p[0]) for p in pairs)
        oracle = sorted(np.linalg.eigvals(s).real)
        assert np.allclose(got, oracle, atol=1e-9 * max(1, lam))
        assert np.allclose(got, [-lam, -lam, lam, lam], atol=1e-10 * max(1, lam))
        for val, vec in pairs:
            assert np.linalg.norm(s @ vec - val * vec) < 1e-10 * max(1, lam)
            assert abs(np.linalg.norm(vec) - 1) < 1e-12


def test_eigensystem_basis_orthonormal_and_deterministic():
    rng = np.random.default_rng(17)
    v = random_timelike(rng)
    first = cl.slash_eigensystem(v)
    second = cl.slash_eigensystem(v)
    for (l1, e1), (l2, e2) in zip(first, second):
        assert l1 == l2
        assert np.array_equal(e1, e2)
    plus = [e for val, e in first if np.real(val) > 0]
    assert abs(np.vdot(plus[0], plus[1])) < 1e-12
    # phase convention: first clearly-nonzero component real positive
    for _, e in first:
        lead = next(c for c in e if abs(c) > 1e-12)
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_eigensystem_null_raises():
    with pytest.raises(NullVector):
        cl.slash_eigensystem([1, 1, 0, 0])
    with pytest.raises(NullVector):
        cl.slash_eigensystem([0, 0, 0, 0])


def test_eigensystem_spacelike_complex_pair():
    pairs = cl.slash_eigensystem([0, 1, 0, 0])
    vals = [p[0] for p in pairs]
    assert np.allclose(vals, [1j, 1j, -1j, -1j], atol=1e-12)
    s = cl.slash([0, 1, 0, 0])
    for val, vec in pairs:
        assert np.linalg.norm(s @ vec - val * vec) < 1e-10


def test_product_decomposition_reconstructs():
    # slash(u) slash(w) = (u.w) I + wedge, with w entering as its lowered covector
    rng = np.random.default_rng(5)
    for _ in range(200):
        u, w = rng.normal(size=4), rng.normal(size=4)
        split = derivative_split(u, cl.ETA_DIAG * w)
        product = cl.slash(u) @ cl.slash(w)
        scale = max(1.0, np.abs(product).max())
        assert abs(split.scalar - cl.minkowski_dot(u, w)) < 1e-12 * scale
        assert np.abs(product - (split.scalar * np.eye(4) + split.wedge)).max() < 1e-12 * scale
        assert abs(np.trace(split.wedge)) < 1e-12 * scale


def test_parallel_vectors_commute():
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = random_timelike(rng)
        lam = rng.uniform(0.1, 4)
        a, b = cl.slash(v), cl.slash(lam * v)
        assert np.linalg.norm(a @ b - b @ a) < 1e-12 * max(1.0, lam * cl.minkowski_dot(v, v))

