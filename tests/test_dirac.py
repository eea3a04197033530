import numpy as np
import pytest

from hjdirac import dirac as dr
from hjdirac import hamilton_jacobi as hj
from hjdirac.clifford import (
    ETA_DIAG,
    ID4,
    minkowski_dot,
    slash,
    slash_covector,
    slash_eigensystem,
)
from hjdirac.errors import OffShell, UsageError

BOX = hj.Box([2.0, -0.5, -0.5, -0.5], [3.0, 0.5, 0.5, 0.5])


def random_timelike(rng, scale=1.0):
    v = rng.normal(size=4) * scale
    v[0] = np.sign(v[0] or 1.0) * (np.sqrt((v[1:] ** 2).sum()) + rng.uniform(0.2, 2.0) * scale)
    return v


def unit_timelike(rng):
    v = random_timelike(rng)
    return v / np.sqrt(minkowski_dot(v, v))


class TestWaveFunction:
    @pytest.mark.parametrize("kappa", [1j, 0.5j, -0.3, 1.0 + 0.2j])
    def test_exponential_amplitude_derivative(self, kappa):
        geo = hj.construct_geodesic_W(1.0)
        wave = dr.WaveFunction.exponential(geo, kappa, [1, 0, 0, 0])
        for w in np.linspace(0.5, 3.0, 7):
            assert np.isclose(wave.amplitude_prime(w), kappa * wave.amplitude(w), atol=1e-14)

    def test_value_scales_spinor(self):
        geo = hj.construct_geodesic_W(1.0)
        xi = np.array([0.5, 0.0, 1.0j, 0.0])
        wave = dr.WaveFunction.exponential(geo, 1j, xi)
        x = np.array([2.0, 1.0, 0.0, 0.0])
        assert np.allclose(wave.value(x), np.exp(1j * np.sqrt(3.0)) * xi)

    def test_bad_spinor_rejected(self):
        geo = hj.construct_geodesic_W(1.0)
        with pytest.raises(UsageError):
            dr.WaveFunction.exponential(geo, 1j, [1, 0, 0])


class TestDerivativeSplit:
    def test_scalar_matches_direct_contraction(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = rng.normal(size=4) * rng.uniform(0.1, 10)
            omega = rng.normal(size=4) * rng.uniform(0.1, 10)
            split = dr.derivative_split(u, omega)
            scale = max(1.0, abs(u @ omega))
            assert abs(split.scalar - u @ omega) < 1e-12 * scale
            assert split.identity_deviation < 1e-12 * scale
            assert abs(np.trace(split.wedge)) < 1e-12 * scale

    def test_product_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u, omega = rng.normal(size=4), rng.normal(size=4)
            split = dr.derivative_split(u, omega)
            product = slash(u) @ slash_covector(omega)
            assert np.abs(product - (split.scalar * ID4 + split.wedge)).max() < 1e-12

    def test_orthogonal_pair_wedge_is_the_product(self):
        # u = e0 and the covector of e1: the scalar is 0, so the wedge is the
        # whole product, and every gamma entry is exact
        split = dr.derivative_split([1, 0, 0, 0], [0, -1, 0, 0])
        assert split.scalar == 0.0
        assert np.array_equal(split.wedge, slash([1, 0, 0, 0]) @ slash([0, 1, 0, 0]))
        assert abs(np.trace(split.wedge)) == 0.0

    def test_wedge_antisymmetry_and_bilinearity(self):
        # swapping u and w is derivative_split(w, lower(u)) against (u, lower(w))
        rng = np.random.default_rng(29)
        for _ in range(100):
            u, w = rng.normal(size=4), rng.normal(size=4)
            a, b = rng.uniform(0.1, 3, size=2)
            wedge_uw = dr.derivative_split(u, ETA_DIAG * w).wedge
            wedge_wu = dr.derivative_split(w, ETA_DIAG * u).wedge
            wedge_scaled = dr.derivative_split(a * u, b * ETA_DIAG * w).wedge
            assert np.abs(wedge_uw + wedge_wu).max() < 1e-12 * max(1, np.abs(wedge_uw).max())
            assert np.abs(wedge_scaled - a * b * wedge_uw).max() < 1e-10 * max(1, np.abs(wedge_scaled).max())

    def test_geodesic_tangent_gives_plus_m0(self):
        m0 = 1.4
        geo = hj.construct_geodesic_W(m0)
        rng = np.random.default_rng(2)
        for x in BOX.sample(rng, 10):
            u = x / np.sqrt(minkowski_dot(x, x))
            split = dr.derivative_split(u, geo.one_form(x))
            assert abs(split.scalar - m0) < 1e-12
            assert np.abs(split.wedge).max() < 1e-12

    def test_projectile_tangent_gives_minus_m0(self):
        # the uniform-force members carry the opposite time orientation:
        # dW/ds along the trajectory is -m0
        m0 = 1.0
        proj = hj.projectile_field(m0, 0.5, 1.0, 0.2)
        for s in (0.0, 0.7, 1.3):
            member = proj.at_parameter(s)
            split = dr.derivative_split(proj.tangent(s),
                                        member.one_form(proj.position(s)))
            assert abs(split.scalar + m0) < 1e-12
            assert np.abs(split.wedge).max() < 1e-12

    def test_mismatched_member_has_wedge(self):
        proj = hj.projectile_field(1.0, 0.5, 1.0, 0.2)
        member = proj.at_parameter(1.3)
        split = dr.derivative_split(proj.tangent(0.2),
                                    member.one_form(proj.position(0.2)))
        assert np.abs(split.wedge).max() > 0.1


class TestCurveDerivative:
    @pytest.mark.parametrize("kappa", [1j, 0.4j, -0.25])
    def test_geodesic_route_agreement(self, kappa):
        m0 = 1.0
        geo = hj.construct_geodesic_W(m0)
        rng = np.random.default_rng(3)
        u0 = unit_timelike(rng)
        curve = dr.line_curve(np.zeros(4), u0)
        xi = slash_eigensystem(u0)[0][1]
        wave = dr.WaveFunction.exponential(geo, kappa, xi)
        for s in (0.8, 1.5, 2.4):
            x = curve.position(s)
            fd = dr.curve_derivative(wave, curve, s)
            op, split = dr.operator_derivative(wave, x, curve.tangent(s))
            assert np.abs(fd - op).max() < 1e-8
            # exponential amplitude: dPsi/ds = kappa * m0 * Psi on these lines
            assert np.abs(fd - kappa * m0 * wave.value(x)).max() < 1e-8
            assert abs(split.scalar - m0) < 1e-12

    def test_projectile_route_agreement(self):
        m0 = 1.0
        proj = hj.projectile_field(m0, 0.5, 1.0, 0.2)
        curve = dr.projectile_curve(proj)
        s = 1.3
        member = proj.at_parameter(s)
        xi = np.array([1.0, 0.2, 0.0, 0.1j])
        wave = dr.WaveFunction.exponential(member, 0.4j, xi)
        x = proj.position(s)
        fd = dr.curve_derivative(wave, curve, s)
        op, split = dr.operator_derivative(wave, x, proj.tangent(s))
        assert np.abs(fd - op).max() < 1e-8
        assert abs(split.scalar + m0) < 1e-12

    def test_momentum_operator_squares_to_mass_shell(self):
        m0 = 1.7
        geo = hj.construct_geodesic_W(m0)
        for x in BOX.sample(np.random.default_rng(4), 6):
            op = dr.momentum_operator(geo, x)
            assert np.abs(op @ op - m0 ** 2 * ID4).max() < 1e-12


class TestConventionalResidual:
    def test_eigenspace_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m0 = rng.uniform(0.5, 3.0)
            p = m0 * unit_timelike(rng)
            pairs = slash_eigensystem(p)
            plus, minus = pairs[0][1], pairs[2][1]
            assert dr.conventional_dirac_residual(p, plus, m0) < 1e-12
            assert abs(dr.conventional_dirac_residual(p, minus, m0) - 2 * m0) < 1e-12

    def test_off_shell_rejected(self):
        rng = np.random.default_rng(7)
        p = unit_timelike(rng)
        xi = slash_eigensystem(p)[0][1]
        with pytest.raises(OffShell):
            dr.conventional_dirac_residual(p, xi, m0=1.5)
        with pytest.raises(OffShell):
            dr.conventional_dirac_residual([1.0, 2.0, 0.0, 0.0], xi, m0=1.0)


class TestSimultaneousEigenvector:
    @pytest.mark.parametrize("factor", [2.5, -1.25, 0.4])
    def test_parallel_momenta(self, factor):
        rng = np.random.default_rng(8)
        p = 1.3 * unit_timelike(rng)
        # the pass side of geodesic_criterion_check's joint eigenvector, on a
        # truly parallel pair rather than the fan's near-zero pdot
        states = dr._joint_candidates(p, slash(factor * p))
        state = min(states, key=lambda st: max(st.residual_a, st.residual_b))
        assert max(state.residual_a, state.residual_b) < 1e-12
        assert np.isclose(state.eigenvalue_a, 1.3)
        assert np.isclose(state.eigenvalue_b, factor * 1.3, atol=1e-12)


class TestCongruences:
    def test_geodesic_fan_passes(self):
        cong = dr.geodesic_congruence(1.3)
        pts = BOX.sample(np.random.default_rng(9), 8)
        report = dr.geodesic_criterion_check(cong, pts)
        assert set(report) == {"lie_residual", "commutator_norm",
                               "eigen_residual", "verdict"}
        assert report["verdict"] == "pass"
        assert report["lie_residual"] < 1e-10
        assert report["commutator_norm"] < 1e-8
        assert report["eigen_residual"] < 1e-8

    def test_sheared_fan_fails_all_three(self):
        m0 = 1.0
        cong = dr.sheared_congruence(m0, amplitude=0.1)
        box = hj.Box([2.2, -1.0, -1.0, -1.0], [3.0, 1.0, 1.0, 1.0])
        pts = box.sample(np.random.default_rng(10), 8)
        report = dr.geodesic_criterion_check(cong, pts)
        assert report["verdict"] == "fail"
        assert report["lie_residual"] > 1e-6
        assert report["commutator_norm"] > 1e-3
        assert report["eigen_residual"] > 1e-4
        # the shear rotates the momentum, so the mass shell is untouched
        for x in pts:
            p = cong.p_of(x)
            assert abs(minkowski_dot(p, p) - m0 ** 2) < 1e-12

    def test_directional_and_lie_derivative_oracles(self):
        def f(x):
            return np.array([x[1] ** 2, 0.0, x[0] * x[2], 0.0])

        x = np.array([1.2, 0.7, -0.4, 0.3])
        u = np.array([1.0, 0.5, 0.2, -0.1])
        jac = np.zeros((4, 4))
        jac[0, 1] = 2 * x[1]
        jac[2, 0] = x[2]
        jac[2, 2] = x[0]
        assert np.allclose(dr.directional_derivative(f, u, x), jac @ u, atol=1e-9)

        def g(x):
            return np.array([1.0, x[2], -x[1], 0.0])

        pdot, lie = dr.lie_derivative(g, f, x)
        jac_g = np.zeros((4, 4))
        jac_g[1, 2] = 1.0
        jac_g[2, 1] = -1.0
        assert np.allclose(pdot, jac @ g(x), atol=1e-9)
        assert np.allclose(lie, jac @ g(x) - jac_g @ f(x), atol=1e-9)
