import numpy as np
import pytest

from hjdirac import hamilton_jacobi as hj
from hjdirac._util import central_difference
from hjdirac.clifford import minkowski_dot
from hjdirac.errors import NonTimelikeSeparation, UsageError

BOX = hj.Box([2.0, -0.5, -0.5, -0.5], [3.0, 0.5, 0.5, 0.5])


def radial_tangent(x):
    # unit tangent of the straight line from the origin through x
    d = np.asarray(x, dtype=float)
    s = np.sqrt(d[0] ** 2 - d[1] ** 2 - d[2] ** 2 - d[3] ** 2)
    return d / s


class TestGeodesicField:
    def test_value_example(self):
        geo = hj.construct_geodesic_W(1.0)
        assert np.isclose(geo.value([2.0, 1.0, 0.0, 0.0]), np.sqrt(3.0), rtol=0, atol=1e-14)
        scaled = hj.construct_geodesic_W(2.0)
        assert np.isclose(scaled.value([2.0, 1.0, 0.0, 0.0]), 2 * np.sqrt(3.0))

    def test_one_form_is_scaled_unit_tangent(self):
        geo = hj.construct_geodesic_W(1.5)
        rng = np.random.default_rng(0)
        for x in BOX.sample(rng, 25):
            w = geo.one_form(x)
            u = radial_tangent(x)
            assert np.allclose(w, 1.5 * np.array([u[0], -u[1], -u[2], -u[3]]), atol=1e-13)
            # H = -dW/dt and the spatial momentum components
            assert np.isclose(-geo.one_form(x)[..., 0], -w[0])
            assert np.allclose(geo.one_form(x)[..., 1:], w[1:])

    @pytest.mark.parametrize("x", [
        [1.0, 1.0, 0.0, 0.0],       # null
        [1.0, 2.0, 0.0, 0.0],       # spacelike
        [0.0, 0.0, 0.0, 0.0],       # base point itself
    ])
    def test_non_timelike_rejected(self, x):
        geo = hj.construct_geodesic_W(1.0)
        with pytest.raises(NonTimelikeSeparation):
            geo.value(x)

    def test_fd_gradient_matches_analytic(self):
        geo = hj.construct_geodesic_W(1.0)
        pts = BOX.sample(np.random.default_rng(7), 30)
        fd = central_difference(geo.value, pts, 1e-6).T  # fd[i, a] = d_a W at pts[i]
        assert np.abs(fd - geo.one_form(pts)).max() < 1e-8

    def test_is_exact_report(self):
        geo = hj.construct_geodesic_W(1.0)
        rep = hj.is_exact(geo, region=BOX)
        assert rep.passed
        assert rep.closedness_residual < 1e-8
        assert rep.max_loop_normalized < 1e-8
        assert rep.mass_shell_residual < 1e-12

    def test_is_exact_deterministic(self):
        geo = hj.construct_geodesic_W(1.0)
        a = hj.is_exact(geo, region=BOX, seed=5)
        b = hj.is_exact(geo, region=BOX, seed=5)
        assert vars(a) == vars(b)


class TestLoopIntegrals:
    def test_counterexample_matches_green_prediction(self):
        curl = hj.curl_counterexample_field()
        rng = np.random.default_rng(11)
        for _ in range(5):
            corner = rng.uniform(-1, 1, size=4)
            ext = rng.uniform(0.2, 1.0, size=2)
            val, _ = hj.loop_integral(curl, (1, 2), corner, ext, segments=128)
            assert abs(val - 2.0 * ext[0] * ext[1]) < 0.01 * abs(2.0 * ext[0] * ext[1])

    def test_counterexample_fails_is_exact(self):
        curl = hj.curl_counterexample_field()
        box = hj.Box([-1, -1, -1, -1], [1, 1, 1, 1])
        rep = hj.is_exact(curl, region=box)
        assert not rep.passed
        assert np.isclose(rep.closedness_residual, 2.0, atol=1e-6)
        assert rep.max_loop_normalized > 1e-3

    def test_quadrature_error_drops_quadratically(self):
        geo = hj.construct_geodesic_W(1.0)
        corner = np.array([2.1, -0.37, 0.12, -0.25])
        errs = [abs(hj.loop_integral(geo, (0, 1), corner, (0.7, 0.45), segments=n)[0])
                for n in (64, 128, 256)]
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5


class TestProjectileField:
    M0, UX, UY, G = 1.0, 0.5, 1.0, 0.2

    def field(self):
        return hj.projectile_field(self.M0, self.UX, self.UY, self.G)

    def test_frozen_member_gradient_example(self):
        member = self.field().at_parameter(2.0)
        w = member.one_form(np.zeros(4))
        tdot = np.sqrt(1 + self.UX ** 2 + (self.UY - 2 * self.G) ** 2)
        assert np.allclose(w, [-self.M0 * tdot, self.M0 * self.UX,
                               self.M0 * (self.UY - 2 * self.G), 0.0], atol=1e-14)
        # dW/dy at s=2 drops by g per unit parameter
        assert w[2] == self.M0 * (self.UY - 2 * self.G)

    @pytest.mark.parametrize("s", [0.0, 0.7, 2.0])
    def test_members_exact_and_on_shell(self, s):
        member = self.field().at_parameter(s)
        box = hj.Box([-1, -1, -1, -1], [1, 1, 1, 1])
        rep = hj.is_exact(member, region=box)
        assert rep.passed
        assert rep.mass_shell_residual < 1e-12
        assert rep.max_loop_normalized < 1e-12  # linear field: trapezoid is exact

    def test_closed_form_time_against_quadrature(self):
        proj = self.field()
        grid = np.linspace(0.0, 3.0, 300001)
        quad = np.trapezoid(proj.tdot(grid), grid)
        assert abs(proj.elapsed_time(3.0) - quad) < 1e-8
        # g = 0 branch
        drift = hj.projectile_field(self.M0, self.UX, self.UY, 0.0)
        assert np.isclose(drift.elapsed_time(2.0), 2.0 * np.sqrt(1 + self.UX ** 2 + self.UY ** 2))

    def test_trajectory_tangent_consistency(self):
        proj = self.field()
        h = 1e-6
        for s in np.linspace(0.1, 2.5, 7):
            fd = (proj.position(s + h) - proj.position(s - h)) / (2 * h)
            assert np.allclose(fd, proj.tangent(s), atol=1e-8)
            assert np.isclose(minkowski_dot(proj.tangent(s), proj.tangent(s)), 1.0, atol=1e-12)

    def test_momentum_time_component_is_energy(self):
        proj = self.field()
        for s in (0.0, 1.0, 2.0):
            p = self.M0 * proj.tangent(s)
            member = proj.at_parameter(s)
            assert np.isclose(p[0], -member.one_form(proj.position(s))[..., 0], atol=1e-12)


class TestFieldFactories:
    def test_region_guard(self):
        with pytest.raises(UsageError):
            hj.Box([0, 0, 0, 0], [1, 1, 0, 1])
