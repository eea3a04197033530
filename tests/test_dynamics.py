import math
import warnings

import numpy as np
import pytest

from hjdirac import dynamics as dyn
from hjdirac import geometry as geo
from hjdirac.errors import StepRejected, UsageError

from conftest import harmonic_model, quadratic_model

M0, UX, UY, G = 1.0, 0.5, 1.0, 0.2


def projectile_setup():
    model = dyn.projectile_model(M0, UX, UY, G)
    x0 = np.zeros(4)
    p0 = M0 * model.reference.tangent(0.0)
    return model, x0, p0


class TestCanonicalFlow:
    def test_projectile_hand_oracle(self):
        model, x0, p0 = projectile_setup()
        xdot, pdot = dyn.hamilton_rhs(model, x0, p0)
        assert np.allclose(pdot, [0.0, 0.0, M0 * G, 0.0], atol=1e-15)
        e = np.sqrt(M0 ** 2 + (p0[1:] ** 2).sum())
        # the literal eta placement sends x0 nowhere and flips the spatial sign
        assert np.allclose(xdot, [0.0, -p0[1] / e, -p0[2] / e, 0.0], atol=1e-15)

    def test_quadratic_flow_is_straight(self):
        model = quadratic_model()
        x0 = np.array([0.0, 0.2, -0.1, 0.3])
        p0 = np.array([1.4, 0.3, -0.2, 0.1])
        xdot, pdot = dyn.hamilton_rhs(model, x0, p0)
        assert np.array_equal(xdot, p0)
        assert np.array_equal(pdot, np.zeros(4))
        traj = dyn.integrate(model, x0, p0, 2.0, step=0.01)
        assert np.abs(traj.x - (x0 + traj.s[:, None] * p0)).max() < 1e-12
        assert np.abs(traj.p - p0).max() == 0.0

    def test_free_particle_constant_momentum(self):
        model = dyn.free_particle_model(M0)
        p0 = np.array([0.0, 0.4, -0.3, 0.2])
        traj = dyn.integrate(model, np.zeros(4), p0, 1.0, step=1e-2)
        assert np.abs(traj.p - p0).max() == 0.0
        assert np.abs(traj.x[:, 0]).max() == 0.0  # literal flow: no time advance
        assert np.abs(traj.comm_norm).max() == 0.0
        assert traj.energy_drift() == 0.0

    @pytest.mark.parametrize("make", [
        lambda: harmonic_model(),
        lambda: dyn.HamiltonianModel(
            lambda x, p: 0.5 * (p[1] * p[1]) + 0.3 * x[1] * p[1] + 0.5 * (x[1] * x[1]),
            dh_dx=lambda x, p: (0.0, 0.3 * p[1] + x[1], 0.0, 0.0),
            dh_dp=lambda x, p: (0.0, p[1] + 0.3 * x[1], 0.0, 0.0)),
    ])
    def test_h_conserved_under_literal_flow(self, make):
        model = make()
        traj = dyn.integrate(model, np.array([0.0, 1.0, 0.0, 0.0]),
                             np.array([0.0, 0.5, 0.0, 0.0]), 10.0, step=1e-3,
                             record_stride=100)
        assert traj.energy_drift() < 1e-10

    def test_projectile_canonical_h_drift_ten_thousand_steps(self):
        model, x0, p0 = projectile_setup()
        traj = dyn.integrate(model, x0, p0, 10.0, step=1e-3, canonical=True,
                             record_stride=100)
        assert traj.energy_drift() < 1e-8

    def test_harmonic_matches_cosine(self):
        traj = dyn.integrate(harmonic_model(), np.array([0.0, 1.0, 0.0, 0.0]),
                             np.zeros(4), 10.0, step=1e-3, record_stride=100)
        assert abs(traj.x[-1, 1] - np.cos(10.0)) < 1e-10

    def test_bad_arguments(self):
        model = quadratic_model()
        with pytest.raises(UsageError):
            dyn.integrate(model, np.zeros(4), np.ones(4), 1.0, step=0.0)
        with pytest.raises(UsageError):
            dyn.integrate(model, np.zeros(4), np.ones(4), 1.05, step=0.1)

    def test_model_from_config(self):
        assert dyn.model_from_config({"kind": "free", "m0": 2.0}).m0 == 2.0
        proj = dyn.model_from_config({"kind": "projectile", "m0": 1.0, "u_x": 0.5,
                                      "u_y": 1.0, "g": 0.2})
        assert proj.flow is not None
        for kind in ("bogus", "quadratic", "harmonic"):
            with pytest.raises(UsageError, match="unknown model kind '%s'" % kind):
                dyn.model_from_config({"kind": kind})

    def test_model_config_rejects_keys_its_kind_does_not_read(self):
        with pytest.raises(UsageError, match="mass"):
            dyn.model_from_config({"kind": "projectile", "m0": 1.0, "u_x": 0.5,
                                   "u_y": 1.0, "g": 0.2, "mass": 2.0})
        with pytest.raises(UsageError, match="omega"):
            dyn.model_from_config({"kind": "free", "m0": 1.0, "omega": 2.0})
        with pytest.raises(UsageError):
            dyn.model_from_config(["kind", "free"])

    @pytest.mark.parametrize("stride", [0, -1, 2.5, 1.0, True, "2", None])
    def test_record_stride_must_be_positive_int(self, stride):
        model = dyn.free_particle_model(1.0)
        with pytest.raises(UsageError, match="record_stride"):
            dyn.integrate(model, np.zeros(4), np.array([1.0, 0, 0, 0]), 0.1,
                          step=0.01, record_stride=stride)
        with pytest.raises(UsageError, match="record_stride"):
            dyn.covariant_integrate(geo.minkowski_metric(), np.zeros(4),
                                    np.array([1.0, 0, 0, 0]), 0.1, step=0.01,
                                    record_stride=stride)

    def test_record_stride_accepts_numpy_int(self):
        traj = dyn.integrate(dyn.free_particle_model(1.0), np.zeros(4),
                             np.array([1.0, 0, 0, 0]), 0.1, step=0.01,
                             record_stride=np.int64(4))
        assert np.allclose(traj.s, [0.0, 0.04, 0.08, 0.1])


class TestProjectileKinematics:
    def test_matches_closed_form(self):
        model, x0, p0 = projectile_setup()
        traj = dyn.integrate(model, x0, p0, 2.0, step=1e-3)
        exact = model.reference.position(traj.s)
        assert np.abs(traj.x[:, 2] - exact[:, 2]).max() < 1e-9
        assert np.abs(traj.x[:, 1] - exact[:, 1]).max() < 1e-9
        assert np.abs(traj.x[:, 0] - exact[:, 0]).max() < 1e-9
        assert np.abs(traj.p - M0 * model.reference.tangent(traj.s)).max() < 1e-9

    def test_mass_shell_preserved(self):
        model, x0, p0 = projectile_setup()
        traj = dyn.integrate(model, x0, p0, 2.0, step=1e-3)
        assert traj.mass_shell_drift() < 1e-12

    def test_step_halving_ratio(self):
        model, x0, p0 = projectile_setup()
        ref = model.reference

        def endpoint_error(h):
            traj = dyn.integrate(model, x0, p0, 2.0, step=h, record_stride=10 ** 9)
            exact = np.concatenate([ref.position(2.0), M0 * ref.tangent(2.0)])
            return np.abs(np.concatenate([traj.x[-1], traj.p[-1]]) - exact).max()

        ratio = endpoint_error(0.1) / endpoint_error(0.05)
        assert 12.0 < ratio < 20.0

    def test_commutator_strictly_positive(self):
        model, x0, p0 = projectile_setup()
        traj = dyn.integrate(model, x0, p0, 2.0, step=1e-2)
        late = traj.comm_norm[traj.s > 0.1]
        assert late.min() > 1e-3

    def test_force_norm_analytic(self):
        model, x0, p0 = projectile_setup()
        traj = dyn.integrate(model, x0, p0, 2.0, step=1e-2)
        pred = M0 * G * np.sqrt(1.0 - (traj.p[:, 2] / traj.p[:, 0]) ** 2)
        assert np.abs(traj.dm_ds - pred).max() < 1e-12

    def test_model_h_not_conserved_under_kinematic_flow(self):
        # the override is proper-time kinematics: H = E + m0 g y moves, and
        # that is recorded honestly rather than smoothed over
        model, x0, p0 = projectile_setup()
        traj = dyn.integrate(model, x0, p0, 2.0, step=1e-2)
        assert traj.energy_drift() > 1e-3

    def test_runaway_model_rejected(self):
        blow = dyn.HamiltonianModel(
            lambda x, p: -10.0 * x[1] * p[1],
            dh_dx=lambda x, p: np.array([0.0, -10.0 * p[1], 0.0, 0.0]),
            dh_dp=lambda x, p: np.array([0.0, -10.0 * x[1], 0.0, 0.0]))
        with pytest.raises(StepRejected):
            dyn.integrate(blow, np.array([0.0, 1.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0, 0.0]), 100.0, step=0.01)

    def test_guard_trip_names_step_and_state(self):
        drift = dyn.HamiltonianModel(
            lambda x, p: 0.0, dh_dx=lambda x, p: np.zeros(4),
            dh_dp=lambda x, p: np.array([0.0, 1.0, 0.0, 0.0]),
            guard=lambda x, p: "x1 below -0.3" if x[1] < -0.3 else None)
        with pytest.raises(StepRejected) as info:
            dyn.integrate(drift, np.zeros(4), np.zeros(4), 1.0, step=0.25)
        assert str(info.value) == (
            "step 2 (s = 0.5): x1 below -0.3; last finite state "
            "[[0.0, -0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]")


def zero_partials(x, p):
    """dH/dx and dH/dp of H = 0, the H of the flow-only models below."""
    return 0.0, 0.0, 0.0, 0.0


def reciprocal(x1, numpy):
    return np.float64(1.0) / x1 if numpy else 1.0 / x1


def root(x1, numpy):
    return (np.sqrt if numpy else math.sqrt)(x1 - 0.1)


# ids as first pinned, when a second integrator was parametrized here too
@pytest.mark.parametrize("fn", [reciprocal, root], ids=["rk4-reciprocal", "rk4-root"])
def test_python_float_faults_read_as_non_finite_state(fn):
    # x1 falls from 0.5 by 0.125 per step; in step 4 it is 0.0625 at the
    # second RK4 stage and 0.0 at the last one. There 1 / 0.0 raises
    # ZeroDivisionError and math.sqrt of a negative ValueError on Python
    # floats, where numpy gives inf or nan: the run is rejected at the same
    # step, with the same message, either way, and numpy's division by zero
    # warns of nothing, with no np.errstate here.
    messages = []
    for numpy in (False, True):
        model = dyn.HamiltonianModel(
            lambda x, p: 0.0, zero_partials, zero_partials, flow=lambda x, p: (
                (0.0, -1.0, 0.0, 0.0), (0.0, fn(x[1], numpy), 0.0, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepRejected) as info:
                dyn.integrate(model, [0.0, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0,
                              step=0.125)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("step 4 (s = 0.5): non-finite state; "
                                  "last finite state [[0.0, 0.125, 0.0, 0.0], [1.0, ")


@pytest.mark.parametrize("dp1, dx1, message", [
    # the flow's own product overflows: 1e300 * 5e8 at step 3's second stage
    (lambda x1: 1e300 * max(x1 - 1.2e10, 0.0), 1e10,
     "step 3 (s = 1.5): non-finite state; last finite state "
     "[[0.0, 10000000000.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]"),
    # the flow stays finite and RK4's weighted sum of its stages overflows
    (lambda x1: x1 * 1e308, 1.0,
     "step 2 (s = 1.0): non-finite state; last finite state "
     "[[0.0, 0.5, 0.0, 0.0], [1.0, 1.25e+307, 0.0, 0.0]]"),
])
def test_silent_float_overflow_reads_as_non_finite_state(dp1, dx1, message):
    # Python's * and + overflow to inf without raising, so no stage fault
    # catches these; _drive's finiteness check must. The messages are those
    # of the integrator that stepped a numpy state array.
    model = dyn.HamiltonianModel(
        lambda x, p: 0.0, zero_partials, zero_partials, flow=lambda x, p: (
            (0.0, dx1, 0.0, 0.0), (0.0, dp1(x[1]), 0.0, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepRejected) as info:
            dyn.integrate(model, [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 4.0,
                          step=0.5)
    assert str(info.value) == message


def test_finite_state_with_an_overflowing_sum_runs():
    # every component is finite though their sum is not: a finiteness check
    # by summing the state would reject this run
    model = dyn.HamiltonianModel(lambda x, p: 0.0, zero_partials, zero_partials,
                                 flow=lambda x, p: ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)))
    traj = dyn.integrate(model, [0.0, 1e308, 1e308, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0,
                         step=0.25)
    assert np.array_equal(traj.x[-1], [0.0, 1e308, 1e308, 0.0])


def test_non_finite_initial_state_rejected_at_step_zero():
    # no step is taken from an inf, and the inf is not called finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepRejected) as info:
            dyn.integrate(dyn.free_particle_model(1.0), np.zeros(4),
                          np.array([math.inf, 0.0, 0.0, 0.0]), 1.0, step=0.25)
    assert str(info.value) == (
        "step 0 (s = 0.0): non-finite state; initial state "
        "[[0.0, 0.0, 0.0, 0.0], [inf, 0.0, 0.0, 0.0]]")


def test_record_memory_per_sample(traced_peak):
    # records are preallocated float rows, s and the 8 state components, and
    # the H, dm_ds and comm_norm columns are computed over them; a list of
    # per-record tuples of small arrays cost about 600 bytes per record here.
    # The peak is about 153 B per record at 10,001 records and at 20,001.
    model = dyn.free_particle_model(1.0)
    traj, peak = traced_peak(lambda: dyn.integrate(
        model, np.zeros(4), np.array([1.2, 0.3, -0.4, 0.5]), 10.0, step=1e-3))
    assert len(traj.s) == 10001
    assert peak / len(traj.s) < 200


class TestGeodesicCommutator:
    def test_synthetic_reparameterized_trajectories(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p0 = rng.normal(size=4)
            p0[0] = np.sign(p0[0] or 1.0) * (np.linalg.norm(p0[1:]) + rng.uniform(0.5, 2.0))
            for s in np.linspace(0.0, 3.0, 11):
                rho = 1.0 + 0.3 * np.sin(s)
                rho_prime = 0.3 * np.cos(s)
                raw, norm = dyn.operator_commutator(rho * p0, rho_prime * p0)
                assert raw < 1e-12

    def test_zero_force_shortcut(self):
        raw, norm = dyn.operator_commutator([1.3, 0.2, 0.0, 0.1], np.zeros(4))
        assert raw == 0.0 and norm == 0.0

    def test_normalization_relationship(self):
        p = np.array([1.5, 0.3, -0.2, 0.0])
        pdot = np.array([0.1, 0.0, -0.4, 0.2])
        raw, norm = dyn.operator_commutator(p, pdot)
        from hjdirac.clifford import slash
        denom = np.linalg.norm(slash(p)) * np.linalg.norm(slash(pdot))
        assert abs(norm - raw / denom) < 1e-15


class TestCovariant:
    def test_minkowski_matches_flat_run(self):
        x0 = np.array([0.0, 0.2, -0.1, 0.3])
        p0 = np.array([1.4, 0.3, -0.2, 0.1])
        cov = dyn.covariant_integrate(geo.minkowski_metric(4), x0, p0, 2.0,
                                      step=0.01, record_stride=10)
        flat = dyn.integrate(quadratic_model(), x0, p0, 2.0, step=0.01,
                             record_stride=10)
        assert np.abs(cov.x - flat.x).max() < 1e-10
        assert np.abs(cov.p_upper - flat.p).max() < 1e-10

    def test_polar_geodesic_is_cartesian_line(self):
        r0, th0 = 1.0, 0.3
        vx, vy = 0.4, -0.25
        cx0, cy0 = r0 * np.cos(th0), r0 * np.sin(th0)
        u0 = np.array([1.5, (cx0 * vx + cy0 * vy) / r0,
                       (cx0 * vy - cy0 * vx) / r0 ** 2, 0.0])
        cov = dyn.covariant_integrate(geo.polar_metric(4),
                                      np.array([0.0, r0, th0, 0.0]),
                                      u0, 2.0, step=1e-3, record_stride=20)
        cart_x = cov.x[:, 1] * np.cos(cov.x[:, 2])
        cart_y = cov.x[:, 1] * np.sin(cov.x[:, 2])
        assert np.abs(cart_x - (cx0 + vx * cov.s)).max() < 1e-6
        assert np.abs(cart_y - (cy0 + vy * cov.s)).max() < 1e-6
        assert cov.k_drift() < 1e-8
        assert cov.max_residual() < 1e-10

    def test_bad_step_rejected(self):
        with pytest.raises(UsageError):
            dyn.covariant_integrate(geo.minkowski_metric(4), np.zeros(4),
                                    np.array([1.0, 0, 0, 0]), 1.0, step=-0.1)

    def test_overflow_is_step_rejected_without_warning(self):
        # partials that vanish at x0 = 0 and reach 1e305 one stage later
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        metric = geo.MetricField(lambda x: eta,
                                 dg=lambda x: np.full((4, 4, 4), 1e308 * x[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepRejected) as info:
                dyn.covariant_integrate(metric, np.zeros(4),
                                        np.array([1.5, 0.3, 0.0, 0.0]), 0.01)
        assert str(info.value) == (
            "step 1 (s = 0.001): non-finite state; last finite state "
            "[[0.0, 0.0, 0.0, 0.0], [1.5, -0.3, 0.0, 0.0]]")

    @pytest.mark.parametrize("metric", [geo.minkowski_metric(4), geo.polar_metric(4)],
                             ids=["minkowski", "polar"])
    def test_non_finite_x0_rejected_at_step_zero(self, metric):
        # minkowski lowers p0_upper to a finite momentum whatever x0 is, and
        # polar's r^2 would lower it to a non-finite one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepRejected) as info:
                dyn.covariant_integrate(metric, np.array([0.0, math.inf, 0.0, 0.0]),
                                        np.array([1.5, 0.3, 0.0, 0.0]), 1.0, step=0.25)
        assert str(info.value) == (
            "step 0 (s = 0.0): non-finite state; initial state "
            "[[0.0, inf, 0.0, 0.0], [1.5, 0.3, 0.0, 0.0]]")

    def test_record_cap_refused_before_the_first_step(self):
        metric = geo.MetricField(lambda x: np.diag([1.0, -1.0, -1.0, -1.0]),
                                 dg=lambda x: pytest.fail("a step was taken"))
        with pytest.raises(UsageError, match="cap of %d" % dyn.MAX_RECORDS):
            dyn.covariant_integrate(metric, np.zeros(4), np.ones(4), 1e12)

