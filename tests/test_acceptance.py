"""End-to-end acceptance checks at the published tolerances.

Each test covers one advertised guarantee and prints a single verdict line,
so a bare run reads as a checklist. Timed suites assert their own budget.
A guarantee that is also a `verify` row runs through hjdirac.verify's suite
at the seed and size published here, so each check has one definition.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from hjdirac import dirac as dr
from hjdirac import dynamics as dyn
from hjdirac import hamilton_jacobi as hj
from hjdirac import statmech as sm
from hjdirac import verify
from hjdirac.cli import main as cli_main

BOX = hj.Box([2.0, -0.5, -0.5, -0.5], [3.0, 0.5, 0.5, 0.5])


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print("[acceptance] %s: FAIL" % label)
        raise
    print("[acceptance] %s: PASS" % label)


def assert_suite(suite, seed, size, **bounds):
    """Every row of verify's suite, run at seed and size, sits strictly below
    its tolerance, or below the tighter bound given here by its --tol key."""
    for key, row in verify.checks(suite, seed, size).items():
        assert row["residual"] < bounds.get(key, row["tolerance"]), (key, row)


def test_clifford_algebra_suite():
    with verdict("clifford algebra"):
        t0 = time.perf_counter()
        # 1000 squares and 100 spectra; the absolute 1e-12 on the squares is
        # tighter than a relative 1e-12 * max(1, |v.v|)
        assert_suite("clifford", 0, 1000, slash_square=1e-12)
        assert time.perf_counter() - t0 < 1.0


def test_field_exactness_suite():
    with verdict("field exactness"):
        t0 = time.perf_counter()
        # the family member at s = 0.7, and the area law on a 0.37 x 0.52 loop
        assert_suite("hj", 0, (0.37, 0.52))
        m0 = 1.0
        family = hj.projectile_field(m0, 0.5, 1.0, 0.2)
        report = hj.is_exact(family.at_parameter(0.0), region=BOX)
        assert report.passed
        assert report.max_loop_normalized < 1e-8
        assert report.closedness_residual < 1e-8
        pts = BOX.sample(np.random.default_rng(1), 30)
        for s in (0.0, 0.7):
            member = family.at_parameter(s)
            assert hj.mass_shell_check(member, pts) < 1e-8
            for x in pts[:10]:
                h_val = -member.one_form(x)[..., 0]
                p_vec = member.one_form(x)[..., 1:]
                assert abs(h_val ** 2 - (p_vec ** 2).sum() - m0 ** 2) < 1e-8

        curl_box = hj.Box([-1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0])
        assert not hj.is_exact(hj.curl_counterexample_field(),
                               region=curl_box).passed
        assert time.perf_counter() - t0 < 5.0


def test_plane_wave_solutions():
    with verdict("plane-wave solutions"):
        assert_suite("dirac", 3, 100)


def test_transport_criterion():
    with verdict("transport criterion"):
        rng = np.random.default_rng(42)
        mixed = 0

        def sides(report):
            transport_fails = report["lie_residual"] > 1e-8
            dirac_fails = (report["commutator_norm"] > 1e-8
                           or report["eigen_residual"] > 1e-8)
            return transport_fails, dirac_fails

        for i in range(10):
            m0 = rng.uniform(0.7, 1.8)
            base = rng.uniform(-0.3, 0.3, size=4)
            cong = dr.geodesic_congruence(m0, base)
            pts = BOX.sample(np.random.default_rng(100 + i), 10)
            report = dr.geodesic_criterion_check(cong, pts)
            assert report["verdict"] == "pass"
            assert report["lie_residual"] < 1e-6
            t_fail, d_fail = sides(report)
            mixed += t_fail != d_fail

        shear_box = hj.Box([2.2, -1.0, -1.0, -1.0], [3.0, 1.0, 1.0, 1.0])
        for i in range(10):
            m0 = rng.uniform(0.7, 1.8)
            cong = dr.sheared_congruence(m0, amplitude=0.1)
            pts = shear_box.sample(np.random.default_rng(200 + i), 10)
            report = dr.geodesic_criterion_check(cong, pts)
            assert report["verdict"] == "fail"
            assert report["lie_residual"] > 1e-6
            assert report["commutator_norm"] > 1e-3
            assert report["eigen_residual"] > 1e-4
            t_fail, d_fail = sides(report)
            assert t_fail and d_fail
            mixed += t_fail != d_fail
        assert mixed == 0


def test_integration_accuracy():
    with verdict("integration accuracy"):
        t0 = time.perf_counter()
        # closed form, canonical H drift and polar straight line at step 1e-3
        assert_suite("dynamics", 0, 1e-3)
        model = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)
        ref = model.reference

        def endpoint_error(h):
            run = dyn.integrate(model, np.zeros(4), ref.tangent(0.0), 2.0,
                                step=h, record_stride=10 ** 9)
            exact = np.concatenate([ref.position(2.0), ref.tangent(2.0)])
            return np.abs(np.concatenate([run.x[-1], run.p[-1]]) - exact).max()

        ratio = endpoint_error(0.1) / endpoint_error(0.05)
        assert 12.0 <= ratio <= 20.0
        assert time.perf_counter() - t0 < 10.0


def test_commutator_criterion():
    with verdict("commutator criterion"):
        free = dyn.integrate(dyn.free_particle_model(1.0), np.zeros(4),
                             np.array([0.0, 0.4, -0.3, 0.2]), 2.0, step=1e-2)
        assert np.abs(free.comm_norm).max() < 1e-12

        rng = np.random.default_rng(5)
        for _ in range(20):
            p0 = rng.normal(size=4)
            p0[0] = np.linalg.norm(p0[1:]) + rng.uniform(0.5, 2.0)
            for s in np.linspace(0.0, 3.0, 7):
                rho = 1.0 + 0.3 * np.sin(s)
                rho_prime = 0.3 * np.cos(s)
                raw, _ = dyn.operator_commutator(rho * p0, rho_prime * p0)
                assert raw < 1e-12

        # the projectile's late commutator stays above 1e-3 at step 1e-2
        assert_suite("dynamics", 0, 1e-2)


def test_ensemble_statistics():
    with verdict("ensemble statistics"):
        t0 = time.perf_counter()
        # a million velocities, and three (levels, particles) enumerations
        assert_suite("statmech", 11, (10 ** 6, ((5, 4), (7, 3), (4, 4))))
        variances = []
        for i, temp in enumerate((1.0, 2.0, 4.0)):
            run = sm.EnsembleConfig(n=400000, m0=1.0, T=temp, seed=60 + i)
            variances.append(sm.sample_mb(run).velocities.var())
        for temp, var in zip((1.0, 2.0, 4.0), variances):
            assert abs(var / variances[0] - temp) <= 0.02 * temp
        assert time.perf_counter() - t0 < 30.0


def test_reproducibility(tmp_path):
    with verdict("reproducibility"):
        mb_cfg = tmp_path / "mb.json"
        mb_cfg.write_text(json.dumps({"n": 20000}))
        occ_cfg = tmp_path / "occ.json"
        occ_cfg.write_text(json.dumps({"kind": "occupancy",
                                       "statistics": "BE",
                                       "levels": [0.0, 0.5, 1.0], "n": 3}))
        cov_cfg = tmp_path / "cov.json"
        cov_cfg.write_text(json.dumps({"kind": "covariant"}))
        commands = {
            "verify": ["verify", "--suite", "hj", "--seed", "3",
                       "--format", "csv"],
            "simulate": ["simulate"],
            "covariant": ["simulate", "--config", str(cov_cfg)],
            "ensemble": ["ensemble", "--config", str(mb_cfg), "--seed", "7"],
            "occupancy": ["ensemble", "--config", str(occ_cfg)],
        }
        for name, argv in commands.items():
            first = tmp_path / name / "a"
            second = tmp_path / name / "b"
            for out in (first, second):
                code = cli_main(argv + ["--out", str(out)])
                assert code == 0, (name, code)
            produced = sorted(p.name for p in first.iterdir())
            assert produced, name
            assert produced == sorted(p.name for p in second.iterdir())
            for fname in produced:
                assert (first / fname).read_bytes() == \
                    (second / fname).read_bytes(), (name, fname)
