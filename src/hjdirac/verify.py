"""The checks `verify` runs: one table of rows and the six suites that
compute them.

A row names its suite, its check, the --tol key of its tolerance, the
default tolerance and the claim of the paper it checks (C1-C4, as ROADMAP.md
numbers them). A suite is one function of (seed, size) that returns its
rows' residuals in table order. The clifford, geometry and dirac suites draw
all their rows from one rng stream, so a suite, not a row, is the unit that
computes. `verify` runs each suite at its SIZES entry; tests/test_acceptance.py
calls the same suites at larger sizes.
"""

import math
from collections import namedtuple

import numpy as np

from . import dynamics as dyn
from . import geometry as geo
from . import hamilton_jacobi as hj
from . import statmech as sm
from .clifford import (anticommutator, anticommutator_residual, minkowski_dot,
                       slash, slash_eigensystem)
from .dirac import (conventional_dirac_residual, derivative_split,
                    geodesic_congruence, geodesic_criterion_check,
                    sheared_congruence)
from .errors import UsageError

Row = namedtuple("Row", "suite check key default claim")

ROWS = [Row(*fields) for fields in [
    ("clifford", "gamma anticommutators reproduce the flat quadratic form",
     "anticomm", 1e-12, "C1"),
    ("clifford", "slashed vector squares to its invariant length",
     "slash_square", 1e-10, "C1"),
    ("clifford", "timelike slash spectrum is two symmetric pairs",
     "spectrum", 1e-10, "C1"),
    ("geometry", "tetrad squares to the metric at random points",
     "tetrad", 1e-10, "C1"),
    ("geometry", "polar chart pullback matches the polar metric",
     "chart", 1e-9, "C2"),
    ("geometry", "chart gammas anticommute to the inverse metric",
     "gamma", 1e-9, "C1"),
    ("hj", "geodesic distance field is closed around loops",
     "closed", 1e-8, "C2"),
    ("hj", "geodesic distance field sits on the mass shell",
     "shell", 1e-8, "C2"),
    ("hj", "projectile family member is exact and on shell",
     "loop", 1e-8, "C2"),
    ("hj", "rotational counterexample loop obeys its area law",
     "counterexample", 0.01, "C2"),
    ("dirac", "plane-wave spinors solve the momentum-space equation",
     "plane_wave", 1e-10, "C1"),
    ("dirac", "opposite eigenspace misses by twice the mass",
     "opposite", 1e-10, "C1"),
    ("dirac", "derivative split scalar equals the tangent contraction",
     "split", 1e-10, "C1"),
    ("dirac", "geodesic fan transports its momentum",
     "transport", 1e-8, "C1"),
    ("dirac", "sheared fan fails all three transport criteria",
     "shear", 1e6, "C1"),
    ("dynamics", "projectile integration matches the closed form",
     "traj", 1e-9, "C2"),
    ("dynamics", "energy is conserved under the canonical flow",
     "h_drift", 1e-8, "C2"),
    ("dynamics", "forced motion keeps the operator commutator positive",
     "comm_floor", 1e3, "C3"),
    ("dynamics", "polar geodesic maps to a straight line",
     "line", 1e-6, "C2"),
    ("statmech", "sampled velocity variance matches kB T over twice the mass",
     "var_sigmas", 3.0, "C4"),
    ("statmech", "occupation counts match the combinatorial formulas",
     "enum", 0.5, "C4"),
    ("statmech", "distinguishable partition sum factorizes",
     "factorize", 1e-12, "C4"),
]]


def clifford(seed, size):
    """size random vectors squared, then size // 10 timelike spectra."""
    rng = np.random.default_rng(seed)
    anti = anticommutator_residual()
    vs = rng.normal(size=(size, 4))
    sq = max(np.abs(slash(v) @ slash(v)
                    - minkowski_dot(v, v) * np.eye(4)).max() for v in vs)
    spread = 0.0
    for _ in range(size // 10):
        v = rng.normal(size=4)
        v[0] = np.linalg.norm(v[1:]) + rng.uniform(0.5, 2.0)
        root = np.sqrt(minkowski_dot(v, v))
        eigs = sorted(ev for ev, _ in slash_eigensystem(v))
        spread = max(spread, np.abs(np.array(eigs)
                                    - [-root, -root, root, root]).max())
    return [anti, sq, spread]


def geometry(seed, size):
    """size random points of the polar chart."""
    rng = np.random.default_rng(seed)
    metric = geo.polar_metric(4)
    tetrad_res = chart_res = gamma_res = 0.0
    for _ in range(size):
        x = np.array([rng.uniform(0, 2), rng.uniform(0.3, 2.0),
                      rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1)])
        tetrad_res = max(tetrad_res, geo.tetrad_at(metric, x).residual)
        chart_res = max(chart_res, np.abs(geo.chart_metric(geo.polar_jacobian, x)
                                          - metric.matrix(x)).max())
        gammas, ginv = geo.covariant_gamma(geo.polar_jacobian, x)
        gamma_res = max(gamma_res,
                        max(np.abs(anticommutator(gammas[m], gammas[n])
                                   - 2.0 * ginv[m, n] * np.eye(4)).max()
                            for m in range(4) for n in range(4)))
    return [tetrad_res, chart_res, gamma_res]


def hamilton_jacobi(seed, size):
    """size is the (width, height) of the counterexample's loop."""
    box = hj.Box([2.0, -0.5, -0.5, -0.5], [3.0, 0.5, 0.5, 0.5])
    rep_g = hj.is_exact(hj.construct_geodesic_W(1.3), region=box, seed=seed)
    proj = hj.projectile_field(1.0, 0.5, 1.0, 0.2).at_parameter(0.7)
    rep_p = hj.is_exact(proj, region=box, seed=seed)
    loop, _ = hj.loop_integral(hj.curl_counterexample_field(), (1, 2),
                               corner=[0.0, 0.2, -0.1, 0.0], extents=size)
    area = 2.0 * size[0] * size[1]
    return [max(rep_g.closedness_residual, rep_g.max_loop_normalized),
            rep_g.mass_shell_residual,
            max(rep_p.closedness_residual, rep_p.max_loop_normalized,
                rep_p.mass_shell_residual),
            abs(loop - area) / area]


def dirac(seed, size):
    """size random on-shell momenta, each with one random tangent pair, then
    size // 10 points of a geodesic and of a sheared fan. The geodesic fan's
    residual is its worst criterion; the sheared fan must fail all three, so
    its residual is the inverse of its least."""
    rng = np.random.default_rng(seed)
    plus = minus = split_res = 0.0
    for _ in range(size):
        m0 = rng.uniform(0.5, 2.0)
        p = rng.normal(size=4)
        p[0] = np.sqrt(m0 ** 2 + (p[1:] ** 2).sum())
        for ev, xi in slash_eigensystem(p):
            res = conventional_dirac_residual(p, xi, m0=m0)
            if ev > 0:
                plus = max(plus, res)
            else:
                minus = max(minus, abs(res - 2.0 * m0))
        u = rng.normal(size=4)
        w = rng.normal(size=4)
        split_res = max(split_res, abs(derivative_split(u, w).scalar - u @ w))

    # each point is timelike-separated from its fan's base
    m0 = rng.uniform(0.7, 1.8)
    base = rng.uniform(-0.3, 0.3, size=4)
    box = hj.Box([2.0, -0.5, -0.5, -0.5], [3.0, 0.5, 0.5, 0.5])
    fan = geodesic_criterion_check(geodesic_congruence(m0, base),
                                   box.sample(rng, size // 10))
    shear_box = hj.Box([2.2, -1.0, -1.0, -1.0], [3.0, 1.0, 1.0, 1.0])
    sheared = geodesic_criterion_check(sheared_congruence(m0, amplitude=0.1),
                                       shear_box.sample(rng, size // 10))
    criteria = ("lie_residual", "commutator_norm", "eigen_residual")
    least = min(sheared[key] for key in criteria)
    return [plus, minus, split_res, max(fan[key] for key in criteria),
            1.0 / least if least > 0 else np.inf]


# the dynamics suite's simulate configs, run at its size as step: the projectile, its
# canonical flow, and a polar geodesic from (r, theta) at Cartesian velocity (vx, vy)
_R0, _TH0, _VX, _VY = 1.0, 0.3, 0.4, -0.25
_CX0, _CY0 = _R0 * np.cos(_TH0), _R0 * np.sin(_TH0)
DYNAMICS_RUNS = (
    {"kind": "model", "s_max": 2.0, "record_stride": 1},
    {"kind": "model", "s_max": 10.0, "record_stride": 100, "canonical": True},
    {"kind": "covariant", "metric": {"kind": "polar"}, "x0": [0.0, _R0, _TH0, 0.0],
     "p0_upper": [1.5, float((_CX0 * _VX + _CY0 * _VY) / _R0),
                  float((_CX0 * _VY - _CY0 * _VX) / _R0 ** 2), 0.0],
     "s_max": 2.0, "record_stride": 10})


def check_step(step):
    """UsageError, naming --tol step, unless every run of the dynamics suite
    takes this step (dynamics.step_count's rules)."""
    for run in DYNAMICS_RUNS:
        try:
            dyn.step_count(run["s_max"], step, run["record_stride"])
        except UsageError as exc:
            raise UsageError("--tol step=%r does not fit the dynamics suite's run "
                             "over s_max = %r: %s" % (step, run["s_max"], exc)) from None


def dynamics(seed, size):
    """size is the integration step of every run. The first three rows read
    the diagnostics simulate reports; the line row checks the polar run's
    Cartesian image against the exact line."""
    (_, _, projectile), (_, _, canonical), (_, polar, _) = [
        dyn.simulate(dict(run, step=size)) for run in DYNAMICS_RUNS]
    late_min = projectile["comm_norm_late_min"]
    r, theta, s = polar.x[:, 1], polar.x[:, 2], polar.s
    line_err = max(np.abs(r * np.cos(theta) - (_CX0 + _VX * s)).max(),
                   np.abs(r * np.sin(theta) - (_CY0 + _VY * s)).max())
    return [projectile["closed_form_deviation"], canonical["energy_drift"],
            1.0 / late_min if late_min > 0 else np.inf, line_err]


def statmech(seed, size):
    """size is (velocity samples, ((levels, particles), ...) to enumerate)."""
    samples, enumerations = size
    cfg = sm.EnsembleConfig(n=samples, m0=1.0, T=2.0, seed=seed)
    mom = sm.sample_mb(cfg).moments()
    var_sigmas = sm.variance_deviation(mom) / mom["variance_se"]

    count_err = fact_err = 0
    for n_levels, n in enumerations:
        levels = np.linspace(0.0, 1.0, n_levels)
        be = sm.partition_enumerate(levels, n, 0.7, "BE")
        fd = sm.partition_enumerate(levels, n, 0.7, "FD")
        mb = sm.partition_enumerate(levels, n, 0.7, "MB")
        count_err = max(count_err,
                        abs(len(be.occupations) - math.comb(n + n_levels - 1, n)),
                        abs(len(fd.occupations) - math.comb(n_levels, n)))
        fact_err = max(fact_err, mb.factorization_residual())
    return [var_sigmas, count_err, fact_err]


SUITE_FUNCS = {"clifford": clifford, "geometry": geometry, "hj": hamilton_jacobi,
               "dirac": dirac, "dynamics": dynamics, "statmech": statmech}
SUITES = tuple(SUITE_FUNCS)
SIZES = {"clifford": 200, "geometry": 20, "hj": (0.5, 0.4), "dirac": 100,
         "dynamics": 1e-3, "statmech": (10 ** 5, ((5, 4),))}
SIZE_KEYS = {"dynamics": "step"}  # --tol step= sets the dynamics suite's size


def tol_keys(suites):
    """The --tol names the suites read, in table order."""
    return [row.key for row in ROWS if row.suite in suites] + \
        [SIZE_KEYS[s] for s in suites if s in SIZE_KEYS]


def checks(suite, seed, size=None, tol=None):
    """{--tol key: report row} of one suite, in table order. size defaults
    to the suite's SIZES entry, or the tol value of its SIZE_KEYS name;
    each row is judged against its tol value, or else its default."""
    tol = tol or {}
    if size is None:
        size = tol.get(SIZE_KEYS.get(suite), SIZES[suite])
    residuals = SUITE_FUNCS[suite](seed, size)
    out = {}
    for row, residual in zip([r for r in ROWS if r.suite == suite], residuals,
                             strict=True):
        residual, tolerance = float(residual), float(tol.get(row.key, row.default))
        out[row.key] = {"check": row.check, "residual": residual,
                        "tolerance": tolerance, "passed": bool(residual <= tolerance)}
    return out
