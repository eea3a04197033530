"""Batch command line front end.

Three subcommands, all file-oriented and reproducible from (config, seed):

  verify    run a named invariant suite, write a JSON report, exit 0 iff green
  simulate  integrate a configured model, write trajectory CSV plus sidecar
  ensemble  velocity sampling or occupation enumeration artifacts

Exit codes: 0 success, 1 a check or run failed, 2 usage or config error.
Outputs carry no timestamps, so identical invocations produce identical
bytes.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import dynamics as dyn
from . import geometry as geo
from . import hamilton_jacobi as hj
from . import statmech as sm
from ._util import atomic_write_text, json_text, write_csv, write_json
from .clifford import (anticommutator, build_gamma_rep, minkowski_dot, slash,
                       slash_eigensystem)
from .config import ENSEMBLE, SIMULATE, Spec, parse
from .dirac import conventional_dirac_residual, derivative_split
from .errors import HJDiracError, StepRejected, UsageError

SUITES = ("clifford", "geometry", "hj", "dirac", "dynamics", "statmech")


class TolOverrides:
    """--tol NAME=VALUE pairs; names nothing consumed are config errors."""

    def __init__(self, pairs):
        self.values = {}
        for raw in pairs or []:
            name, sep, val = raw.partition("=")
            if not sep or not name:
                raise UsageError("--tol expects NAME=VALUE, got %r" % raw)
            try:
                self.values[name] = float(val)
            except ValueError:
                raise UsageError("--tol %s needs a numeric value, got %r"
                                 % (name, val))
            if not math.isfinite(self.values[name]):  # strict JSON report
                raise UsageError("--tol %s must be finite, got %r" % (name, val))
        self.consumed = set()

    def get(self, name, default):
        if name in self.values:
            self.consumed.add(name)
            return self.values[name]
        return default

    def reject_unknown(self):
        unknown = set(self.values) - self.consumed
        if unknown:
            raise UsageError("unknown tolerance name(s): %s"
                             % ", ".join(sorted(unknown)))


def _check(name, residual, tolerance):
    residual = float(residual)
    return {"check": name, "residual": residual, "tolerance": float(tolerance),
            "passed": bool(residual <= tolerance)}


# ---------------------------------------------------------------------------
# verification suites

def _suite_clifford(seed, tol):
    rep = build_gamma_rep()
    rng = np.random.default_rng(seed)
    anti = rep.check()
    vs = rng.normal(size=(200, 4))
    sq = max(np.abs(slash(rep, v) @ slash(rep, v)
                    - minkowski_dot(v, v) * np.eye(4)).max() for v in vs)
    spread = 0.0
    for _ in range(20):
        v = rng.normal(size=4)
        v[0] = np.linalg.norm(v[1:]) + rng.uniform(0.5, 2.0)
        root = np.sqrt(minkowski_dot(v, v))
        eigs = sorted(ev for ev, _ in slash_eigensystem(rep, v))
        spread = max(spread, np.abs(np.array(eigs)
                                    - [-root, -root, root, root]).max())
    return [
        _check("gamma anticommutators reproduce the flat quadratic form",
               anti, tol.get("anticomm", 1e-12)),
        _check("slashed vector squares to its invariant length",
               sq, tol.get("slash_square", 1e-10)),
        _check("timelike slash spectrum is two symmetric pairs",
               spread, tol.get("spectrum", 1e-10)),
    ]


def _suite_geometry(seed, tol):
    rep = build_gamma_rep()
    rng = np.random.default_rng(seed)
    metric = geo.polar_metric(4)
    chart = geo.polar_chart()
    tetrad_res = chart_res = gamma_res = 0.0
    for _ in range(20):
        x = np.array([rng.uniform(0, 2), rng.uniform(0.3, 2.0),
                      rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1)])
        tetrad_res = max(tetrad_res, geo.tetrad_at(metric, x).residual)
        chart_res = max(chart_res, np.abs(geo.chart_metric(chart, x)
                                          - metric.matrix(x)).max())
        gammas, ginv = geo.covariant_gamma(rep, chart, x)
        gamma_res = max(gamma_res,
                        max(np.abs(anticommutator(gammas[m], gammas[n])
                                   - 2.0 * ginv[m, n] * np.eye(4)).max()
                            for m in range(4) for n in range(4)))
    return [
        _check("tetrad squares to the metric at random points",
               tetrad_res, tol.get("tetrad", 1e-10)),
        _check("polar chart pullback matches the polar metric",
               chart_res, tol.get("chart", 1e-9)),
        _check("chart gammas anticommute to the inverse metric",
               gamma_res, tol.get("gamma", 1e-9)),
    ]


def _suite_hj(seed, tol):
    box = hj.Box([2.0, -0.5, -0.5, -0.5], [3.0, 0.5, 0.5, 0.5])
    geod = hj.construct_geodesic_W(1.3)
    rep_g = hj.is_exact(geod, region=box, seed=seed)
    proj = hj.projectile_field(1.0, 0.5, 1.0, 0.2).at_parameter(0.7)
    rep_p = hj.is_exact(proj, region=box, seed=seed)
    counter = hj.curl_counterexample_field()
    loop, _ = hj.loop_integral(counter, (1, 2), corner=[0.0, 0.2, -0.1, 0.0],
                               extents=(0.5, 0.4))
    area_law = abs(loop - 2.0 * 0.5 * 0.4) / (2.0 * 0.5 * 0.4)
    return [
        _check("geodesic distance field is closed around loops",
               max(rep_g.closedness_residual, rep_g.max_loop_normalized),
               tol.get("closed", 1e-8)),
        _check("geodesic distance field sits on the mass shell",
               rep_g.mass_shell_residual, tol.get("shell", 1e-8)),
        _check("projectile family member is exact and on shell",
               max(rep_p.closedness_residual, rep_p.max_loop_normalized,
                   rep_p.mass_shell_residual),
               tol.get("loop", 1e-8)),
        _check("rotational counterexample loop obeys its area law",
               area_law, tol.get("counterexample", 0.01)),
    ]


def _suite_dirac(seed, tol):
    rep = build_gamma_rep()
    rng = np.random.default_rng(seed)
    plus = minus = split_res = 0.0
    for _ in range(100):
        m0 = rng.uniform(0.5, 2.0)
        p = rng.normal(size=4)
        p[0] = np.sqrt(m0 ** 2 + (p[1:] ** 2).sum())
        pairs = slash_eigensystem(rep, p)
        for ev, xi in pairs:
            res = conventional_dirac_residual(rep, p, xi, m0=m0)
            if ev > 0:
                plus = max(plus, res)
            else:
                minus = max(minus, abs(res - 2.0 * m0))
        u = rng.normal(size=4)
        w = rng.normal(size=4)
        split = derivative_split(rep, u, w)
        split_res = max(split_res, abs(split.scalar - u @ w))
    return [
        _check("plane-wave spinors solve the momentum-space equation",
               plus, tol.get("plane_wave", 1e-10)),
        _check("opposite eigenspace misses by twice the mass",
               minus, tol.get("opposite", 1e-10)),
        _check("derivative split scalar equals the tangent contraction",
               split_res, tol.get("split", 1e-10)),
    ]


def _suite_dynamics(seed, tol):
    step = tol.get("step", 1e-3)
    model = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)
    p0 = model.reference.tangent(0.0)
    traj = dyn.integrate(model, np.zeros(4), p0, 2.0, step=step)
    exact_x = model.reference.position(traj.s)
    exact_p = model.reference.tangent(traj.s)
    traj_err = max(np.abs(traj.x - exact_x).max(),
                   np.abs(traj.p - exact_p).max())
    canonical = dyn.integrate(model, np.zeros(4), p0, 10.0, step=step,
                              canonical=True, record_stride=100)
    late = traj.comm_norm[traj.s > 0.1]
    comm_floor = 1.0 / late.min() if late.size and late.min() > 0 else np.inf

    r0, th0 = 1.0, 0.3
    vx, vy = 0.4, -0.25
    cx0, cy0 = r0 * np.cos(th0), r0 * np.sin(th0)
    u0 = np.array([1.5, (cx0 * vx + cy0 * vy) / r0,
                   (cx0 * vy - cy0 * vx) / r0 ** 2, 0.0])
    cov = dyn.covariant_integrate(geo.polar_metric(4),
                                  np.array([0.0, r0, th0, 0.0]), u0, 2.0,
                                  step=step, record_stride=10)
    cart_x = cov.x[:, 1] * np.cos(cov.x[:, 2])
    cart_y = cov.x[:, 1] * np.sin(cov.x[:, 2])
    line_err = max(np.abs(cart_x - (cx0 + vx * cov.s)).max(),
                   np.abs(cart_y - (cy0 + vy * cov.s)).max())
    return [
        _check("projectile integration matches the closed form",
               traj_err, tol.get("traj", 1e-9)),
        _check("energy is conserved under the canonical flow",
               canonical.energy_drift(), tol.get("h_drift", 1e-8)),
        _check("forced motion keeps the operator commutator positive",
               comm_floor, tol.get("comm_floor", 1e3)),
        _check("polar geodesic maps to a straight line",
               line_err, tol.get("line", 1e-6)),
    ]


def _suite_statmech(seed, tol):
    cfg = sm.EnsembleConfig(n=10 ** 5, m0=1.0, T=2.0, seed=seed)
    mom = sm.sample_mb(cfg).moments()
    var_sigmas = max(abs(v - cfg.sigma2) for v in mom["variance"]) \
        / mom["variance_se"]

    levels = np.linspace(0.0, 1.0, 5)
    be = sm.partition_enumerate(levels, 4, 0.7, "BE")
    fd = sm.partition_enumerate(levels, 4, 0.7, "FD")
    mb = sm.partition_enumerate(levels, 4, 0.7, "MB")
    count_err = max(abs(len(be.occupations) - math.comb(8, 4)),
                    abs(len(fd.occupations) - math.comb(5, 4)))
    fact_err = abs(mb.z - mb.single_particle_z() ** 4) / mb.z

    theta = 2.5
    arr = sm.exp_arrival_estimator(sm.synthetic_arrivals(theta, 2 * 10 ** 4,
                                                         seed=seed))
    arr_sigmas = abs(arr - theta) / (theta / np.sqrt(2 * 10 ** 4))

    const = sm.slice_normalize(
        lambda x, t: np.exp(-(np.asarray(x) ** 2).sum(axis=-1)),
        0.0, sm.grid_cube(6.0, 49)).constant
    slice_err = abs(const - np.pi ** 1.5) / np.pi ** 1.5
    return [
        _check("sampled velocity variance matches kB T over twice the mass",
               var_sigmas, tol.get("var_sigmas", 3.0)),
        _check("occupation counts match the combinatorial formulas",
               count_err, tol.get("enum", 0.5)),
        _check("distinguishable partition sum factorizes",
               fact_err, tol.get("factorize", 1e-12)),
        _check("arrival rate estimate is consistent",
               arr_sigmas, tol.get("arrival_sigmas", 3.0)),
        _check("gaussian slice normalizes to the closed form",
               slice_err, tol.get("slice", 1e-6)),
    ]


_SUITE_FUNCS = {
    "clifford": _suite_clifford,
    "geometry": _suite_geometry,
    "hj": _suite_hj,
    "dirac": _suite_dirac,
    "dynamics": _suite_dynamics,
    "statmech": _suite_statmech,
}


def cmd_verify(args):
    tol = TolOverrides(args.tol)
    names = SUITES if args.suite == "all" else (args.suite,)
    report = {"command": "verify", "suite": args.suite, "seed": args.seed,
              "overrides": dict(tol.values), "suites": {}}
    all_passed = True
    for name in names:
        checks = _SUITE_FUNCS[name](args.seed, tol)
        passed = all(c["passed"] for c in checks)
        all_passed &= passed
        report["suites"][name] = {"checks": checks, "passed": passed}
        print("%-9s %d/%d checks passed" % (
            name, sum(c["passed"] for c in checks), len(checks)))
    tol.reject_unknown()
    report["passed"] = all_passed
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "verify_report.json"), report)
    if args.format == "csv":
        rows = [dict(c, suite=s) for s, suite in report["suites"].items()
                for c in suite["checks"]]
        header = ["suite", "check", "residual", "tolerance", "passed"]
        write_csv(os.path.join(args.out, "verify_report.csv"), header,
                  [[row[key] for row in rows] for key in header])
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# simulate

def _line_fit_residual(s, x, y):
    design = np.stack([np.ones_like(s), s], axis=1)
    rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
    ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    return float(max(np.abs(rx).max(), np.abs(ry).max()))


def cmd_simulate(args):
    cfg = parse(SIMULATE, _load_config(args.config), "simulate config", "model")
    if cfg["kind"] == "covariant":
        metric = geo.metric_from_config(cfg["metric"])
        for key in ("x0", "p0_upper"):
            Spec("a list of %d numbers, one per metric dimension" % metric.dim,
                 lambda v: len(v) == metric.dim).check(
                     cfg[key], "simulate config 'covariant' key %r" % key)
        traj = dyn.covariant_integrate(metric, np.asarray(cfg["x0"], float),
                                       np.asarray(cfg["p0_upper"], float),
                                       cfg["s_max"], step=cfg["step"],
                                       record_stride=cfg["record_stride"])
        header = traj.header()
        diagnostics = {"k_drift": traj.k_drift(),
                       "max_geodesic_residual": traj.max_residual(),
                       "samples": int(len(traj.s))}
        if cfg["metric"].get("kind") == "polar":
            cart_x = traj.x[:, 1] * np.cos(traj.x[:, 2])
            cart_y = traj.x[:, 1] * np.sin(traj.x[:, 2])
            diagnostics["straightness_residual"] = \
                _line_fit_residual(traj.s, cart_x, cart_y)
    else:
        model = dyn.model_from_config(cfg["model"])
        p0 = cfg["p0"]
        if p0 is None:
            if getattr(model, "reference", None) is not None:
                p0 = model.m0 * model.reference.tangent(0.0)
            elif model.m0:
                p0 = [model.m0, 0.0, 0.0, 0.0]
            else:
                raise UsageError("config needs p0 for this model")
        traj = dyn.integrate(model, np.asarray(cfg["x0"], float),
                             np.asarray(p0, float), cfg["s_max"],
                             step=cfg["step"], method=cfg["method"],
                             canonical=cfg["canonical"],
                             record_stride=cfg["record_stride"])
        header = list(traj.COLUMNS)
        late = traj.comm_norm[traj.s > 0.1]
        diagnostics = {"energy_drift": traj.energy_drift(),
                       "mass_shell_drift": traj.mass_shell_drift(),
                       "comm_norm_max": float(traj.comm_norm.max()),
                       "comm_norm_late_min":
                           float(late.min()) if late.size else 0.0,
                       "samples": int(len(traj.s))}
        if (cfg["model"].get("kind") == "projectile" and cfg["method"] == "rk4"
                and not cfg["canonical"]):
            ref = model.reference
            diagnostics["closed_form_deviation"] = float(max(
                np.abs(traj.x - ref.position(traj.s)).max(),
                np.abs(traj.p - model.m0 * ref.tangent(traj.s)).max()))
        cfg["p0"] = [float(v) for v in np.asarray(p0, float)]

    os.makedirs(args.out, exist_ok=True)
    if args.format == "json":
        write_json(os.path.join(args.out, "trajectory.json"),
                   {"columns": header,
                    "rows": np.column_stack(traj.columns()).tolist()})
    else:
        write_csv(os.path.join(args.out, "trajectory.csv"), header,
                  traj.columns())
    write_json(os.path.join(args.out, "simulate_report.json"),
               {"command": "simulate", "effective_config": cfg,
                "diagnostics": diagnostics})
    print("simulate: %d samples written" % diagnostics["samples"])
    return 0


# ---------------------------------------------------------------------------
# ensemble

def cmd_ensemble(args):
    cfg = parse(ENSEMBLE, _load_config(args.config), "ensemble config", "mb")
    if cfg["kind"] == "occupancy":
        table = sm.partition_enumerate(cfg["levels"], cfg["n"], cfg["beta"],
                                       cfg["statistics"])
        os.makedirs(args.out, exist_ok=True)
        sm.write_occupancy_csv(table, os.path.join(args.out, "occupancy.csv"))
        payload = {"command": "ensemble", "effective_config": cfg,
                   "statistics": table.statistics, "states":
                       int(len(table.occupations)), "partition_sum": table.z}
        if table.statistics == "MB":
            payload["factorization_residual"] = abs(
                table.z - table.single_particle_z() ** table.n) / table.z
        write_json(os.path.join(args.out, "ensemble_report.json"), payload)
        print("ensemble: %d states enumerated" % len(table.occupations))
        return 0
    ens = sm.EnsembleConfig(n=cfg["n"], m0=cfg["m0"], T=cfg["T"],
                            kB=cfg["kB"], seed=args.seed)
    sample = sm.sample_mb(ens)
    # everything that can fail runs before the first file is written
    moments = sample.moments()
    moments_path = os.path.join(args.out, "moments.json")
    moments_text = json_text(moments_path, dict(
        moments, command="ensemble", effective_config=dict(cfg, seed=args.seed)))
    os.makedirs(args.out, exist_ok=True)
    sm.write_histogram_csv(sample, os.path.join(args.out, "histogram.csv"),
                           bins=cfg["bins"])
    if args.format == "json":
        write_json(os.path.join(args.out, "samples.json"),
                   {"velocities": sample.velocities.tolist(),
                    "energies": sample.energies.tolist()})
    else:
        sm.write_samples_csv(sample, os.path.join(args.out, "samples.csv"))
    atomic_write_text(moments_path, moments_text)
    worst = max(abs(v - ens.sigma2) for v in moments["variance"])
    if worst > 4.0 * moments["variance_se"]:
        print("ensemble: variance off by %.3g (4 se = %.3g)"
              % (worst, 4.0 * moments["variance_se"]), file=sys.stderr)
        return 1
    print("ensemble: %d samples, variance within %.2f se"
          % (ens.n, worst / moments["variance_se"]))
    return 0


# ---------------------------------------------------------------------------
# plumbing

def _load_config(path):
    if not path:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UsageError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise UsageError("config is not valid JSON: %s" % exc)


def _unique_keys(pairs):
    """json.load's object hook: an object that repeats a key is refused."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise UsageError("config repeats key %r" % key)
    return dict(pairs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hjdirac",
        description="Verification and simulation toolkit for slashed-operator "
                    "trajectory analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run an invariant suite")
    p_verify.add_argument("--suite", default="all",
                          choices=SUITES + ("all",))
    p_verify.add_argument("--tol", action="append", metavar="NAME=VALUE",
                          help="tolerance override, repeatable")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="integrate a model and write its trajectory")
    p_sim.set_defaults(func=cmd_simulate)

    p_ens = sub.add_parser("ensemble", parents=[common],
                           help="sampling and enumeration artifacts")
    p_ens.set_defaults(func=cmd_ensemble)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except StepRejected as exc:
        print("integration failed: %s" % exc, file=sys.stderr)
        return 1
    except HJDiracError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    # before ValueError: a LinAlgError is one, but like an overflow it is a
    # run failure, not a config error
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
