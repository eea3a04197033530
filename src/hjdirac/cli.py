"""Batch command line front end.

Three subcommands, all file-oriented and reproducible from (config, seed):

  verify    run a named invariant suite, write a JSON and a CSV report,
            exit 0 iff green
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
from functools import partial

import numpy as np

from . import dynamics as dyn
from . import geometry as geo
from . import statmech as sm
from . import verify
from ._util import atomic_write_text, forked, json_text, write_csv, write_json
from .config import ENSEMBLE, SIMULATE, Spec, parse
from .errors import DegenerateData, HJDiracError, StepRejected, UsageError


# ---------------------------------------------------------------------------
# verify

def _tol_overrides(pairs, suites):
    """--tol NAME=VALUE pairs as {name: value}; a name none of the suites
    reads, or a step the dynamics suite cannot take, is refused before any
    of them runs."""
    values = {}
    for raw in pairs or []:
        name, sep, val = raw.partition("=")
        if not sep or not name:
            raise UsageError("--tol expects NAME=VALUE, got %r" % raw)
        try:
            values[name] = float(val)
        except ValueError:
            raise UsageError("--tol %s needs a numeric value, got %r"
                             % (name, val))
        if not math.isfinite(values[name]):  # strict JSON report
            raise UsageError("--tol %s must be finite, got %r" % (name, val))
    known = verify.tol_keys(suites)
    unknown = set(values) - set(known)
    if unknown:
        raise UsageError("unknown tolerance name(s): %s; valid names: %s"
                         % (", ".join(sorted(unknown)), ", ".join(known)))
    if "step" in values:
        verify.check_step(values["step"])
    return values


# perfbench/spans.py times each suite by patching this dict's items
_SUITE_FUNCS = verify.SUITE_FUNCS


def cmd_verify(args):
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    tol = _tol_overrides(args.tol, names)
    report = {"command": "verify", "suite": args.suite, "seed": args.seed,
              "overrides": tol, "suites": {}}

    def run(name):
        return list(verify.checks(name, args.seed, tol=tol).values())

    def record(name, checks):
        passed = sum(c["passed"] for c in checks)
        report["suites"][name] = {"checks": checks,
                                  "passed": passed == len(checks)}
        print("%-9s %d/%d checks passed" % (name, passed, len(checks)))

    if len(names) == 1:
        record(names[0], run(names[0]))
    else:
        # The dynamics suite, the slowest, runs in a forked helper while this
        # process runs the others. Results are recorded, and a suite's
        # exception raised, in table order: a suite after it is computed
        # first, its exception held until the dynamics suite's outcome.
        at = names.index("dynamics")
        later = []
        with forked(partial(run, "dynamics")) as dynamics:
            for name in names[:at]:
                record(name, run(name))
            for name in names[at + 1:]:
                try:
                    later.append((name, run(name)))
                except Exception as exc:
                    later.append((name, exc))
                    break
            record("dynamics", dynamics())
        for name, outcome in later:
            if isinstance(outcome, Exception):
                raise outcome
            record(name, outcome)
    report["passed"] = all(s["passed"] for s in report["suites"].values())
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "verify_report.json"), report)
    rows = [dict(c, suite=s) for s, suite in report["suites"].items()
            for c in suite["checks"]]
    header = ["suite", "check", "residual", "tolerance", "passed"]
    write_csv(os.path.join(args.out, "verify_report.csv"), header,
              [[row[key] for row in rows] for key in header])
    return 0 if report["passed"] else 1


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
        # a diagnostic that overflows is refused below, by name
        with np.errstate(over="ignore", invalid="ignore"):
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
                with np.errstate(over="ignore"):  # refused below
                    p0 = model.m0 * model.reference.tangent(0.0)
                if not np.isfinite(p0).all():
                    raise UsageError("config key 'p0' is null and the model's own p0 "
                                     "%s is not finite" % p0.tolist())
            elif model.m0:
                p0 = [model.m0, 0.0, 0.0, 0.0]
            else:
                raise UsageError("config needs p0 for this model")
        traj = dyn.integrate(model, np.asarray(cfg["x0"], float),
                             np.asarray(p0, float), cfg["s_max"],
                             step=cfg["step"], canonical=cfg["canonical"],
                             record_stride=cfg["record_stride"])
        header = list(traj.COLUMNS)
        late = traj.comm_norm[traj.s > 0.1]
        # a diagnostic that overflows is refused below, by name
        with np.errstate(over="ignore", invalid="ignore"):
            diagnostics = {"energy_drift": traj.energy_drift(),
                           "mass_shell_drift": traj.mass_shell_drift(),
                           "comm_norm_max": float(traj.comm_norm.max()),
                           "comm_norm_late_min":
                               float(late.min()) if late.size else 0.0,
                           "samples": int(len(traj.s))}
            if cfg["model"].get("kind") == "projectile" and not cfg["canonical"]:
                diagnostics["closed_form_deviation"] = traj.closed_form_deviation(model)
        cfg["p0"] = [float(v) for v in np.asarray(p0, float)]

    # everything that can fail runs before the first file is written
    report_path = os.path.join(args.out, "simulate_report.json")
    for key, value in diagnostics.items():
        if not math.isfinite(value):
            raise DegenerateData("%s not written: diagnostic %s is %r"
                                 % (report_path, key, value))
    report_text = json_text(report_path, {"command": "simulate", "effective_config": cfg,
                                          "diagnostics": diagnostics})
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "trajectory.csv"), header, traj.columns())
    atomic_write_text(report_path, report_text)
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
    common.add_argument("--format", choices=("csv",), default="csv")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run an invariant suite")
    p_verify.add_argument("--suite", default="all",
                          choices=verify.SUITES + ("all",))
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
        if args.seed < 0:
            raise UsageError("--seed must be a non-negative integer, got %d" % args.seed)
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
    except MemoryError as exc:
        print("run failed: out of memory: %r" % exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
