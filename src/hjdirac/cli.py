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
from collections import Counter
from functools import partial

import numpy as np

from . import dynamics as dyn
from . import statmech as sm
from . import verify
from ._util import forked, json_text, write_csv, write_json
from .config import ENSEMBLE, parse
from .errors import HJDiracError, StepRejected, UsageError


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
    rows = [dict(c, suite=s) for s, suite in report["suites"].items()
            for c in suite["checks"]]
    header = ["suite", "check", "residual", "tolerance", "passed"]
    columns = [[row[key] for row in rows] for key in header]
    _publish(args.out, {"verify_report.json": report},
             {"verify_report.csv": lambda path: write_csv(path, header, columns)})
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args):
    cfg, traj, diagnostics = dyn.simulate(_load_config(args.config))
    report = {"command": "simulate", "effective_config": cfg, "diagnostics": diagnostics}
    _publish(args.out, {"simulate_report.json": report},
             {"trajectory.csv": lambda path: write_csv(path, traj.header(), traj.columns())})
    print("simulate: %d samples written" % diagnostics["samples"])
    return 0


# ---------------------------------------------------------------------------
# ensemble

def cmd_ensemble(args):
    cfg = parse(ENSEMBLE, _load_config(args.config), "ensemble config", "mb")
    if cfg["kind"] == "occupancy":
        table = sm.partition_enumerate(cfg["levels"], cfg["n"], cfg["beta"],
                                       cfg["statistics"])
        report = {"command": "ensemble", "effective_config": cfg,
                  "statistics": table.statistics,
                  "states": int(len(table.occupations)), "partition_sum": table.z}
        if table.statistics == "MB":
            report["factorization_residual"] = table.factorization_residual()
        _publish(args.out, {"ensemble_report.json": report},
                 {"occupancy.csv": partial(sm.write_occupancy_csv, table)})
        print("ensemble: %d states enumerated" % len(table.occupations))
        return 0
    ens = sm.EnsembleConfig(n=cfg["n"], m0=cfg["m0"], T=cfg["T"],
                            kB=cfg["kB"], seed=args.seed)
    sample = sm.sample_mb(ens)
    moments = sample.moments()
    report = dict(moments, command="ensemble", effective_config=dict(cfg, seed=args.seed))
    _publish(args.out, {"moments.json": report},
             {"histogram.csv": lambda path: sm.write_histogram_csv(sample, path, cfg["bins"]),
              "samples.csv": partial(sm.write_samples_csv, sample)})
    worst, se = sm.variance_deviation(moments), moments["variance_se"]
    if worst > 4.0 * se:
        print("ensemble: variance off by %.3g (4 se = %.3g)" % (worst, 4.0 * se),
              file=sys.stderr)
        return 1
    print("ensemble: %d samples, variance within %.2f se" % (ens.n, worst / se))
    return 0


# ---------------------------------------------------------------------------
# plumbing

def _publish(out, reports, tables):
    """Write reports, {file name: JSON payload}, and tables, {file name:
    function writing that CSV to the path it is given}, into directory out.
    Each report is serialized once, first: one that is not strict JSON raises
    DegenerateData naming it before out exists; then out, tables, reports."""
    texts = {name: json_text(os.path.join(out, name), payload)
             for name, payload in reports.items()}
    os.makedirs(out, exist_ok=True)
    for name, write in tables.items():
        write(os.path.join(out, name))
    for name, text in texts.items():
        write_json(os.path.join(out, name), text)


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
    """json.load's object hook: an object that repeats a key is refused,
    naming the first key, in document order, that occurs more than once."""
    counts = Counter(key for key, _ in pairs)
    for key, _ in pairs:
        if counts[key] > 1:
            raise UsageError("config repeats key %r" % key)
    return dict(pairs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hjdirac",
        description="Verification and simulation toolkit for slashed-operator "
                    "trajectory analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
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

    for name, func, text in (
            ("simulate", cmd_simulate, "integrate a model and write its trajectory"),
            ("ensemble", cmd_ensemble, "sampling and enumeration artifacts")):
        configured = sub.add_parser(name, parents=[common], help=text)
        configured.add_argument("--config", help="JSON config file")
        configured.set_defaults(func=func)
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
