"""Spans around hjdirac's functions, recorded from outside the program.

Tracer.install replaces each traced function at every place it is looked up:
the module attribute, every hjdirac module that imported the name (for
example hjdirac.cli.write_csv and hjdirac.dynamics.christoffel_at), a class
attribute for methods, and the CLI's suite table. Spans (name, start, end,
parent, round) live in flat arrays until the run ends; self time is a span's
duration minus that of its direct children.
"""

import inspect
import os
import sys
import time
from array import array

import numpy as np

SUITES = ("clifford", "geometry", "hj", "dirac", "dynamics", "statmech")


def _steps(args, result):
    return {"steps": int(round(args["s_max"] / args["step"]))}


def _states(args, result):
    return {"states": len(result.occupations)}


def _csv_size(args, result):
    rows = 0
    with open(args["path"], "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            rows += block.count(b"\n")
    return {"rows": rows - 1, "bytes": os.path.getsize(args["path"])}


def _chunks(args, result):
    chunk = sys.modules["hjdirac.statmech"].SAMPLE_CHUNK
    return {"chunks": max(1, -(-args["config"].n // chunk))}


# (span name, defining module, attribute, work counted per call)
LAYERS = [
    ("cli.verify", "hjdirac.cli", "cmd_verify", None),
    ("cli.simulate", "hjdirac.cli", "cmd_simulate", None),
    ("cli.ensemble", "hjdirac.cli", "cmd_ensemble", None),
    ("dynamics.integrate", "hjdirac.dynamics", "integrate", _steps),
    ("dynamics.covariant_integrate", "hjdirac.dynamics", "covariant_integrate", _steps),
    ("dynamics.operator_commutator", "hjdirac.dynamics", "operator_commutator", None),
    ("geometry.christoffel_at", "hjdirac.geometry", "christoffel_at", None),
    ("geometry.MetricField.matrix", "hjdirac.geometry", "MetricField.matrix", None),
    ("geometry.eval_poly", "hjdirac.geometry", "eval_poly", None),
    ("clifford.slash", "hjdirac.clifford", "slash", None),
    ("clifford.slash_eigensystem", "hjdirac.clifford", "slash_eigensystem", None),
    ("hamilton_jacobi.is_exact", "hjdirac.hamilton_jacobi", "is_exact", None),
    ("hamilton_jacobi.loop_integral", "hjdirac.hamilton_jacobi", "loop_integral", None),
    ("dirac.conventional_dirac_residual", "hjdirac.dirac", "conventional_dirac_residual", None),
    ("dirac.derivative_split", "hjdirac.dirac", "derivative_split", None),
    ("statmech.sample_mb", "hjdirac.statmech", "sample_mb", _chunks),
    ("statmech.partition_enumerate", "hjdirac.statmech", "partition_enumerate", _states),
    ("statmech.write_samples_csv", "hjdirac.statmech", "write_samples_csv", None),
    ("statmech.write_occupancy_csv", "hjdirac.statmech", "write_occupancy_csv", None),
    ("util.write_csv", "hjdirac._util", "write_csv", _csv_size),
    ("util.write_json", "hjdirac._util", "write_json", None),
]

# Metric names are "<span>.<statistic>"; see Tracer.round_stats for each.
PER_LAYER = (["cli.suite.%s.s" % s for s in SUITES] + [
    "dynamics.integrate.self_us_per_step",
    "dynamics.integrate.steps",
    "dynamics.operator_commutator.calls",
    "dynamics.operator_commutator.us_per_call",
    "dynamics.covariant_integrate.self_us_per_step",
    "geometry.christoffel_at.calls",
    "geometry.christoffel_at.us_per_call",
    "geometry.MetricField.matrix.calls",
    "geometry.MetricField.matrix.us_per_call",
    "geometry.eval_poly.calls",
    "geometry.eval_poly.us_per_call",
    "clifford.slash.calls",
    "clifford.slash_eigensystem.calls",
    "hamilton_jacobi.is_exact.s",
    "hamilton_jacobi.loop_integral.us_per_call",
    "dirac.conventional_dirac_residual.calls",
    "dirac.derivative_split.us_per_call",
    "statmech.sample_mb.us_per_chunk",
    "statmech.partition_enumerate.us_per_state",
    "statmech.write_samples_csv.s",
    "statmech.write_occupancy_csv.s",
    "util.write_csv.rows",
    "util.write_csv.bytes",
    "util.write_csv.us_per_row",
    "util.write_json.s",
])


def _copy(arr):
    """numpy copy of an array.array; a view would block further appends."""
    return np.array(arr, dtype=np.intc if arr.typecode == "i" else float)


def _put(place, key, fn):
    if isinstance(place, dict):
        place[key] = fn
    else:
        setattr(place, key, fn)


def metric_unit(metric):
    stat = metric.rsplit(".", 1)[1]
    if stat == "s":
        return "s"
    if stat == "bytes":
        return "bytes"
    return "us" if "us_per_" in stat else "count"


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = []          # (span index, key, amount)
        self.round_no = -1
        self._stack = []
        self._patches = []

    def wrap(self, span_name, fn, work=None):
        ident = len(self.names)
        self.names.append(span_name)
        names, parents, rounds = self.name, self.parent, self.round
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if work else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.round_no)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in work(bound.arguments, result).items():
                    self.work.append((idx, key, amount))
            return result

        return traced

    def _find_patches(self):
        """(place, key, original, wrapped) for every lookup site of LAYERS
        functions and of the CLI's suite table."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("hjdirac.") and m is not None]
        patches = []
        for span_name, module_name, attr, work in LAYERS:
            owner_path, _, leaf = attr.rpartition(".")
            owner = sys.modules[module_name]
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.wrap(span_name, original, work)
            for place in ([owner] if owner_path else modules):
                patches += [(place, key, original, wrapped)
                            for key, value in vars(place).items()
                            if value is original]
        table = sys.modules["hjdirac.cli"]._SUITE_FUNCS
        patches += [(table, suite, fn, self.wrap("cli.suite." + suite, fn))
                    for suite, fn in table.items()]
        return patches

    def install(self, round_no):
        """Route calls through the spans; they are tagged with round_no."""
        if not self._patches:
            self._patches = self._find_patches()
        self.round_no = round_no
        for place, key, _original, wrapped in self._patches:
            _put(place, key, wrapped)

    def remove(self):
        for place, key, original, _wrapped in self._patches:
            _put(place, key, original)

    def round_stats(self, round_no):
        """PER_LAYER metric values over the spans of one round."""
        name, parent = _copy(self.name), _copy(self.parent)
        dur = _copy(self.end) - _copy(self.start)
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child],
                                      minlength=len(dur))
        mask = _copy(self.round) == round_no
        width = len(self.names)
        calls = np.bincount(name[mask], minlength=width)
        total = np.bincount(name[mask], weights=dur[mask], minlength=width)
        own = np.bincount(name[mask], weights=self_time[mask], minlength=width)
        work = {}
        for idx, key, amount in self.work:
            if self.round[idx] == round_no:
                span = self.names[self.name[idx]]
                work[span, key] = work.get((span, key), 0) + amount

        def per(num, den):
            return num / den if den else 0.0

        values = {}
        for metric in PER_LAYER:
            span, stat = metric.rsplit(".", 1)
            i = self.names.index(span)
            if stat == "calls":
                values[metric] = int(calls[i])
            elif stat == "s":
                values[metric] = float(total[i])
            elif stat == "us_per_call":
                values[metric] = 1e6 * per(total[i], calls[i])
            elif stat.startswith("self_us_per_"):
                key = stat[len("self_us_per_"):] + "s"
                values[metric] = 1e6 * per(own[i], work.get((span, key), 0))
            elif stat.startswith("us_per_"):
                key = stat[len("us_per_"):] + "s"
                values[metric] = 1e6 * per(total[i], work.get((span, key), 0))
            else:
                values[metric] = work.get((span, stat), 0)
        return values

    def save(self, path, workload):
        np.savez(path, workload=workload, names=np.array(self.names),
                 name=_copy(self.name), parent=_copy(self.parent),
                 round=_copy(self.round), start=_copy(self.start),
                 end=_copy(self.end))
