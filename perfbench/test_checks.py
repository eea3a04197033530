"""Self-tests of the benchmark's checks: each passes real output and rejects
a deliberately corrupted copy of it.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_checks.py

The artifacts come from small runs of the CLI in a temporary directory.
"""

import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np
import pytest

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hjdirac import cli  # noqa: E402

MODEL = {"kind": "projectile", "m0": 1.1, "u_x": 0.4, "u_y": 0.9, "g": 0.22}
POLAR = {"kind": "covariant", "metric": {"kind": "polar"},
         "x0": [0.0, 1.1, 2.5, 0.0], "p0_upper": [1.4, 0.2, 0.3, 0.0],
         "s_max": 0.5, "step": 1e-3, "record_stride": 10}
CONFIGS = {
    "projectile": {"kind": "model", "model": MODEL, "x0": [0.0] * 4,
                   "s_max": 2.0, "step": 1e-3, "record_stride": 1},
    "canonical": {"kind": "model", "model": MODEL, "x0": [0.0] * 4,
                  "s_max": 1.0, "step": 1e-3, "record_stride": 100,
                  "canonical": True},
    "polar": POLAR,
    "diagonal": dict(POLAR, metric={"kind": "diagonal", "entries": [
        [[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]],
        [[-1.0, [0, 2, 0, 0]]], [[-1.0, [0, 0, 0, 0]]]]}),
    "mb": {"kind": "mb", "n": 200000, "m0": 1.3, "T": 0.7, "kB": 1.0, "bins": 20},
    "occupancy": {"kind": "occupancy", "levels": [0.0, 0.3, 0.35, 0.9, 1.2],
                  "n": 4, "beta": 1.1, "statistics": "BE"},
}
COMMANDS = {"projectile": "simulate", "canonical": "simulate", "polar": "simulate",
            "diagonal": "simulate", "mb": "ensemble", "occupancy": "ensemble"}
CHECKS = {"projectile": checks.check_projectile, "canonical": checks.check_canonical,
          "polar": checks.check_covariant, "diagonal": checks.check_covariant,
          "mb": checks.check_mb, "occupancy": checks.check_occupancy,
          "verify": checks.check_verify}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("artifacts")
    out = {}
    for name, cfg in CONFIGS.items():
        path = base / (name + ".json")
        path.write_text(json.dumps(cfg))
        out[name] = str(base / name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([COMMANDS[name], "--config", str(path), "--seed", "7",
                             "--out", out[name]]) == 0
    out["verify"] = str(base / "verify")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--suite", "all", "--format", "csv",
                         "--out", out["verify"]]) == 0
    return out


@pytest.fixture
def copy_of(artifacts, tmp_path):
    def make(name):
        target = str(tmp_path / name)
        shutil.copytree(artifacts[name], target)
        return target
    return make


def run_check(name, out_dir):
    return CHECKS[name](out_dir, CONFIGS.get(name))


def edit_table(path, edit):
    """Parse a numeric CSV, apply edit(table) and write it back with repr."""
    with open(path) as fh:
        header = fh.readline()
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    table = edit(table)
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in table)


def edit_lines(path, edit):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(edit(lines))


def edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def scaled(col, factor, row=None):
    def edit(table):
        if row is None:
            table[:, col] *= factor
        else:
            table[row, col] *= factor
        return table
    return edit


def shifted(col, delta, row):
    def edit(table):
        table[row, col] += delta
        return table
    return edit


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_real_output_passes(artifacts, name):
    assert run_check(name, artifacts[name]) == []


def test_rewriting_without_change_passes(copy_of):
    # the corruption helpers alone must not trip a check
    out = copy_of("projectile")
    edit_table(os.path.join(out, "trajectory.csv"), lambda t: t)
    assert run_check("projectile", out) == []


def _velocities_scaled(table):
    table[:, 1:4] *= 1.05
    table[:, 4] *= 1.05 ** 2   # energies kept consistent: only the variance is off
    return table


def _probability_scaled(lines):
    state, energy, prob = lines[12].rstrip("\n").split(",")
    lines[12] = "%s,%s,%r\n" % (state, energy, float(prob) * (1 + 1e-6))
    return lines


CORRUPTIONS = [
    ("projectile", "trajectory.csv", edit_table, shifted(3, 1e-6, 700), "closed form"),
    ("projectile", "trajectory.csv", edit_table, scaled(11, 1 + 1e-6, 50), "comm_norm"),
    ("projectile", "trajectory.csv", edit_table, scaled(10, 1 + 1e-6, 50), "dm_ds"),
    ("projectile", "trajectory.csv", edit_table, lambda t: t[:-1], "rows"),
    ("canonical", "trajectory.csv", edit_table, scaled(9, 1 + 1e-9, 5), "H column"),
    ("polar", "trajectory.csv", edit_table, shifted(2, 1e-6, 20), "straight line"),
    ("diagonal", "trajectory.csv", edit_table, shifted(3, 1e-6, 20), "straight line"),
    ("polar", "trajectory.csv", edit_table, scaled(9, 1 + 1e-6, 3), "K"),
    ("polar", "simulate_report.json", edit_lines,
     lambda lines: [line.replace("0.0", "NaN", 1) for line in lines], "non-finite"),
    ("mb", "samples.csv", edit_table, _velocities_scaled, "variance"),
    ("mb", "samples.csv", edit_table, scaled(4, 1 + 1e-6, 99), "energy"),
    ("mb", "samples.csv", edit_lines, lambda lines: lines[:-1], "rows"),
    ("mb", "histogram.csv", edit_table, shifted(2, -1.0, 3), "histogram counts"),
    ("occupancy", "occupancy.csv", edit_lines,
     lambda lines: lines[:40] + lines[41:], "states"),
    ("occupancy", "occupancy.csv", edit_lines,
     lambda lines: lines[:40] + [lines[41]] + lines[41:], "states"),
    ("occupancy", "occupancy.csv", edit_lines, _probability_scaled, "probability"),
    ("occupancy", "ensemble_report.json", edit_json,
     lambda d: d.update(partition_sum=d["partition_sum"] * (1 + 1e-6)),
     "partition sum"),
    ("verify", "verify_report.json", edit_json,
     lambda d: d["suites"]["dirac"]["checks"][1].update(residual=1.0), "dirac"),
    ("verify", "verify_report.json", edit_json,
     lambda d: d["suites"]["hj"]["checks"].pop(), "21 checks"),
]


@pytest.mark.parametrize("name,artifact,editor,edit,expected", CORRUPTIONS,
                         ids=["%s-%s" % (c[0], c[4].replace(" ", "-"))
                              for c in CORRUPTIONS])
def test_corruption_is_rejected(copy_of, name, artifact, editor, edit, expected):
    out = copy_of(name)
    editor(os.path.join(out, artifact), edit)
    errors = run_check(name, out)
    assert any(expected in e for e in errors), errors


def test_canonical_drift_is_rejected(copy_of):
    # a state shifted with its H column kept consistent: only the drift is off
    out = copy_of("canonical")
    m0, g = MODEL["m0"], MODEL["g"]

    def edit(table):
        table[4, 3] += 1e-6
        table[4, 9] += m0 * g * 1e-6
        return table

    edit_table(os.path.join(out, "trajectory.csv"), edit)
    assert any("H drift" in e for e in run_check("canonical", out))


def test_byte_digests_see_a_one_byte_change(copy_of):
    out = copy_of("occupancy")
    before = checks.file_digests(out)
    edit_lines(os.path.join(out, "occupancy.csv"),
               lambda lines: lines[:-1] + [lines[-1].replace("0", "1", 1)])
    assert checks.file_digests(out) != before


def test_usage_probe_check():
    assert checks.check_usage_error(2, "usage error: record_stride must be positive") == []
    assert checks.check_usage_error(0, "") != []
    assert checks.check_usage_error(None, "uncaught ZeroDivisionError") != []


def test_closed_form_and_wedge_oracles():
    # the closed form solves dx/ds = p/m0 with dp2/ds = -m0 g ...
    s = np.linspace(0.0, 3.0, 3001)
    x, p = checks.projectile_closed_form(1.3, 0.4, 0.9, 0.2, s)
    dx = np.gradient(x, s, axis=0)
    assert np.abs(dx[1:-1] - p[1:-1] / 1.3).max() < 1e-5
    assert np.allclose(p[:, 0] ** 2 - (p[:, 1:] ** 2).sum(axis=1), 1.3 ** 2)
    # ... and the wedge ratio vanishes for parallel vectors, is 1 for
    # Euclidean-orthogonal ones
    assert checks.wedge_ratio([2.0, 1.0, 0.0, 0.0], [4.0, 2.0, 0.0, 0.0])[0] == 0.0
    assert abs(checks.wedge_ratio([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])[0] - 1.0) < 1e-15
    # h_2(x, y) = x^2 + xy + y^2
    assert checks.complete_homogeneous([2.0, 3.0], 2) == 19.0
