import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from hjdirac import dynamics as dyn
from hjdirac import statmech as sm
from hjdirac import verify
from hjdirac._util import CSV_BLOCK
from hjdirac.cli import main
from hjdirac.config import ENSEMBLE, MAX_SAMPLES, METRIC, MODEL, SIMULATE
from hjdirac.errors import StepRejected


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def assert_simulate_digests(tmp_path, config, csv_digest, report_digest):
    """simulate config writes files of these sha256 digests."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name, digest in (("trajectory.csv", csv_digest),
                         ("simulate_report.json", report_digest)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


# two pinned runs; their test's name and ids are those they were first
# pinned under, after a harmonic leapfrog case that went with that integrator
CANONICAL_AND_POLAR = [
    # the benchmark's projectile-canonical run at seed 1
    ({"model": {"kind": "projectile", "m0": 1.0047, "u_x": 0.6802,
                "u_y": 0.8577, "g": 0.2449}, "s_max": 10.0,
      "canonical": True, "record_stride": 100},
     "7598a8d6c2ab1b274b93327d19c51aac52ec1502215f1da6d751e97d6ef68655",
     "b77a81b59bc34d057484db341d58501f0c7068a7d7b4e29c7ba4347a9c793b50"),
    ({"kind": "covariant", "metric": {"kind": "polar", "dim": 3},
      "x0": [0.0, 1.2, -0.4], "p0_upper": [1.4, -0.2, 0.25], "s_max": 1.0,
      "record_stride": 5},
     "33082ae33a40a5f9b10e5290d46c714f37e30f6effa19faa519d65fe14451ab4",
     "3be3763a44c695923724fafade0b99bb1a82e89305a211649c7c80767f7cf31f"),
]


# sha256 of each report of verify --suite all --format csv --seed 0
VERIFY_DIGESTS = (
    ("verify_report.json",
     "17c96aa7be4cc8d5481cc21718ca97cc9360499f145f654985ef484e1b2df142"),
    ("verify_report.csv",
     "818c39954041e3439a6542795b764d783697f28c35e907ee330794ea90f4504a"))


class TestVerify:
    def test_all_suites_green(self, tmp_path):
        assert main(["verify", "--suite", "all", "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "verify_report.json")
        assert report["passed"] is True
        assert report["schema_version"] == 1
        assert set(report["suites"]) == {"clifford", "geometry", "hj",
                                         "dirac", "dynamics", "statmech"}
        for block in report["suites"].values():
            assert block["passed"]
            for check in block["checks"]:
                assert check["residual"] <= check["tolerance"]

    def test_coarse_step_fails(self, tmp_path):
        code = main(["verify", "--suite", "dynamics", "--tol", "step=0.5",
                     "--out", str(tmp_path)])
        assert code == 1
        report = read_json(tmp_path / "verify_report.json")
        checks = {c["check"]: c for c in
                  report["suites"]["dynamics"]["checks"]}
        assert not checks["projectile integration matches the closed form"]["passed"]
        assert report["overrides"] == {"step": 0.5}

    def test_report_bytes_are_pinned(self, tmp_path):
        # sha256 of the report of every suite at seed 0: a change to any
        # row's residual, tolerance, name or order, or to the report's
        # format, shows here. Rows built on eigensolvers and inverses may
        # differ in their last bits under another LAPACK build.
        assert main(["verify", "--suite", "all", "--format", "csv", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        for name, digest in VERIFY_DIGESTS:
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_unknown_tolerance_rejected(self, tmp_path, capsys):
        # refused before any suite runs: no stdout and no output directory
        out = tmp_path / "out"
        for suite, name in (("clifford", "bogus"), ("all", "bogus"), ("clifford", "step")):
            assert main(["verify", "--suite", suite, "--tol", name + "=1",
                         "--out", str(out)]) == 2
            stdout, err = capsys.readouterr()
            assert stdout == ""
            names = verify.SUITES if suite == "all" else (suite,)
            assert "unknown tolerance name(s): %s; valid names: %s" % (
                name, ", ".join(verify.tol_keys(names))) in err
            assert not out.exists()

    @pytest.mark.parametrize("step, rule", [
        ("0.3", "s_max must be a positive multiple of step"),
        ("0", "step must be positive"),
        ("-1e-3", "step must be positive"),
        ("5e-324", "s_max / step overflows, more than the cap of %d steps"
         % dyn.MAX_STEPS)])
    def test_bad_step_rejected_before_any_suite(self, tmp_path, capsys, step, rule):
        out = tmp_path / "out"
        assert main(["verify", "--suite", "all", "--tol", "step=" + step,
                     "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert "--tol step=%r does not fit the dynamics suite's run over " \
            "s_max = 2.0: %s" % (float(step), rule) in err
        assert not out.exists()

    def test_malformed_tolerance(self, tmp_path):
        assert main(["verify", "--suite", "clifford", "--tol", "step",
                     "--out", str(tmp_path)]) == 2
        assert main(["verify", "--suite", "clifford", "--tol", "step=fast",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_two(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["verify", "--suite", "clifford", "--tol",
                     "anticomm=" + value, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_default_format_writes_the_pinned_reports(self, tmp_path, sequential):
        code, stdout, files = run_verify(tmp_path, ["verify", "--suite", "all",
                                                    "--seed", "0"])
        assert (code, stdout, files) == sequential
        assert sorted(files) == sorted(name for name, _ in VERIFY_DIGESTS)

    def test_csv_format(self, tmp_path):
        assert main(["verify", "--suite", "clifford", "--format", "csv",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "verify_report.csv").read_text().splitlines()
        assert lines[0] == "suite,check,residual,tolerance,passed"
        assert len(lines) == 4

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["verify", "--suite", "hj", "--seed", "3",
                         "--format", "csv", "--out", str(out)]) == 0
        assert (a / "verify_report.json").read_bytes() == \
            (b / "verify_report.json").read_bytes()
        assert (a / "verify_report.csv").read_bytes() == \
            (b / "verify_report.csv").read_bytes()


# -- verify --suite all runs the dynamics suite in a forked helper

VERIFY_ALL = ["verify", "--suite", "all", "--format", "csv", "--seed", "0"]


def run_verify(out, argv=VERIFY_ALL):
    """(exit code, stdout, {file name: bytes}) of one verify run into out."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, stdout.getvalue(), files


@pytest.fixture(scope="module")
def sequential(tmp_path_factory):
    """run_verify's result with one CPU offered, so no helper is forked;
    its reports are the pinned ones."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        result = run_verify(tmp_path_factory.mktemp("sequential"))
    for name, digest in VERIFY_DIGESTS:
        assert hashlib.sha256(result[2][name]).hexdigest() == digest
    return result


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs offered; returns the pids of the children this process forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def patch_suite(monkeypatch, name, act):
    """Make suite name call act(in_child) before it runs; in_child is true
    in a process forked from this one."""
    parent, suite = os.getpid(), verify.SUITE_FUNCS[name]

    def patched(seed, size):
        act(os.getpid() != parent)
        return suite(seed, size)

    monkeypatch.setitem(verify.SUITE_FUNCS, name, patched)


class SuiteError(Exception):
    pass


def lines_before(stdout, suite):
    """The suite lines of stdout that come before suite's."""
    lines = stdout.splitlines(keepends=True)
    return "".join(lines[:[line.split()[0] for line in lines].index(suite)])


class TestVerifyHelper:
    def test_dynamics_runs_in_one_helper(self, tmp_path, forks, sequential):
        assert run_verify(tmp_path) == sequential
        assert len(forks) == 1

    def test_one_cpu_or_one_suite_forks_nothing(self, tmp_path, forks, monkeypatch,
                                               sequential):
        argv = ["verify", "--suite", "dynamics", "--seed", "0"]
        assert run_verify(tmp_path / "one", argv)[:2] == (
            0, "".join(line for line in sequential[1].splitlines(keepends=True)
                       if line.startswith("dynamics ")))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_verify(tmp_path / "all") == sequential
        assert forks == []

    def test_failed_fork_runs_the_suite_here(self, tmp_path, monkeypatch, sequential):
        def fork():
            raise OSError(errno.EAGAIN, "no process")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fork)
        assert run_verify(tmp_path) == sequential

    @pytest.mark.parametrize("death", [lambda: os.kill(os.getpid(), signal.SIGKILL),
                                       lambda: os._exit(3)])
    def test_dead_helper_is_redone_here(self, tmp_path, forks, monkeypatch, sequential,
                                        death):
        patch_suite(monkeypatch, "dynamics", lambda in_child: in_child and death())
        assert run_verify(tmp_path) == sequential
        assert len(forks) == 1

    def test_error_in_the_helper_is_raised_here_with_its_type(self, tmp_path, forks,
                                                              monkeypatch, capsys,
                                                              sequential):
        def act(in_child):
            raise SuiteError("in the child" if in_child else "here")

        patch_suite(monkeypatch, "dynamics", act)
        with pytest.raises(SuiteError, match="here"):
            main(VERIFY_ALL + ["--out", str(tmp_path / "out")])
        assert capsys.readouterr().out == lines_before(sequential[1], "dynamics")
        assert len(forks) == 1
        assert not (tmp_path / "out").exists()

    # dynamics: raised in the helper, then again here
    @pytest.mark.parametrize("suite", ["hj", "dynamics", "statmech"])
    def test_a_suite_error_exits_where_the_table_puts_it(self, tmp_path, forks,
                                                        monkeypatch, sequential, suite):
        def act(in_child):
            raise StepRejected("%s failed" % suite)

        patch_suite(monkeypatch, suite, act)
        code, stdout, files = run_verify(tmp_path / "out")
        assert (code, stdout, files) == (1, lines_before(sequential[1], suite), {})
        assert len(forks) == 1

    def test_dynamics_error_comes_before_a_later_suite_error(self, tmp_path, forks,
                                                            monkeypatch, capsys,
                                                            sequential):
        def fail(error):
            def act(in_child):
                raise error
            return act

        patch_suite(monkeypatch, "dynamics", fail(SuiteError("dynamics")))
        patch_suite(monkeypatch, "statmech", fail(StepRejected("statmech")))
        with pytest.raises(SuiteError, match="dynamics"):
            main(VERIFY_ALL + ["--out", str(tmp_path)])
        assert capsys.readouterr().out == lines_before(sequential[1], "dynamics")

    @pytest.mark.parametrize("suite, error", [("geometry", SuiteError),
                                              ("hj", KeyboardInterrupt),
                                              ("statmech", KeyboardInterrupt)])
    def test_interrupt_or_error_here_kills_the_helper(self, tmp_path, forks,
                                                     monkeypatch, suite, error):
        def stall(in_child):
            if in_child:
                time.sleep(60)  # still running when this process fails

        def act(in_child):
            raise error

        patch_suite(monkeypatch, "dynamics", stall)
        patch_suite(monkeypatch, suite, act)
        start = time.monotonic()
        with pytest.raises(error):
            run_verify(tmp_path)
        assert time.monotonic() - start < 30
        assert len(forks) == 1  # and no_child_left sees it reaped


class TestSimulate:
    def test_default_projectile(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "s,x0,x1,x2,x3,p0,p1,p2,p3,H,dm_ds,comm_norm"
        report = read_json(tmp_path / "simulate_report.json")
        diag = report["diagnostics"]
        assert diag["closed_form_deviation"] < 1e-9
        assert diag["mass_shell_drift"] < 1e-12
        assert diag["comm_norm_late_min"] > 1e-3
        cfg = report["effective_config"]
        assert cfg["step"] == 1e-3 and len(cfg["p0"]) == 4

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--out", str(out)]) == 0
        assert (a / "trajectory.csv").read_bytes() == \
            (b / "trajectory.csv").read_bytes()
        assert (a / "simulate_report.json").read_bytes() == \
            (b / "simulate_report.json").read_bytes()

    # sha256 of the artifacts of model runs, which make no BLAS calls, so
    # their bits do not depend on the linear algebra library: any change to
    # the arithmetic of a model run shows here, not only in reruns
    @pytest.mark.parametrize("config, csv_digest, report_digest", [
        ({}, "19f3d61f842b5c49e23341c9a91b7b613ad31ad926e0aadb297c1eb959a62e9f",
         "30a5f1daacecb8cf2a89d39effd52d64d426f456763d413281c112c241d3232c"),
        ({"canonical": True},
         "17566a6d46b6bedf9ddd5a59adea046b5f1aed906df496147d3258fe639dec47",
         "3df964f8912ffdee049c02e30ff129e640e0b3c99462db02a9c78367bfd84859"),
    ])
    def test_model_run_bytes_are_pinned(self, tmp_path, config, csv_digest,
                                        report_digest):
        assert_simulate_digests(tmp_path, config, csv_digest, report_digest)

    @pytest.mark.parametrize("config, csv_digest, report_digest", CANONICAL_AND_POLAR,
                             ids=["config%d-%s-%s" % (i, csv, report) for i, (_, csv, report)
                                  in enumerate(CANONICAL_AND_POLAR, 1)])
    def test_leapfrog_canonical_and_polar_bytes_are_pinned(self, tmp_path, config,
                                                           csv_digest, report_digest):
        # digests taken before the model callables took components and the
        # diagonal metrics inverted in closed form
        assert_simulate_digests(tmp_path, config, csv_digest, report_digest)

    @pytest.mark.parametrize("config, csv_digest, report_digest", [
        # the benchmark's covariant-diagonal run at seed 1
        ({"kind": "covariant", "metric": {"kind": "diagonal", "entries": [
            [[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]], [[-1.0, [0, 2, 0, 0]]],
            [[-1.0, [0, 0, 0, 0]]]]}, "x0": [0.0, 0.9247, 2.6598, 0.0],
          "p0_upper": [1.5298, 0.3397, -0.078512, 0.0], "s_max": 2.0, "step": 0.001,
          "record_stride": 10},
         "0233ac14e91cb6cbf39b9318e719fc173e55b71efa8ef7b929c1f41a4cbd8d9c",
         "da990777e76fb8baa843207367f7a2df3bc367cf0803840222c9d6995d4bd6dc"),
    ])
    def test_diagonal_and_quadratic_bytes_are_pinned(self, tmp_path, config,
                                                     csv_digest, report_digest):
        # digests taken while the integrator stepped a numpy state array; the
        # name is the one pinned then, beside a retired quadratic leapfrog case
        assert_simulate_digests(tmp_path, config, csv_digest, report_digest)

    def test_python_float_fault_exits_one_naming_the_step(self, tmp_path, capsys,
                                                          monkeypatch):
        # a flow dividing by x1, which reaches exactly 0 in step 4's last stage
        zero = (0.0, 0.0, 0.0, 0.0)  # the partials of H = 0
        model = dyn.HamiltonianModel(
            lambda x, p: 0.0, lambda x, p: zero, lambda x, p: zero,
            flow=lambda x, p: ((0.0, -1.0, 0.0, 0.0), (0.0, 1.0 / x[1], 0.0, 0.0)))
        monkeypatch.setattr(dyn, "model_from_config", lambda cfg: model)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": [0.0, 0.5, 0.0, 0.0], "p0": [1.0, 0.0, 0.0, 0.0],
                                   "s_max": 1.0, "step": 0.125}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("integration failed: step 4 (s = 0.5): non-finite state; "
                              "last finite state [[0.0, 0.125, 0.0, 0.0], [1.0, ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_closed_form_deviation_only_for_rk4_flow_runs(self, tmp_path):
        reported = {}
        for canonical in (False, True):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"method": "rk4", "canonical": canonical,
                                       "s_max": 0.1}))
            out = tmp_path / str(canonical)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            report = read_json(out / "simulate_report.json")
            assert report["effective_config"]["method"] == "rk4"
            reported[canonical] = "closed_form_deviation" in report["diagnostics"]
        assert reported == {False: True, True: False}

    def test_free_particle_commutator_column_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "free", "m0": 1.0},
                                   "p0": [1.3, 0.4, 0.1, 0.0],
                                   "step": 0.01}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert all(float(r.rsplit(",", 1)[1]) == 0.0 for r in rows)

    def test_covariant_polar_straightness(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "covariant"}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].endswith(",K,geodesic_residual")
        diag = read_json(tmp_path / "simulate_report.json")["diagnostics"]
        assert diag["straightness_residual"] < 1e-6
        assert diag["k_drift"] < 1e-8

    def test_guard_trip_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p0": [1e-13, 0.0, 0.0, 0.0]}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "step 0 (s = 0.0): energy component vanished" in err
        assert "last finite state [[0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, 0.0, 0.0]]" in err

    def test_record_cap_exits_two_at_once(self, tmp_path, capsys):
        # 1e15 steps: refused before the first one, so this returns at once;
        # at a stride of 1e12 they make 1,001 records, and the step cap holds;
        # a subnormal step makes s_max / step overflow to inf
        for extra, text in (({}, "more than the cap of %d" % dyn.MAX_RECORDS),
                            ({"record_stride": 10 ** 12}, "%d steps, more than the cap of %d"
                             % (10 ** 15, dyn.MAX_STEPS)),
                            ({"s_max": 2.0, "step": 5e-324}, "s_max / step overflows")):
            for kind in ("model", "covariant"):
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps(dict({"s_max": 1e12}, kind=kind, **extra)))
                out = tmp_path / kind
                assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
                assert text in capsys.readouterr().err
                assert not out.exists()

    def test_config_errors_exit_two(self, tmp_path):
        bad_model = tmp_path / "m.json"
        bad_model.write_text(json.dumps({"model": {"kind": "warp"}}))
        assert main(["simulate", "--config", str(bad_model),
                     "--out", str(tmp_path)]) == 2
        unknown = tmp_path / "u.json"
        unknown.write_text(json.dumps({"stepp": 0.1}))
        assert main(["simulate", "--config", str(unknown),
                     "--out", str(tmp_path)]) == 2
        broken = tmp_path / "b.json"
        broken.write_text("{ not json")
        assert main(["simulate", "--config", str(broken),
                     "--out", str(tmp_path)]) == 2
        listy = tmp_path / "l.json"
        listy.write_text("[1, 2]")
        assert main(["simulate", "--config", str(listy),
                     "--out", str(tmp_path)]) == 2
        assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("stride", [0, 2.5])
    def test_bad_record_stride_exits_two(self, tmp_path, capsys, stride):
        for kind in ("model", "covariant"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"kind": kind, "s_max": 0.01,
                                       "record_stride": stride}))
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
            assert "record_stride" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nested_unknown_keys_exit_two(self, tmp_path, capsys):
        model = {"kind": "projectile", "m0": 1.0, "u_x": 0.5, "u_y": 1.0,
                 "g": 0.2, "mass": 2.0}
        for supplied in ({"kind": "model", "model": model},
                         {"kind": "covariant",
                          "metric": {"kind": "polar", "entries": []}}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(dict(supplied, s_max=0.01)))
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2
            assert "unknown" in capsys.readouterr().err

    def test_singular_solve_exits_one(self, tmp_path, capsys):
        # g22 = 0: the first inverse metric solve raises LinAlgError
        entries = [[[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]],
                   [[0.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "covariant", "s_max": 0.01,
                                   "metric": {"kind": "diagonal",
                                              "entries": entries}}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "run failed" in err
        assert "step 0 (s = 0.0): Singular matrix; last finite state " \
            "[[0.0, 1.0, 0.3, 0.0], [1.5, -0.3055, 0.0, 0.0]]" in err

    def test_coordinate_overflow_exits_one(self, tmp_path, capsys):
        # r = 1e100: the polar metric's Python-float r ** 2 overflows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "covariant", "s_max": 0.01,
                                   "p0_upper": [1e100, 0, 1e100, 0]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "run failed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, text", [
        # g22 = -x1 reaches exactly 0 in step 4's last stage
        ({"metric": {"kind": "diagonal", "entries": [
            [[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]], [[-1.0, [0, 1, 0, 0]]],
            [[-1.0, [0, 0, 0, 0]]]]}, "x0": [0.0, 0.5, 0.0, 0.0],
          "p0_upper": [1.0, -1.0, 0.0, 0.0], "s_max": 1.0, "step": 0.125},
         "step 4 (s = 0.5): Singular matrix; last finite state "
         "[[0.375, 0.125, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]"),
        # r ** 2 overflows in a stage of step 1, as Python floats raise
        ({"s_max": 0.01, "p0_upper": [1e100, 0, 1e100, 0]},
         "step 1 (s = 0.001): (34, 'Numerical result out of range'); last finite "
         "state [[0.0, 1.0, 0.3, 0.0], [1e+100, 0.0, -1e+100, 0.0]]"),
    ])
    def test_stage_faults_exit_one_naming_the_step(self, tmp_path, capsys, config, text):
        # messages taken while every stage went through numpy
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(config, kind="covariant")))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "run failed: %s\n" % text
        assert not out.exists()

    @pytest.mark.parametrize("metric, x0", [
        ({"kind": "diagonal", "entries": [
            [[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]], [[-1.0, [0, 2000, 0, 0]]],
            [[-1.0, [0, 0, 0, 0]]]]}, [0.0, 1.5, 0.3, 0.0]),
        ({"kind": "custom-polynomial", "entries": [
            [[[1.0, [0, 0, 0, 0]]], [], [], []], [[], [[-1.0, [0, 0, 0, 0]]], [], []],
            [[], [], [[-1.0, [0, 2000, 0, 0]]], []], [[], [], [], [[-1.0, [0, 0, 0, 0]]]]]},
         [0.0, 1.5, 0.3, 0.0]),
        ({"kind": "polar"}, [0.0, 1e200, 0.3, 0.0]),
    ])
    def test_lowering_fault_exits_one_naming_step_zero(self, tmp_path, capsys, metric, x0):
        # x1 ** 2000 or r ** 2 overflows lowering p0_upper, before the first step
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "covariant", "s_max": 0.01,
                                   "metric": metric, "x0": x0}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("run failed: step 0 (s = 0.0): (34, 'Numerical result out of "
                       "range'); last finite state [%r, [1.5, 0.3055, -0.1935, 0.0]]\n"
                       % x0)
        assert "Traceback" not in err
        assert not out.exists()

    def test_lowering_to_inf_exits_one_naming_step_zero(self, tmp_path, capsys):
        # g22 p2 = -100 * 1e307 overflows to -inf with no exception: refused at
        # step 0, with no warning on stderr
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "covariant", "s_max": 0.01,
                                   "x0": [0, 10, 0.3, 0], "p0_upper": [1.5, 0.3, 1e307, 0]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "integration failed: step 0 (s = 0.0): non-finite lowered momentum; last "
            "finite state [[0.0, 10.0, 0.3, 0.0], [1.5, 0.3, 1e+307, 0.0]]\n")
        assert not out.exists()

    def test_non_finite_diagnostic_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # p.p / 2 overflows to inf in every record, so the energy drift is NaN:
        # refused by name, with no warning and before any file or directory
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "free", "m0": 1.0},
                                   "p0": [1e300, 1e300, 1e300, 1e300],
                                   "s_max": 0.05, "step": 0.01}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: %s not written: diagnostic energy_drift is nan\n"
            % (out / "simulate_report.json"))
        assert not out.exists()

    def test_refused_size_exits_two_before_the_lowering(self, tmp_path, capsys):
        # r ** 2 would overflow lowering p0_upper, but the size is refused first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "covariant", "s_max": 1e12,
                                   "x0": [0, 1e200, 0.3, 0]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "more than the cap of %d" % dyn.MAX_RECORDS in capsys.readouterr().err
        assert not out.exists()

    def test_two_term_diagonal_bytes_are_pinned(self, tmp_path):
        # g00 = 1 + 0.2 x1 and g22 = -x1^2: dp_1/ds sums two terms; digests
        # taken while every stage went through numpy's matrix products
        assert_simulate_digests(
            tmp_path,
            {"kind": "covariant", "metric": {"kind": "diagonal", "entries": [
                [[1.0, [0, 0, 0, 0]], [0.2, [0, 1, 0, 0]]], [[-1.0, [0, 0, 0, 0]]],
                [[-1.0, [0, 2, 0, 0]]], [[-1.0, [0, 0, 0, 0]]]]},
             "x0": [0.0, 1.1, 0.4, 0.0], "p0_upper": [1.4, 0.25, -0.3, 0.1],
             "s_max": 2.0, "record_stride": 10},
            "ecb21a486c8d027ec400b395ebaf5fa8d6c3bc05e0ba03f913c23f74522ff70e",
            "abf7d80617d366054067f5b4e54d1334d6b058df8476fbba2762004e2409e21d")

    @pytest.mark.parametrize("config, csv_digest, report_digest", [
        # the benchmark's projectile-records run at seed 1: 20,001 rows, more
        # than one CSV_BLOCK, so two processes format its table
        ({"model": {"kind": "projectile", "m0": 1.0047, "u_x": 0.6802,
                    "u_y": 0.8577, "g": 0.2449}, "s_max": 20.0},
         "ed44f60cc26efc535d811f773715e75fce9a456556bd8ee1dd1c5801e2c243b0",
         "31aefd6495e3c58f649d1d67fea7a65c21b0d11e0be15aeb48495fef24b13857"),
        ({"kind": "covariant", "metric": {"kind": "minkowski", "dim": 4},
          "x0": [0.0, 1.0, 0.3, 0.1], "p0_upper": [1.5, 0.3, -0.2, 0.1], "s_max": 1.0,
          "record_stride": 5},
         "70cb96f3824f46c94f364d9b032a163e48e3dc516d19af4bf5c298e2c37afe5b",
         "3ecafe17b33d45ec739f97523a00cf458e5462413fb22416317fbd0bed280009"),
        # g01 = g10 = 0.05 x1: an off-diagonal term
        ({"kind": "covariant", "metric": {"kind": "custom-polynomial", "entries": [
            [[[1.0, [0, 0, 0, 0]]], [[0.05, [0, 1, 0, 0]]], [], []],
            [[[0.05, [0, 1, 0, 0]]], [[-1.0, [0, 0, 0, 0]]], [], []],
            [[], [], [[-1.0, [0, 2, 0, 0]]], []], [[], [], [], [[-1.0, [0, 0, 0, 0]]]]]},
          "x0": [0.0, 1.1, 0.4, 0.0], "p0_upper": [1.4, 0.25, -0.3, 0.1], "s_max": 1.0,
          "record_stride": 5},
         "8e906a1c1414f958edd3b83e31b5475dfa08fa04d306dc04322af6af98d85c44",
         "cdaed92837a99f93c19a198b5c609c6b2a29c8da187b1e874048077b194641ba"),
    ])
    def test_split_table_and_covariant_bytes_are_pinned(self, tmp_path, config,
                                                        csv_digest, report_digest):
        # digests taken while tables of up to four CSV_BLOCKs stayed in one
        # process and the diagonal metrics' records inverted in closed form
        assert_simulate_digests(tmp_path, config, csv_digest, report_digest)

    def test_covariant_header_follows_dimension(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "covariant",
                                   "metric": {"kind": "polar", "dim": 3},
                                   "x0": [0.0, 1.0, 0.3],
                                   "p0_upper": [1.5, 0.3, -0.2],
                                   "s_max": 0.1, "step": 0.01}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "s,x0,x1,x2,p0,p1,p2,K,geodesic_residual"
        assert {len(line.split(",")) for line in lines} == {9}


# test_mb_bytes_are_pinned's run and the sha256 of the files it writes
MB_PINNED_CONFIG = {"n": 70001, "T": 1.5, "m0": 0.8}
MB_PINNED_DIGESTS = (
    ("samples.csv", "32520bcd1f4e07fbe4ff999d9f387bce15b5cc2a6c1e73774534ea501fe26e88"),
    ("histogram.csv", "fe2064acb5fda3c97a5055ea6aacc4eaeea5698ee0fc92fe8a5a3962c266f2bb"),
    ("moments.json", "191efd589194e3ff2b73b13c161932ba382dedb3d836da345a333434beea16f5"))


def dispatch_module():
    """numpy's _multiarray_umath, which lists the CPU-specific kernel targets
    the build can dispatch to (__cpu_dispatch__) and which of them are on
    (__cpu_features__), or None where numpy does not list them."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        if hasattr(module, "__cpu_dispatch__"):
            return module
    return None


# mb (n, seed) runs at m0 = 1 and T = 2 whose excess kurtosis had other bits
# with the dispatch targets off while the moments took numpy's ** 4; the
# pinned run's did not
DISPATCH_SENSITIVE = [(5, 0), (1000, 2)]
# a child's script: print, as one JSON line, the dispatch targets numpy left
# on and the moments of the DISPATCH_SENSITIVE runs, then run the CLI
DISPATCH_CHILD = """
import json, sys
from hjdirac import statmech as sm
from hjdirac.cli import main
umath = sys.modules[%r]
print(json.dumps([[t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]],
                  [sm.sample_mb(sm.EnsembleConfig(n=n, m0=1.0, T=2.0, seed=seed)).moments()
                   for n, seed in %r]]))
sys.exit(main(sys.argv[1:]))
"""


class TestEnsemble:
    def test_mb_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20000, "T": 2.0}))
        assert main(["ensemble", "--config", str(cfg), "--seed", "4",
                     "--out", str(tmp_path)]) == 0
        samples = (tmp_path / "samples.csv").read_text().splitlines()
        assert samples[0] == "index,vx,vy,vz,energy"
        assert len(samples) == 20001
        hist = (tmp_path / "histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count,expected"
        moments = read_json(tmp_path / "moments.json")
        assert moments["within_3se"]
        assert moments["effective_config"]["seed"] == 4
        # samples.csv has more than one CSV_BLOCK of rows: two processes
        # format it; digests taken while it stayed in one process, and
        # moments.json's since its fourth powers are two squarings
        for name, digest in (
                ("samples.csv",
                 "b0f260970a1b06a956602a6dd5206881ad1bf25b6392c83d4db09d9f5f7e55b4"),
                ("histogram.csv",
                 "7a8088cf8046fc460a2879f45c218869615a2879977547786cc75bf4f5afc827"),
                ("moments.json",
                 "e9ce83b79a4c9e01dd2d29f32ab000b7bf0b1cae2f4252f271db184ea89fcdab")):
            digest_now = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest_now == digest, name

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5000}))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["ensemble", "--config", str(cfg), "--seed", "9",
                         "--out", str(out)]) == 0
        for name in ("samples.csv", "histogram.csv", "moments.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_mb_bytes_are_pinned(self, tmp_path):
        # sha256 of a run over two full SAMPLE_CHUNK substreams and part of a
        # third: a change to the sampled bits, the moments' summation order
        # or the formatting shows here (moments.json's digest re-taken when
        # its fourth powers became two squarings)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MB_PINNED_CONFIG))
        assert main(["ensemble", "--config", str(cfg), "--seed", "4",
                     "--out", str(tmp_path / "out")]) == 0
        for name, digest in MB_PINNED_DIGESTS:
            digest_now = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            assert digest_now == digest, name

    def test_mb_bytes_do_not_depend_on_cpu_dispatch(self, tmp_path):
        # the pinned run again in a child whose numpy runs its baseline
        # kernels only, every CPU-specific dispatch target switched off
        umath = dispatch_module()
        if umath is None:
            pytest.skip("this numpy does not list its CPU dispatch targets")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MB_PINNED_CONFIG))
        proc = subprocess.run(
            [sys.executable, "-c", DISPATCH_CHILD % (umath.__name__, DISPATCH_SENSITIVE),
             "ensemble", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "out")],
            env=dict(os.environ,
                     NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__)),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        targets_on, moments = json.loads(proc.stdout.splitlines()[0])
        assert targets_on == []
        assert moments == [
            sm.sample_mb(sm.EnsembleConfig(n=n, m0=1.0, T=2.0, seed=seed)).moments()
            for n, seed in DISPATCH_SENSITIVE]
        for name, digest in MB_PINNED_DIGESTS:
            digest_now = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            assert digest_now == digest, name

    def test_occupancy_enumeration(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "occupancy", "statistics": "FD",
                                   "levels": [0.0, 0.5, 1.0], "n": 2}))
        assert main(["ensemble", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "occupancy.csv").read_text().splitlines()
        assert lines[0] == "state,energy,probability"
        assert len(lines) == 4  # C(3, 2) states
        report = read_json(tmp_path / "ensemble_report.json")
        assert report["states"] == 3
        assert report["statistics"] == "FD"

    def test_occupancy_mb_factorizes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "occupancy", "statistics": "MB",
                                   "levels": [0.0, 1.0], "n": 3}))
        assert main(["ensemble", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "ensemble_report.json")
        assert report["factorization_residual"] < 1e-12

    def test_bad_kind(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "grand-canonical"}))
        assert main(["ensemble", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bins", [0, 2.5])
    def test_bad_bins_exits_two_and_writes_no_csv(self, tmp_path, capsys, bins):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "bins": bins}))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bins" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [{"n": 2.5}, {"n": 1}, {"n": True},
                                     {"n": 0}, {"n": "100"},
                                     {"n": 100, "beta": 2.0}])
    def test_bad_mb_config_exits_two_and_writes_nothing(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 10 ** 9])
    def test_oversized_mb_exits_two_before_sampling(self, tmp_path, capsys,
                                                    traced_peak, n):
        # 10 ** 9 draws would take 32 GB: refused by the cap before any array
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "mb", "n": n}))
        out = tmp_path / "out"
        code, peak = traced_peak(lambda: main(["ensemble", "--config", str(path),
                                               "--out", str(out)]))
        assert code == 2
        assert capsys.readouterr().err == (
            "usage error: ensemble config 'mb' key 'n' must be an integer from 2 "
            "to 33554432, got %d\n" % n)
        assert peak < 2 ** 20
        assert not out.exists()

    @pytest.mark.parametrize("statistics", ["BE", "MB"])
    def test_underflowed_partition_sum_exits_one(self, tmp_path, capsys,
                                                 statistics):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "occupancy", "levels": [1.0, 2.0],
                                   "n": 3, "beta": 1e6,
                                   "statistics": statistics}))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 1
        assert "partition sum" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_moments_exit_one(self, tmp_path, capsys):
        # T = 1e-300: the second moment underflows and the kurtosis is NaN
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "mb", "n": 1000, "T": 1e-300}))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 1
        assert "moments.json not written" in capsys.readouterr().err
        assert not out.exists()

    # one format since json was retired; the ids keep the parameter
    @pytest.mark.parametrize("fmt", ["csv"])
    @pytest.mark.parametrize("cfg", [{"n": 1000, "m0": 5e307, "T": 1e308},
                                     {"n": 1000, "T": 1e308}])
    def test_overflowed_energy_exits_one_and_writes_nothing(self, tmp_path, capsys,
                                                            cfg, fmt):
        # m0 |v|^2 / 2 overflows to inf for some draws, while the moments of
        # the first config stay finite
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ensemble", "--config", str(path), "--format", fmt,
                         "--out", str(out)]) == 1
        assert "kinetic energy m0 |v|^2 / 2 overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg, code, message", [
        # the weight exp(1e308) overflows: the partition sum is inf
        ({"kind": "occupancy", "levels": [0, 1e308], "beta": -1}, 1,
         "error: partition sum is inf"),
        # -beta * energy overflows to -inf, whose weight 0 is right
        ({"kind": "occupancy", "levels": [0, 1], "n": 2, "beta": 1e308}, 0,
         "ensemble: 3 states enumerated"),
        # and so in the single-particle sum of the factorization residual
        ({"kind": "occupancy", "levels": [0, 2], "n": 2, "beta": 1e308,
          "statistics": "MB"}, 0, "ensemble: 3 states enumerated"),
        # the fourth moments overflow: the kurtosis is NaN
        ({"kind": "mb", "n": 1000, "T": 1e300}, 1, "moments.json not written"),
        # every weight is finite, but their sum overflows
        ({"kind": "occupancy", "levels": [-354.5, -354.5], "n": 2, "beta": 1.0}, 1,
         "error: partition sum is inf")])
    def test_overflow_is_judged_without_warnings(self, tmp_path, capsys, cfg, code,
                                                 message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ensemble", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == code
        assert message in "".join(capsys.readouterr())


# Configs the schema refuses: command, config text and the key (or kind) to
# be named. Each ran at an earlier commit, exited 0 after silently reading
# the value, ended in a traceback or a warning, or refused it without naming
# the key.
_COV = '{"kind": "covariant", "metric": %s}'
_EXPONENT = ('{"kind": "diagonal", "entries": [[[1.0, [0, 0, 0, 0]]], '
             '[[-1.0, [0, 0, 0, 0]]], [[-1.0, [0, 1.5, 0, 0]]], [[-1.0, [0, 0, 0, 0]]]]}')
_NOT_SQUARE = ('{"kind": "custom-polynomial", '
               '"entries": [[[[1.0, [0, 0, 0, 0]]]], [[]]]}')
# four entries and "dim": 3, with 3-vectors x0 and p0_upper
_DIAGONAL_DIM = ('{"kind": "covariant", "x0": [0, 1, 0.3], "p0_upper": [1.5, 0.3, 0], '
                 '"metric": {"kind": "diagonal", "dim": 3, "entries": [[[1.0, [0, 0, 0, 0]]], '
                 '[[-1.0, [0, 0, 0, 0]]], [[-1.0, [0, 2, 0, 0]]], [[-1.0, [0, 0, 0, 0]]]]}}')
# no entries: a 0-dimensional metric, with empty x0 and p0_upper to match
_EMPTY = ('{"kind": "covariant", "x0": [], "p0_upper": [], '
          '"metric": {"kind": "%s", "entries": []}}')
BAD_CONFIGS = [
    pytest.param("simulate", '{"canonical": "no"}', "canonical", id="canonical-string"),
    pytest.param("simulate", _COV % '{"kind": "polar", "dim": 4.9}', "dim",
                 id="polar-dim-float"),
    pytest.param("simulate", _COV % '{"kind": "polar", "dim": "4"}', "dim",
                 id="polar-dim-string"),
    pytest.param("simulate", '{"model": {"kind": "free", "m0": "1.0"}}', "m0",
                 id="m0-string"),
    pytest.param("simulate", _COV % _EXPONENT, "entries", id="exponent-float"),
    pytest.param("simulate", _COV % _NOT_SQUARE, "entries", id="entries-not-square"),
    pytest.param("simulate", _DIAGONAL_DIM, "dim", id="diagonal-dim"),
    pytest.param("simulate", _EMPTY % "diagonal", "entries", id="diagonal-entries-empty"),
    pytest.param("simulate", _EMPTY % "custom-polynomial", "entries",
                 id="custom-polynomial-entries-empty"),
    pytest.param("simulate", '{"s_max": 0.01, "s_max": 0.02}', "s_max",
                 id="repeated-key"),
    pytest.param("simulate", '{"model": {"kind": "free", "m0": 1, "m0": 2}}', "m0",
                 id="repeated-nested-key"),
    pytest.param("simulate", '{"x0": [0, 0]}', "x0", id="x0-short"),
    # a minkowski dim is refused against x0 before anything dim-sized is
    # made: 2**63 ended as "out of memory", 10**9 would have listed 8 GB
    pytest.param("simulate", _COV % '{"kind": "minkowski", "dim": %d}' % 2 ** 63, "x0",
                 id="minkowski-dim-2**63"),
    pytest.param("simulate", _COV % '{"kind": "minkowski", "dim": %d}' % 10 ** 9, "x0",
                 id="minkowski-dim-10**9"),
    pytest.param("simulate", '{"kind": "covariant", "x0": [0, 1]}', "x0",
                 id="covariant-x0-short"),
    pytest.param("simulate", '{"method": 5}', "method", id="method-int"),
    # retired: a second integrator and two model kinds no claim check ran
    pytest.param("simulate", '{"method": "leapfrog"}', "method", id="method-leapfrog"),
    pytest.param("simulate", '{"model": {"kind": "quadratic"}}', "quadratic",
                 id="model-quadratic"),
    pytest.param("simulate", '{"model": {"kind": "harmonic", "omega": 1.3}}', "harmonic",
                 id="model-harmonic"),
    pytest.param("simulate", '{"step": NaN}', "step", id="step-nan"),
    pytest.param("simulate", '{"model": {"kind": "projectile", "m0": 1.0, "u_x": 0.5, '
                 '"u_y": 1e300, "g": 0.2}}', "p0", id="natural-p0-overflows"),
    pytest.param("ensemble", '{"kind": "occupancy", "n": true}', "n",
                 id="occupancy-n-bool"),
    pytest.param("ensemble", '{"kind": "occupancy", "beta": true}', "beta",
                 id="occupancy-beta-bool"),
    pytest.param("ensemble", '{"n": 100, "T": true}', "T", id="mb-T-bool"),
    pytest.param("ensemble", '{"n": 2.5}', "n", id="mb-n-float"),
    pytest.param("ensemble", '{"n": 1}', "n", id="mb-n-one"),
    pytest.param("ensemble", '{"n": 100, "bins": 0}', "bins", id="mb-bins-zero"),
    pytest.param("ensemble", '{"n": 100, "bins": 2.5}', "bins", id="mb-bins-float"),
    # MAX_BINS + 1: each bin costs about 69 B and a CSV row
    pytest.param("ensemble", '{"n": 100, "bins": 65537}', "bins", id="mb-bins-65537"),
    pytest.param("ensemble", '{"kind": "occupancy", "statistics": "XY"}', "statistics",
                 id="occupancy-statistics-spelling"),
    pytest.param("ensemble", '{"kind": "occupancy", "levels": %s}' % list(range(13)),
                 "levels", id="occupancy-13-levels"),
    pytest.param("ensemble", '{"kind": "occupancy", "n": 13}', "n", id="occupancy-n-13"),
    pytest.param("ensemble", '{"kind": "occupancy", "levels": []}', "levels",
                 id="occupancy-levels-empty"),
]


@pytest.mark.parametrize("command,text,key", BAD_CONFIGS)
def test_schema_refuses_and_names_the_key(tmp_path, capsys, traced_peak, command, text,
                                          key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    code, peak = traced_peak(lambda: main([command, "--config", str(cfg),
                                           "--out", str(out)]))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "'%s'" % key in err
    assert peak < 2 ** 20  # refused before anything is built to the config's size
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_artifacts_get_the_mode_of_a_plain_open(tmp_path, umask):
    # each table has more than one CSV_BLOCK of rows, so a helper formats half
    runs = [("simulate", {"s_max": CSV_BLOCK / 1024, "step": 1 / 1024}),
            ("ensemble", {"kind": "mb", "n": CSV_BLOCK + 1})]
    old = os.umask(umask)
    try:
        for command, config in runs:
            cfg = tmp_path / (command + ".json")
            cfg.write_text(json.dumps(config))
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / command)]) == 0
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode)
             for command, _ in runs for path in (tmp_path / command).iterdir()}
    assert modes == dict.fromkeys(["trajectory.csv", "simulate_report.json", "samples.csv",
                                   "histogram.csv", "moments.json"], 0o666 & ~umask)


@pytest.mark.parametrize("command", ["verify", "simulate", "ensemble"])
def test_json_format_is_refused(tmp_path, capsys, command):
    # retired: CSV is the one table format
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--format", "json", "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--format" in err and "'json'" in err
    assert not out.exists()


@pytest.mark.parametrize("command,seed", [("verify", "-5"), ("ensemble", "-1")])
def test_negative_seed_refused_naming_the_flag(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    assert main([command, "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--seed" in err and seed in err
    assert "Traceback" not in err
    assert not out.exists()


def readme_config_tables():
    """{(family, kind): keys} from the README's "Config schema" tables."""
    tables, current = {}, None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        heading = re.match(r"#### `(\w+)` kind `([\w-]+)`", line)
        if heading:
            current = tables.setdefault(heading.groups(), set())
        elif line.startswith("#"):
            current = None
        elif current is not None and re.match(r"\| `\w+` \|", line):
            current.add(line.split("`")[1])
    return tables


def test_readme_tables_list_the_schema_keys():
    families = {"simulate": SIMULATE, "ensemble": ENSEMBLE, "model": MODEL,
                "metric": METRIC}
    assert readme_config_tables() == {
        (family, kind): set(table) for family, kinds in families.items()
        for kind, table in kinds.items()}


def readme_verify_table():
    """(suite, check, --tol key, default, claim) rows of the README's verify
    table; a claim cell that is not C1-C4 says what the row protects."""
    rows = []
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        cells = re.match(r"\| `(\w+)` \| (.+?) \| `(\w+)` \| (\S+) \| (.+) \|$", line)
        if cells:
            suite, check, key, default, claim = cells.groups()
            rows.append((suite, check, key, float(default),
                         claim if re.fullmatch(r"C[1-4]", claim) else None))
    return rows


def test_readme_verify_table_matches_the_check_table():
    assert readme_verify_table() == [tuple(row) for row in verify.ROWS]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hjdirac.cli", "verify",
             "--suite", "clifford", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "3/3 checks passed" in proc.stdout

    def test_block_buffered_stdout_is_written_once(self, tmp_path):
        # stdout to a pipe is block-buffered: a helper that flushed its copy
        # of the buffer would print the suite lines twice
        proc = subprocess.run([sys.executable, "-m", "hjdirac.cli"] + VERIFY_ALL
                              + ["--out", str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert [line.split()[0] for line in proc.stdout.splitlines()] == list(verify.SUITES)
        assert all(re.fullmatch(r"\S+ +(\d+)/\1 checks passed", line)
                   for line in proc.stdout.splitlines())
        for name, digest in VERIFY_DIGESTS:
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "hjdirac.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
