import json
import subprocess
import sys

import pytest

from hjdirac.cli import main


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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

    def test_unknown_tolerance_rejected(self, tmp_path):
        assert main(["verify", "--suite", "clifford", "--tol", "bogus=1",
                     "--out", str(tmp_path)]) == 2

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

    def test_json_format(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s_max": 0.1, "step": 0.01}))
        assert main(["simulate", "--config", str(cfg), "--format", "json",
                     "--out", str(tmp_path)]) == 0
        data = read_json(tmp_path / "trajectory.json")
        assert data["columns"][0] == "s"
        assert len(data["rows"]) == 11

    def test_guard_trip_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p0": [1e-13, 0.0, 0.0, 0.0]}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1

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
        assert not (tmp_path / "out" / "trajectory.csv").exists()

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
        assert "run failed" in capsys.readouterr().err

    def test_coordinate_overflow_exits_one(self, tmp_path, capsys):
        # r = 1e100: the polar metric's Python-float r ** 2 overflows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "covariant", "s_max": 0.01,
                                   "p0_upper": [1e100, 0, 1e100, 0]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "run failed" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

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

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5000}))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["ensemble", "--config", str(cfg), "--seed", "9",
                         "--out", str(out)]) == 0
        for name in ("samples.csv", "histogram.csv", "moments.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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

    def test_json_samples_format(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100}))
        assert main(["ensemble", "--config", str(cfg), "--format", "json",
                     "--out", str(tmp_path)]) == 0
        data = read_json(tmp_path / "samples.json")
        assert len(data["velocities"]) == 100

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
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cfg", [{"n": 2.5}, {"n": 1}, {"n": True},
                                     {"n": 0}, {"n": "100"},
                                     {"n": 100, "beta": 2.0}])
    def test_bad_mb_config_exits_two_and_writes_nothing(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(path), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

    def test_non_finite_moments_exit_one(self, tmp_path, capsys):
        # T = 1e-300: the second moment underflows and the kurtosis is NaN
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "mb", "n": 1000, "T": 1e-300}))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 1
        assert "moments.json not written" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["histogram.csv",
                                                         "samples.csv"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hjdirac.cli", "verify",
             "--suite", "clifford", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "3/3 checks passed" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "hjdirac.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
