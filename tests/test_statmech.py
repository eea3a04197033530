import math
from itertools import combinations, combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest

from hjdirac import dynamics as dyn
from hjdirac import statmech as sm
from hjdirac.config import ENUM_BOUND
from hjdirac.errors import DegenerateData, DegeneratePartition, TooLarge, UsageError


class TestConfigAndDensity:
    def test_temperature_eigenvalue_relation(self):
        cfg = sm.EnsembleConfig(n=10, m0=2.0, T=4.0, kB=0.5)
        assert cfg.k == 1.0 / (cfg.kB * cfg.T)
        assert cfg.sigma2 == cfg.kB * cfg.T / (2.0 * cfg.m0)

    def test_invalid_config(self):
        with pytest.raises(UsageError):
            sm.EnsembleConfig(n=10, m0=1.0, T=0.0)
        with pytest.raises(UsageError):
            sm.EnsembleConfig(n=-1, m0=1.0, T=1.0)
        for n in (2.5, True, "10", None):
            with pytest.raises(UsageError):
                sm.EnsembleConfig(n=n, m0=1.0, T=1.0)
        assert sm.EnsembleConfig(n=np.int64(3), m0=1.0, T=1.0).n == 3


class TestSampling:
    def test_variance_within_three_se(self):
        cfg = sm.EnsembleConfig(n=10 ** 6, m0=1.0, T=2.0, seed=11)
        mom = sm.sample_mb(cfg).moments()
        for var in mom["variance"]:
            assert abs(var - cfg.sigma2) < 3.0 * mom["variance_se"]
        assert mom["within_3se"]

    def test_mean_and_kurtosis_gaussian(self):
        cfg = sm.EnsembleConfig(n=200000, m0=1.0, T=1.0, seed=2)
        mom = sm.sample_mb(cfg).moments()
        sigma = math.sqrt(cfg.sigma2)
        for mu in mom["mean"]:
            assert abs(mu) < 4.0 * sigma / math.sqrt(cfg.n)
        for kurt in mom["excess_kurtosis"]:
            assert abs(kurt) < 3.0 * mom["kurtosis_se"]

    def test_population_variance_tracks_temperature(self):
        base = None
        for i, temp in enumerate((1.0, 2.0, 4.0)):
            cfg = sm.EnsembleConfig(n=400000, m0=1.0, T=temp, seed=40 + i)
            var = sm.sample_mb(cfg).velocities.var()
            base = var if base is None else base
            assert abs(var / base - temp) < 0.02 * temp

    def test_cold_limit_collapses(self):
        cfg = sm.EnsembleConfig(n=1000, m0=1.0, T=1e-12, seed=0)
        sample = sm.sample_mb(cfg)
        assert np.abs(sample.velocities).max() < 1e-4
        assert (sample.energies >= 0.0).all()

    @pytest.mark.parametrize("n", [0, 1])
    def test_moments_need_two_samples(self, n):
        sample = sm.sample_mb(sm.EnsembleConfig(n=n, m0=1.0, T=1.0))
        assert sample.velocities.shape == (n, 3)
        with pytest.raises(DegenerateData, match="at least 2 samples"):
            sample.moments()

    def test_underflowed_kurtosis_is_nan_without_warning(self):
        # -W error::RuntimeWarning (pyproject) would turn a warning into a failure
        mom = sm.sample_mb(sm.EnsembleConfig(n=1000, m0=1.0, T=1e-300)).moments()
        assert all(math.isnan(k) for k in mom["excess_kurtosis"])

    def test_energy_definition(self):
        cfg = sm.EnsembleConfig(n=500, m0=1.7, T=1.0, seed=1)
        sample = sm.sample_mb(cfg)
        expected = 0.5 * cfg.m0 * (sample.velocities ** 2).sum(axis=1)
        assert np.array_equal(sample.energies, expected)

    @pytest.mark.parametrize("bins", [0, -3, 2.5, 10.0, True])
    def test_histogram_bins_must_be_positive_int(self, tmp_path, bins):
        sample = sm.sample_mb(sm.EnsembleConfig(n=100, m0=1.0, T=1.0))
        with pytest.raises(UsageError, match="bins"):
            sm.write_histogram_csv(sample, tmp_path / "hist.csv", bins=bins)
        assert not (tmp_path / "hist.csv").exists()

    def test_csv_outputs_deterministic(self, tmp_path):
        cfg = sm.EnsembleConfig(n=300, m0=1.0, T=2.0, seed=6)
        sample = sm.sample_mb(cfg)
        out = tmp_path / "samples.csv"
        sm.write_samples_csv(sample, out)
        first = out.read_bytes()
        assert first.decode().splitlines()[0] == "index,vx,vy,vz,energy"
        sm.write_samples_csv(sm.sample_mb(cfg), out)
        assert out.read_bytes() == first
        hist = tmp_path / "hist.csv"
        sm.write_histogram_csv(sample, hist, bins=20)
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,expected"
        assert len(lines) == 21
        counts = sum(int(row.split(",")[2]) for row in lines[1:])
        assert counts == cfg.n  # 5 sigma window holds every draw here


def reference_occupations(L, n, exclusive):
    """The per-state loop the numpy table replaced, kept as its oracle: each
    itertools combination of levels counted into one occupation vector."""
    generate = combinations if exclusive else combinations_with_replacement
    count_table = bytearray()
    for chosen in generate(range(L), n):
        occ = [0] * L
        for idx in chosen:
            occ[idx] += 1
        count_table.extend(occ)
    # both generators run in descending lexicographic order
    return np.frombuffer(count_table, np.uint8).reshape(-1, L)[::-1]


class TestPartitionEnumeration:
    @pytest.mark.parametrize("L", range(1, ENUM_BOUND + 1))
    def test_occupation_table_matches_itertools(self, L):
        for n in range(11):
            assert np.array_equal(sm._occupations(L, n, n),
                                  reference_occupations(L, n, False))
        for n in sorted({*range(min(L, 10) + 1), L}):  # FD up to n = L
            assert np.array_equal(sm._occupations(L, n, 1),
                                  reference_occupations(L, n, True))

    @pytest.mark.parametrize("statistics", ["BE", "FD", "MB"])
    def test_each_statistics_takes_its_table(self, statistics):
        for L, n in [(1, 0), (1, 1), (3, 3), (5, 4), (6, 2)]:
            table = sm.partition_enumerate(np.linspace(0.0, 1.0, L), n, 0.7, statistics)
            assert table.occupations.dtype == np.uint8
            assert np.array_equal(table.occupations,
                                  reference_occupations(L, n, statistics == "FD"))

    def test_two_level_hand_oracles(self):
        be = sm.partition_enumerate([0.0, 1.0], 2, 1.0, "BE")
        assert be.occupations.tolist() == [[0, 2], [1, 1], [2, 0]]
        assert abs(be.z - (1.0 + math.exp(-1.0) + math.exp(-2.0))) < 1e-15

        fd = sm.partition_enumerate([0.0, 1.0], 2, 1.0, "FD")
        assert fd.occupations.tolist() == [[1, 1]]
        assert fd.probabilities[0] == 1.0

        mb = sm.partition_enumerate([0.0, 1.0], 2, 1.0, " mb ")
        assert mb.statistics == "MB"
        assert abs(mb.z - (1.0 + math.exp(-1.0)) ** 2) < 1e-14
        # the schema's spellings only
        with pytest.raises(UsageError):
            sm.partition_enumerate([0.0, 1.0], 2, 1.0, "MB-distinguishable")

    @pytest.mark.parametrize("L,n", [(5, 4), (7, 3), (4, 4)])
    def test_state_counts_and_factorization(self, L, n):
        levels = np.linspace(0.0, 1.0, L)
        be = sm.partition_enumerate(levels, n, 0.7, "BE")
        assert len(be.occupations) == math.comb(n + L - 1, n)
        fd = sm.partition_enumerate(levels, n, 0.7, "FD")
        assert len(fd.occupations) == math.comb(L, n)
        mb = sm.partition_enumerate(levels, n, 0.7, "MB")
        assert abs(mb.z - mb.single_particle_z() ** n) < 1e-12 * mb.z

    def test_probabilities_normalized_and_ordered(self):
        table = sm.partition_enumerate([0.0, 0.3, 0.9], 3, 1.2, "BE")
        assert abs(table.probabilities.sum() - 1.0) < 1e-14
        occupations = table.occupations.tolist()
        assert occupations == sorted(occupations)
        assert all(sum(occ) == 3 for occ in occupations)

    def test_exclusion_bounds_occupation(self):
        table = sm.partition_enumerate([0.0, 0.5, 1.0], 2, 1.0, "FD")
        assert table.occupations.max() <= 1
        with pytest.raises(UsageError):
            sm.partition_enumerate([0.0, 1.0], 3, 1.0, "FD")

    def test_enumeration_bound(self):
        with pytest.raises(TooLarge):
            sm.partition_enumerate(np.zeros(13), 2, 1.0, "BE")
        with pytest.raises(TooLarge):
            sm.partition_enumerate([0.0, 1.0], 13, 1.0, "BE")
        with pytest.raises(UsageError):
            sm.partition_enumerate([0.0], 1, 1.0, "boltzmann-ish")

    @pytest.mark.parametrize("statistics, beta", [("BE", 1e6), ("MB", 1e6),
                                                  ("FD", -1e6)])
    def test_degenerate_partition_sum_raises(self, statistics, beta):
        # every weight under- (beta > 0) or overflows (beta < 0)
        with np.errstate(over="ignore"), pytest.raises(DegeneratePartition):
            sm.partition_enumerate([1.0, 2.0], 2, beta, statistics)

    def test_occupancy_csv(self, tmp_path):
        table = sm.partition_enumerate([0.0, 1.0], 2, 1.0, "BE")
        out = tmp_path / "occ.csv"
        sm.write_occupancy_csv(table, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "state,energy,probability"
        assert lines[1].startswith("0;2,")
        assert len(lines) == 4


class TestEigenSolutionCheck:
    def test_geodesic_momentum_is_stationary(self):
        model = dyn.free_particle_model(1.0)
        traj = dyn.integrate(model, np.zeros(4), np.array([0.0, 0.4, -0.3, 0.2]),
                             2.0, step=1e-2)
        report = sm.eigen_solution_check(0.5, traj)
        assert report["psi_constant"]
        assert report["invariant_drift"] == 0.0
        assert report["chain_rule_residual"] < 1e-12

    def test_mass_shell_preserving_flow(self):
        # proper-time projectile flow keeps p.p fixed, so psi sits still
        model = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)
        p0 = model.reference.tangent(0.0)
        traj = dyn.integrate(model, np.zeros(4), p0, 2.0, step=1e-3)
        report = sm.eigen_solution_check(0.5, traj)
        assert report["psi_constant"]
        assert report["eigen_residual"] < 1e-8
        assert report["chain_rule_residual"] < 1e-6

    def test_canonical_flow_moves_invariant(self):
        model = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)
        p0 = model.reference.tangent(0.0)
        traj = dyn.integrate(model, np.zeros(4), p0, 2.0, step=1e-3,
                             canonical=True)
        report = sm.eigen_solution_check(0.5, traj)
        assert not report["psi_constant"]
        assert report["invariant_drift"] > 1e-2
        assert report["chain_rule_residual"] < 1e-6

    def test_hyperbolic_momentum_constant_invariant(self):
        s = np.linspace(0.0, 2.0, 2001)
        p = np.stack([np.cosh(s), np.sinh(s), 0 * s, 0 * s], axis=1)
        report = sm.eigen_solution_check(0.7, SimpleNamespace(s=s, p=p))
        assert report["invariant_drift"] < 1e-12
        assert report["psi_variation"] < 1e-12
        assert report["chain_rule_residual"] < 1e-10

    def test_sign_convention_recorded(self):
        s = np.linspace(0.0, 1.0, 101)
        p = np.stack([np.cosh(s), np.sinh(s), 0 * s, 0 * s], axis=1)
        report = sm.eigen_solution_check(1.0, SimpleNamespace(s=s, p=p))
        assert report["sign_convention"].startswith("+")

    def test_input_validation(self):
        with pytest.raises(UsageError):
            sm.eigen_solution_check(1.0, SimpleNamespace(
                s=np.array([0.0, 1.0]), p=np.zeros((2, 4))))
        with pytest.raises(UsageError):
            sm.eigen_solution_check(1.0, SimpleNamespace(
                s=np.array([0.0, 0.5, 2.0]), p=np.zeros((3, 4))))
