import math
import os
from fractions import Fraction
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
        # nan <= 0.0 is False: a sign check alone lets NaN through
        for name in ("m0", "T", "kB"):
            for value in (math.nan, math.inf, -math.inf, 0.0, -1.0):
                with pytest.raises(UsageError, match="^%s must be a finite positive"
                                   % name):
                    sm.EnsembleConfig(**{"n": 10, "m0": 1.0, "T": 1.0, name: value})
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


def reference_sample(cfg):
    """The whole-array route sample_mb replaced, kept as its bit oracle: each
    substream's block drawn and scaled apart, the blocks concatenated, and
    the energies summed over all rows at once. Returns the velocities and
    energies, overflowed energies included."""
    n = cfg.n
    children = np.random.SeedSequence(cfg.seed).spawn(max(1, -(-n // sm.SAMPLE_CHUNK)))
    sizes = [min(sm.SAMPLE_CHUNK, n - i * sm.SAMPLE_CHUNK) for i in range(len(children))]
    sigma = math.sqrt(cfg.sigma2)
    parts = [sigma * np.random.default_rng(child).standard_normal((size, 3))
             for child, size in zip(children, sizes)]
    v = np.concatenate(parts)
    with np.errstate(over="ignore"):
        return v, 0.5 * cfg.m0 * (v * v).sum(axis=1)


def reference_moments(v):
    """mean, variance and excess kurtosis of v over whole arrays, as
    VelocitySample.moments computed them before it summed by blocks, with
    its fourth power: the square squared."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mean = v.mean(axis=0)
        var = v.var(axis=0, ddof=1)
        centered = v - mean
        m2 = (centered ** 2).mean(axis=0)
        m4 = np.square(np.square(centered)).mean(axis=0)
        return mean, var, m4 / m2 ** 2 - 3.0


def same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStreamedSampling:
    """sample_mb and moments work one SAMPLE_CHUNK block at a time; every
    number they give has the bits of the whole-array route. Both routes take
    each fourth power as two IEEE squarings, which give the same bits on
    every CPU numpy dispatches to; numpy's ** 4, which gave excess_kurtosis
    before, does not, and moments.json's excess_kurtosis bytes changed with
    the switch."""

    @pytest.mark.parametrize("n", [2, 3, sm.SAMPLE_CHUNK - 1, sm.SAMPLE_CHUNK,
                                   sm.SAMPLE_CHUNK + 1, 3 * sm.SAMPLE_CHUNK + 17])
    @pytest.mark.parametrize("seed", range(4))
    def test_bits_match_whole_array_route(self, n, seed):
        cfg = sm.EnsembleConfig(n=n, m0=0.7, T=1.3, seed=seed)
        sample = sm.sample_mb(cfg)
        v, energies = reference_sample(cfg)
        assert same_bits(sample.velocities, v)
        assert same_bits(sample.energies, energies)
        mom = sample.moments()
        mean, var, excess = reference_moments(v)
        assert same_bits(mom["mean"], mean)
        assert same_bits(mom["variance"], var)
        assert same_bits(mom["excess_kurtosis"], excess)

    def test_bits_match_over_wide_magnitudes(self):
        rng = np.random.default_rng(5)
        n = 2 * sm.SAMPLE_CHUNK + 3
        v = rng.standard_normal((n, 3)) * np.exp(rng.uniform(-20.0, 20.0, (n, 3)))
        mom = sm.VelocitySample(velocities=v, energies=np.zeros(n),
                                config=sm.EnsembleConfig(n=n, m0=1.0, T=1.0)).moments()
        for key, want in zip(("mean", "variance", "excess_kurtosis"),
                             reference_moments(v)):
            assert same_bits(mom[key], want)

    # T = 1e-300: m2 underflows; T = 1e300: the fourth powers overflow
    @pytest.mark.parametrize("T", [1e-300, 1e300])
    def test_nan_kurtosis_matches(self, T):
        cfg = sm.EnsembleConfig(n=sm.SAMPLE_CHUNK + 5, m0=1.0, T=T, seed=2)
        sample = sm.sample_mb(cfg)
        v, _ = reference_sample(cfg)
        mom = sample.moments()
        assert all(math.isnan(k) for k in mom["excess_kurtosis"])
        for key, want in zip(("mean", "variance", "excess_kurtosis"),
                             reference_moments(v)):
            assert same_bits(mom[key], want)

    @pytest.mark.parametrize("m0, T", [(5e307, 1e308), (1.0, 1e308)])
    def test_overflowed_energy_count_matches(self, m0, T):
        cfg = sm.EnsembleConfig(n=sm.SAMPLE_CHUNK + 1000, m0=m0, T=T, seed=1)
        _, energies = reference_sample(cfg)
        overflowed = int(np.count_nonzero(~np.isfinite(energies)))
        assert overflowed > 0
        with pytest.raises(DegenerateData, match="overflows in %d of %d samples$"
                           % (overflowed, cfg.n)):
            sm.sample_mb(cfg)


U = Fraction(1, 2 ** 53)  # float64's unit roundoff


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): k roundings, each a factor
    (1 + delta) or its inverse with |delta| <= u, compound to a relative
    error of at most this."""
    return k * U / (1 - k * U)


def exact_moments(column):
    """[(value, bound)] for the mean, variance and excess kurtosis of a
    column of floats: each value exact, in Fractions, and each bound the
    worst case of moments' float operations, so a route that rounds as
    moments does lands within it whatever its summation order. From Higham,
    Accuracy and Stability of Numerical Algorithms (2nd ed., 4.2), a float
    sum of n terms in any order errs by at most gamma(n - 1) times the sum
    of the terms' magnitudes."""
    x = [Fraction(v) for v in column.tolist()]
    n = len(x)
    mean = sum(x) / n
    d = [v - mean for v in x]
    t2 = sum(v * v for v in d)
    t4 = sum((v * v) ** 2 for v in d)
    # the mean: the sum, then a division
    e_mean = gamma(n) * sum(map(abs, x)) / n
    # a centered value: its own rounding and the mean's error; then bounds
    # on how far the sums of its squares and fourth powers move with it
    e_c = [U * abs(v) + (1 + U) * e_mean for v in d]
    a2 = sum((abs(v) + e) ** 2 - v * v for v, e in zip(d, e_c))
    a4 = sum((abs(v) + e) ** 4 - v ** 4 for v, e in zip(d, e_c))
    # one rounding per squaring, then the sums'
    e2 = a2 + gamma(n) * (t2 + a2)
    e4 = a4 + gamma(n + 2) * (t4 + a4)
    var = t2 / (n - 1)
    e_var = (e2 + U * (t2 + e2)) / (n - 1)
    # m4 / m2 ** 2 = n s4 / s2 ** 2 over the sums' ranges; s2 / n, s4 / n,
    # the square and the quotient round five factors
    ratio = n * t4 / t2 ** 2
    lo = n * (t4 - e4) / (t2 + e2) ** 2 * (1 - gamma(5))
    hi = n * (t4 + e4) / (t2 - e2) ** 2 * (1 + gamma(5))
    e_ratio = max(hi - ratio, ratio - lo)
    excess = ratio - 3
    # and the subtraction's own rounding
    e_excess = e_ratio + U * (abs(excess) + e_ratio)
    return [(mean, e_mean), (var, e_var), (excess, e_excess)]


class TestExactMoments:
    """moments against exact arithmetic on the float sample, which relies on
    neither numpy route to a fourth power. Each reported value's relative
    error must be within its bound from exact_moments divided by the exact
    value: the worst case of moments' own roundings, so the test holds on
    every CPU and summation order and fails on a formula error, which is of
    order 1. At these seeds the bounds run from 2e-16 (n = 2) to 4e-9 (an
    excess kurtosis near 0 at n = 1000), and the errors reach at most 0.28
    of them."""

    def assert_within_bounds(self, v):
        mom = sm.VelocitySample(velocities=v, energies=np.zeros(len(v)),
                                config=sm.EnsembleConfig(n=len(v), m0=1.0, T=1.0)).moments()
        for axis in range(3):
            for key, (value, bound) in zip(("mean", "variance", "excess_kurtosis"),
                                           exact_moments(v[:, axis])):
                error = abs(Fraction(mom[key][axis]) - value)
                assert error / abs(value) <= bound / abs(value), (key, axis)

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_sampled(self, n):
        self.assert_within_bounds(
            sm.sample_mb(sm.EnsembleConfig(n=n, m0=0.7, T=1.3, seed=3)).velocities)

    def test_scaled_by_powers_of_two(self):
        # np.ldexp scales exactly, where np.exp's bits are CPU-dispatched
        v = sm.sample_mb(sm.EnsembleConfig(n=1000, m0=0.7, T=1.3, seed=3)).velocities
        exponents = np.random.default_rng(8).integers(-40, 41, v.shape)
        self.assert_within_bounds(np.ldexp(v, exponents))


class TestMemoryPerSample:
    """tracemalloc's peak per draw: the sample is 32 B per draw (3 velocity
    components and the energy), and the streamed route adds one
    SAMPLE_CHUNK block of temporaries. The whole-array route peaked at
    about 80 B in sample_mb, 48 B in moments and 10 B in the write below."""

    def test_sample_and_moments(self, traced_peak):
        # measured 35.0 and 4.7 B per draw: the bounds leave about 5 MB and
        # 3 MB over what one block's temporaries take
        n = 10 ** 6
        cfg = sm.EnsembleConfig(n=n, m0=1.0, T=2.0, seed=3)
        sample, peak = traced_peak(lambda: sm.sample_mb(cfg))
        assert peak / n <= 40
        _, peak = traced_peak(sample.moments)
        assert peak / n <= 8

    def write_slope(self, tmp_path, traced_peak, n):
        """tracemalloc's peak of write_samples_csv at 4n draws less that at n,
        per added row: what the write holds per row. Its fixed cost, one
        chunk's cell matrices and temporaries (about 4.1 MB measured with
        one CPU and with two), and, with two, shutil.copyfileobj's buffers
        for the helper's file, cancel."""
        peaks = []
        for size in (n, 4 * n):
            sample = sm.sample_mb(sm.EnsembleConfig(n=size, m0=1.0, T=2.0, seed=3))
            peaks.append(traced_peak(
                lambda: sm.write_samples_csv(sample, tmp_path / "s.csv"))[1])
        return (peaks[1] - peaks[0]) / (3 * n)

    def test_samples_csv(self, tmp_path, traced_peak, monkeypatch):
        # One CPU offered, so the table stays in this process. Measured
        # within 1.1 B per row of 0 at n = 20000; an np.arange index column
        # alone would be 8 B per row.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.write_slope(tmp_path, traced_peak, 20000) <= 2

    def test_samples_csv_split(self, tmp_path, traced_peak, monkeypatch):
        # Two CPUs offered: this process formats half the rows, as above, and
        # then appends the helper's file. Measured within 0.1 B per row of 0.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert self.write_slope(tmp_path, traced_peak, 20000) <= 2


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

    def test_weights_take_math_exp_with_np_exp_edges(self):
        # math.exp value by value, across block boundaries; above _EXP_MAX,
        # where math.exp raises, inf as np.exp gives; NaN stays NaN
        rng = np.random.default_rng(3)
        x = rng.uniform(-745.0, 709.0, 2 * sm._EXP_BLOCK + 3)
        assert sm._exp(x).tolist() == [math.exp(v) for v in x.tolist()]
        edges = np.array([-np.inf, -0.0, sm._EXP_MAX, np.nextafter(sm._EXP_MAX, np.inf),
                          1e308, np.inf, np.nan])
        got = sm._exp(edges)
        assert got[:3].tolist() == [0.0, 1.0, math.exp(sm._EXP_MAX)]
        assert got[3:6].tolist() == [math.inf] * 3 and math.isnan(got[6])


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
