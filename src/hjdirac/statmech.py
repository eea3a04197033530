"""Statistical layer over the trajectory machinery.

Free-particle ensembles here are Gaussian in velocity: the amplitude-level
weight is exp(-m0 |v|^2 / (2 kB T)), so the squared amplitude that actually
gets sampled has per-axis variance

    sigma^2 = kB T / (2 m0).

The rest of the module is occupation enumeration for the three counting
rules (symmetric, exclusive, distinguishable) and a check that
psi = A exp((k/2) p.p) behaves as an eigenfunction of d/ds along a
trajectory.

Sign note: with w = (1/2) p.p the chain rule gives dpsi/ds = k psi (pdot.p),
plus sign. Some derivations carry a minus sign at this step; we verify the
chain-rule-consistent form and the report records which convention was used.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

import numpy as np

from ._util import write_csv
from .clifford import ETA_DIAG
from .config import ENUM_BOUND, integer
from .errors import DegenerateData, DegeneratePartition, TooLarge, UsageError

SAMPLE_CHUNK = 65536  # draws per spawned substream; part of the sampled bytes


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    m0: float
    T: float
    kB: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise UsageError("particle count n must be an integer, got %r" % (self.n,))
        if self.n < 0:
            raise UsageError("particle count must be nonnegative")
        if self.T <= 0.0 or self.m0 <= 0.0 or self.kB <= 0.0:
            raise UsageError("m0, T, kB must all be positive")

    @property
    def k(self):
        """Inverse temperature in the eigenvalue convention, k = 1/(kB T)."""
        return 1.0 / (self.kB * self.T)

    @property
    def sigma2(self):
        """Per-axis velocity variance of the squared-amplitude distribution."""
        return self.kB * self.T / (2.0 * self.m0)


@dataclass
class VelocitySample:
    velocities: np.ndarray  # (n, 3)
    energies: np.ndarray    # (n,)  kinetic, m0 |v|^2 / 2
    config: EnsembleConfig = field(repr=False, default=None)

    def __post_init__(self):
        if not np.isfinite(self.velocities).all():
            raise UsageError("velocity sample contains non-finite entries")

    def moments(self):
        v = self.velocities
        n = len(v)
        if n < 2:  # the variance divides by n - 1
            raise DegenerateData("moments need at least 2 samples, got %d" % n)
        # an underflowed m2, or an overflowed square or fourth power, gives
        # NaN or inf here, which write_json refuses
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mean = v.mean(axis=0)
            var = v.var(axis=0, ddof=1)
            centered = v - mean
            m2 = (centered ** 2).mean(axis=0)
            m4 = (centered ** 4).mean(axis=0)
            excess = m4 / m2 ** 2 - 3.0
        target = self.config.sigma2 if self.config else float(var.mean())
        report = {
            "n": int(n),
            "target_variance": float(target),
            "mean": [float(x) for x in mean],
            "variance": [float(x) for x in var],
            "variance_se": float(target * math.sqrt(2.0 / (n - 1))),
            "excess_kurtosis": [float(x) for x in excess],
            "kurtosis_se": float(math.sqrt(24.0 / n)),
        }
        if self.config:
            report.update(m0=self.config.m0, T=self.config.T,
                          kB=self.config.kB, seed=self.config.seed)
            se = report["variance_se"]
            report["within_3se"] = bool(
                max(abs(x - target) for x in report["variance"]) < 3.0 * se)
        return report


def sample_mb(config):
    """Draw config.n independent 3-velocities from the squared-amplitude
    Gaussian. The index range is split into SAMPLE_CHUNK-sized chunks, each
    drawn from its own spawned substream of config.seed. Raises
    DegenerateData when a kinetic energy overflows.
    """
    n = config.n
    sigma = math.sqrt(config.sigma2)
    children = np.random.SeedSequence(config.seed).spawn(max(1, -(-n // SAMPLE_CHUNK)))
    sizes = [min(SAMPLE_CHUNK, n - i * SAMPLE_CHUNK) for i in range(len(children))]
    # kept as a named list: freeing it inside the concatenate call raised the
    # ensemble benchmark's peak RSS by about 16 MB (heap fragmentation)
    parts = [sigma * np.random.default_rng(child).standard_normal((size, 3))
             for child, size in zip(children, sizes)]
    v = np.concatenate(parts)
    with np.errstate(over="ignore"):  # an overflowed energy is refused below
        energies = 0.5 * config.m0 * (v * v).sum(axis=1)
    overflowed = int(np.count_nonzero(~np.isfinite(energies)))
    if overflowed:
        raise DegenerateData("kinetic energy m0 |v|^2 / 2 overflows in %d of %d "
                             "samples" % (overflowed, n))
    return VelocitySample(velocities=v, energies=energies, config=config)


def write_samples_csv(sample, path):
    v = sample.velocities
    write_csv(path, ["index", "vx", "vy", "vz", "energy"],
              [np.arange(len(v)), v[:, 0], v[:, 1], v[:, 2], sample.energies])


def write_histogram_csv(sample, path, bins=50):
    """Histogram vx against the Gaussian prediction."""
    integer(1).check(bins, "bins")
    sigma = math.sqrt(sample.config.sigma2)
    edges = np.linspace(-5.0 * sigma, 5.0 * sigma, bins + 1)
    counts, _ = np.histogram(sample.velocities[:, 0], edges)
    cdf = [0.5 * (1.0 + math.erf(e / (sigma * math.sqrt(2.0)))) for e in edges]
    expected = len(sample.velocities) * np.diff(cdf)
    write_csv(path, ["bin_lo", "bin_hi", "count", "expected"],
              [edges[:-1], edges[1:], counts, expected])


# ---------------------------------------------------------------------------
# occupation enumeration

@dataclass
class PartitionTable:
    statistics: str
    levels: tuple
    n: int
    beta: float
    occupations: np.ndarray  # (states, levels) uint8 counts, ascending lexicographic
    energies: np.ndarray
    weights: np.ndarray
    probabilities: np.ndarray
    z: float

    def single_particle_z(self):
        # a term that overflows to inf has overflowed the partition sum too,
        # which partition_enumerate refuses, unless n = 0, where z ** 0 is 1
        with np.errstate(over="ignore"):
            return float(np.exp(-self.beta * np.asarray(self.levels)).sum())


def partition_enumerate(levels, n, beta, statistics):
    """Enumerate occupation vectors and Boltzmann weights exactly.

    BE: any nonnegative occupations summing to n. FD: occupations in {0,1}.
    MB (distinguishable): BE support with multinomial multiplicity
    n!/(prod n_l!). Brute force, so both the level count and n are capped.
    Raises DegeneratePartition when the partition sum underflows to zero or
    overflows, since the probabilities are then undefined.
    """
    tag = str(statistics).strip().upper()
    if tag not in ("BE", "FD", "MB"):
        raise UsageError("statistics must be one of BE, FD, MB")
    levels = tuple(float(e) for e in levels)
    L = len(levels)
    if L == 0 or n < 0:
        raise UsageError("need at least one level and n >= 0")
    if L > ENUM_BOUND or n > ENUM_BOUND:
        raise TooLarge("enumeration bounded at %d levels and %d particles"
                       % (ENUM_BOUND, ENUM_BOUND))
    if tag == "FD" and n > L:
        raise UsageError("exclusion admits at most one particle per level")

    generate = combinations if tag == "FD" else combinations_with_replacement
    count_table = bytearray()
    for chosen in generate(range(L), n):
        occ = [0] * L
        for idx in chosen:
            occ[idx] += 1
        count_table.extend(occ)
    # both generators run in descending lexicographic order
    counts = np.frombuffer(count_table, np.uint8).reshape(-1, L)[::-1]

    # An overflow gives an inf weight, and so a sum the check below refuses,
    # or an exponent of -inf, whose weight 0 is right.
    with np.errstate(over="ignore"):
        # level by level from 0.0, so every energy adds its terms in level order
        energies = np.zeros(len(counts))
        for level, e in enumerate(levels):
            energies += counts[:, level].astype(float) * e
        weights = np.exp(-beta * energies)
        if tag == "MB":  # multinomial multiplicity n!/prod(c!)
            n_fact = math.factorial(n)
            weights *= np.array([n_fact // math.prod(map(math.factorial, o))
                                 for o in counts.tolist()], dtype=float)
    z = float(weights.sum())
    if not (math.isfinite(z) and z > 0.0):
        raise DegeneratePartition("partition sum is %r at beta = %r; the Boltzmann "
                                  "weights under- or overflow" % (z, beta))
    return PartitionTable(statistics=tag, levels=levels, n=n, beta=float(beta),
                          occupations=counts, energies=energies,
                          weights=weights, probabilities=weights / z, z=z)


_COUNT_TEXT = np.array([str(c) for c in range(ENUM_BOUND + 1)], dtype=object)


class _States:
    """occupancy.csv's state column, "n_0;n_1;...", formatted one written
    block at a time so the whole column is never held at once."""

    def __init__(self, counts):
        self.counts = counts

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, rows):
        # one text per count, looked up, then joined level by level per row
        return list(map(";".join, zip(*_COUNT_TEXT[self.counts[rows]].T)))


def write_occupancy_csv(table, path):
    write_csv(path, ["state", "energy", "probability"],
              [_States(table.occupations), table.energies, table.probabilities])


# ---------------------------------------------------------------------------
# eigen-solution check

def eigen_solution_check(k, trajectory, amplitude=1.0):
    """Check psi = A exp((k/2) p.p) along a sampled trajectory.

    Two claims are tested. As a function of w = (1/2) p.p the exponential
    satisfies dpsi/dw = k psi; we difference it in w to confirm. Along the
    samples the chain rule gives dpsi/ds = k psi (pdot.p); both sides are
    built from the same uniform s grid by central differences and compared.
    trajectory needs .s and .p arrays; any object with those attributes works.
    """
    s = np.asarray(trajectory.s, dtype=float)
    p = np.asarray(trajectory.p, dtype=float)
    if len(s) < 3:
        raise UsageError("need at least three samples to difference")
    ds = s[1] - s[0]
    if not np.allclose(np.diff(s), ds, rtol=0, atol=1e-12 * max(1.0, abs(ds))):
        raise UsageError("samples must be uniform in s")

    w = 0.5 * (p * p * ETA_DIAG).sum(axis=1)
    psi = amplitude * np.exp(k * w)
    scale = max(1.0, np.abs(psi).max())

    hw = 1e-5 * max(1.0, np.abs(w).max())
    dpsi_dw = (amplitude * np.exp(k * (w + hw))
               - amplitude * np.exp(k * (w - hw))) / (2.0 * hw)
    eigen_residual = float(np.abs(dpsi_dw - k * psi).max() / scale)

    dpsi_ds = (psi[2:] - psi[:-2]) / (2.0 * ds)
    pdot = (p[2:] - p[:-2]) / (2.0 * ds)
    pdot_dot_p = (pdot * p[1:-1] * ETA_DIAG).sum(axis=1)
    chain = k * psi[1:-1] * pdot_dot_p
    denom = max(1.0, np.abs(dpsi_ds).max())
    chain_residual = float(np.abs(dpsi_ds - chain).max() / denom)

    invariant = 2.0 * w
    invariant_drift = float(np.abs(invariant - invariant[0]).max())
    psi_variation = float(np.abs(psi - psi[0]).max() / scale)

    return {
        "k": float(k),
        "sign_convention": "+ (chain rule: dpsi/ds = k psi pdot.p)",
        "samples": int(len(s)),
        "eigen_residual": eigen_residual,
        "chain_rule_residual": chain_residual,
        "invariant_drift": invariant_drift,
        "psi_variation": psi_variation,
        "psi_constant": bool(psi_variation < 1e-8),
    }
