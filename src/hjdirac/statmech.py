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

import numpy as np

from ._cells import count_cells
from ._util import CellColumn, write_csv
from .clifford import ETA_DIAG
from .config import ENUM_BOUND, MAX_BINS, integer
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
        for name in ("m0", "T", "kB"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):  # NaN fails both
                raise UsageError("%s must be a finite positive number, got %r"
                                 % (name, value))

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
        # Two passes over SAMPLE_CHUNK-row blocks: the column sums, then those
        # of the centered squares and fourth powers. Each fourth power is
        # its square squared, two IEEE multiplications with the same bits on
        # every CPU numpy dispatches to, where numpy's ** 4 differs between
        # them. For the C-contiguous v that sample_mb makes, each result has
        # the bits of v.mean, v.var(ddof=1) and the whole-array central
        # moments, which divide these same sums. An underflowed m2, or an
        # overflowed square or fourth power, gives NaN or inf here, which
        # write_json refuses.
        starts = range(0, n, SAMPLE_CHUNK)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s1 = None
            for lo in starts:
                s1 = _add_rows(s1, v[lo:lo + SAMPLE_CHUNK])
            mean = s1 / n
            s2 = s4 = None
            for lo in starts:
                centered = v[lo:lo + SAMPLE_CHUNK] - mean
                centered *= centered
                s2 = _add_rows(s2, centered)
                centered *= centered
                s4 = _add_rows(s4, centered)
            var = s2 / (n - 1)
            m2 = s2 / n
            m4 = s4 / n
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


def _add_rows(total, block):
    """total (None or a row) plus the column sums of block's rows, each
    column summed one value after another from row 0 by np.add.accumulate,
    with total added to its first value: the bits of one np.add.reduce over
    all the blocks stacked, which numpy sums row after row for a
    C-contiguous array, at about half its cost."""
    sums = []
    for j, column in enumerate(block.T):
        column = column.copy()  # one column at a time: a third of the block
        if total is not None:
            column[0] += total[j]
        sums.append(np.add.accumulate(column, out=column)[-1])
    return np.array(sums)


def sample_mb(config):
    """Draw config.n independent 3-velocities from the squared-amplitude
    Gaussian. The index range is split into SAMPLE_CHUNK-sized chunks, each
    drawn from its own spawned substream of config.seed straight into its
    rows of the sample, with its energies, so no full-size temporary is
    made. Raises DegenerateData when a kinetic energy overflows.
    """
    n = config.n
    sigma = math.sqrt(config.sigma2)
    children = np.random.SeedSequence(config.seed).spawn(max(1, -(-n // SAMPLE_CHUNK)))
    v = np.empty((n, 3))
    energies = np.empty(n)
    half_m0 = 0.5 * config.m0
    # an overflowed energy, or inf * 0 where half_m0 underflows, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for child, lo in zip(children, range(0, n, SAMPLE_CHUNK)):
            block = v[lo:lo + SAMPLE_CHUNK]
            np.random.default_rng(child).standard_normal(out=block)
            block *= sigma
            # the bits of (block * block).sum(axis=1), without its reduction
            sq = block * block
            energies[lo:lo + SAMPLE_CHUNK] = half_m0 * ((sq[:, 0] + sq[:, 1]) + sq[:, 2])
    overflowed = int(np.count_nonzero(~np.isfinite(energies)))
    if overflowed:
        raise DegenerateData("kinetic energy m0 |v|^2 / 2 overflows in %d of %d "
                             "samples" % (overflowed, n))
    return VelocitySample(velocities=v, energies=energies, config=config)


def write_samples_csv(sample, path):
    v = sample.velocities
    write_csv(path, ["index", "vx", "vy", "vz", "energy"],
              [range(len(v)), v[:, 0], v[:, 1], v[:, 2], sample.energies])


def write_histogram_csv(sample, path, bins=50):
    """Histogram vx against the Gaussian prediction."""
    integer(1, MAX_BINS).check(bins, "bins")
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


def _occupations(L, n, cap):
    """(states, L) uint8 table of every occupation vector of L levels with
    counts at most cap summing to n, in ascending lexicographic order. Built
    from the last level back: the vectors of k + 1 levels summing to m are,
    for c = 0..min(m, cap), c followed by each vector of k levels summing to
    m - c."""
    # tail[m]: the vectors of the last k levels summing to m
    tail = [np.array([[m]] if m <= cap else np.empty((0, 1)), np.uint8)
            for m in range(n + 1)]
    for k in range(1, L):
        tail = [np.concatenate([np.insert(tail[m - c], 0, c, axis=1)
                                for c in range(min(m, cap) + 1)])
                for m in range(n + 1)]
    return tail[n]


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

    counts = _occupations(L, n, 1 if tag == "FD" else n)

    # An overflow gives an inf weight or sum, which the check below refuses,
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


class _States(CellColumn):
    """occupancy.csv's state column, "n_0;n_1;...", formatted one written
    block at a time so the whole column is never held at once."""

    def __init__(self, counts):
        self.counts = counts

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, rows):
        return count_cells(self.counts[rows])


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
