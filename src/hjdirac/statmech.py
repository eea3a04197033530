"""Statistical layer over the trajectory machinery.

Free-particle ensembles here are Gaussian in velocity: the amplitude-level
weight is exp(-m0 |v|^2 / (2 kB T)), so the squared amplitude that actually
gets sampled has per-axis variance

    sigma^2 = kB T / (2 m0).

The rest of the module is counting and estimation: occupation enumeration
for the three counting rules (symmetric, exclusive, distinguishable),
per-slice normalization of a spatial density, an arrival-rate estimator for
exponential gap data, and a check that psi = A exp((k/2) p.p) behaves as an
eigenfunction of d/ds along a trajectory.

Sign note: with w = (1/2) p.p the chain rule gives dpsi/ds = k psi (pdot.p),
plus sign. Some derivations carry a minus sign at this step; we verify the
chain-rule-consistent form and the report records which convention was used.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

import numpy as np

from ._util import positive_int, write_csv
from .clifford import ETA_DIAG
from .errors import DegenerateData, DegeneratePartition, NotIntegrable, TooLarge, UsageError

SAMPLE_CHUNK = 65536  # draws per spawned substream; part of the sampled bytes
ENUM_BOUND = 12


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


def mb_density(config, v):
    """Amplitude-level weight exp(-m0 |v|^2 / (2 kB T)), unnormalized.

    v may be a single 3-velocity or an array with trailing axis 3.
    """
    v = np.asarray(v, dtype=float)
    r2 = (v * v).sum(axis=-1)
    return np.exp(-config.m0 * r2 / (2.0 * config.kB * config.T))


def mb_probability_density(config, v):
    """Normalized squared-amplitude density; the square of mb_density up to
    the Gaussian constant (2 pi sigma^2)^{-3/2}."""
    v = np.asarray(v, dtype=float)
    r2 = (v * v).sum(axis=-1)
    s2 = config.sigma2
    return (2.0 * np.pi * s2) ** -1.5 * np.exp(-r2 / (2.0 * s2))


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
        mean = v.mean(axis=0)
        var = v.var(axis=0, ddof=1)
        centered = v - mean
        m2 = (centered ** 2).mean(axis=0)
        m4 = (centered ** 4).mean(axis=0)
        # an underflowed m2 gives NaN or inf here, which write_json refuses
        with np.errstate(divide="ignore", invalid="ignore"):
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
    drawn from its own spawned substream of config.seed.
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
    energies = 0.5 * config.m0 * (v * v).sum(axis=1)
    return VelocitySample(velocities=v, energies=energies, config=config)


def write_samples_csv(sample, path):
    v = sample.velocities
    write_csv(path, ["index", "vx", "vy", "vz", "energy"],
              [np.arange(len(v)), v[:, 0], v[:, 1], v[:, 2], sample.energies])


def write_histogram_csv(sample, path, bins=50, component=0):
    """Histogram one velocity component against the Gaussian prediction."""
    bins = positive_int(bins, "bins")
    sigma = math.sqrt(sample.config.sigma2)
    edges = np.linspace(-5.0 * sigma, 5.0 * sigma, bins + 1)
    counts, _ = np.histogram(sample.velocities[:, component], edges)
    cdf = [0.5 * (1.0 + math.erf(e / (sigma * math.sqrt(2.0)))) for e in edges]
    expected = len(sample.velocities) * np.diff(cdf)
    write_csv(path, ["bin_lo", "bin_hi", "count", "expected"],
              [edges[:-1], edges[1:], counts, expected])


# ---------------------------------------------------------------------------
# slice normalization

def grid_cube(half_width, points):
    """Three equal axes spanning [-half_width, half_width]."""
    if points < 2 or half_width <= 0:
        raise UsageError("grid needs half_width > 0 and at least 2 points")
    axis = np.linspace(-half_width, half_width, points)
    return (axis, axis.copy(), axis.copy())


@dataclass
class SliceNormalization:
    constant: float
    boundary_fraction: float
    t: float
    grid_shape: tuple
    _psi_squared: object = field(repr=False, default=None)

    def density(self, x):
        return np.asarray(self._psi_squared(x, self.t)) / self.constant


def _trapezoid_3d(values, axes):
    out = values
    for axis_points in reversed(axes):
        out = np.trapezoid(out, axis_points, axis=-1)
    return float(out)


def slice_normalize(psi_squared, t, grid, boundary_tol=1e-6):
    """Normalize psi_squared(., t) to unit mass on the grid box.

    psi_squared is called with points of shape (..., 3) plus the slice time.
    The integral is a composite trapezoid over the tensor grid. If the mass
    in the outermost shell of cells exceeds boundary_tol of the total, the
    density has not decayed inside the box and NotIntegrable is raised.
    """
    ax1, ax2, ax3 = grid
    mesh = np.stack(np.meshgrid(ax1, ax2, ax3, indexing="ij"), axis=-1)
    values = np.asarray(psi_squared(mesh, t), dtype=float)
    if values.shape != mesh.shape[:-1]:
        raise UsageError("psi_squared must map (...,3) points to scalars")
    if not np.isfinite(values).all() or (values < 0).any():
        raise NotIntegrable("density must be finite and nonnegative on the grid")
    total = _trapezoid_3d(values, (ax1, ax2, ax3))
    if total <= 0.0:
        raise NotIntegrable("density integrates to zero on the grid")
    interior = _trapezoid_3d(values[1:-1, 1:-1, 1:-1],
                             (ax1[1:-1], ax2[1:-1], ax3[1:-1]))
    boundary_fraction = (total - interior) / total
    if boundary_fraction > boundary_tol:
        raise NotIntegrable("boundary shell holds %.3g of the mass; "
                            "enlarge the grid box" % boundary_fraction)
    return SliceNormalization(constant=total,
                              boundary_fraction=float(boundary_fraction),
                              t=float(t), grid_shape=values.shape,
                              _psi_squared=psi_squared)


# ---------------------------------------------------------------------------
# occupation enumeration

_STAT_TAGS = {"BE": "BE", "FD": "FD", "MB": "MB", "MB-DISTINGUISHABLE": "MB"}


@dataclass
class PartitionTable:
    statistics: str
    levels: tuple
    n: int
    beta: float
    occupations: list      # tuples, ascending lexicographic
    energies: np.ndarray
    weights: np.ndarray
    probabilities: np.ndarray
    z: float

    def single_particle_z(self):
        return float(np.exp(-self.beta * np.asarray(self.levels)).sum())


def partition_enumerate(levels, n, beta, statistics):
    """Enumerate occupation vectors and Boltzmann weights exactly.

    BE: any nonnegative occupations summing to n. FD: occupations in {0,1}.
    MB (distinguishable): BE support with multinomial multiplicity
    n!/(prod n_l!). Brute force, so both the level count and n are capped.
    Raises DegeneratePartition when the partition sum underflows to zero or
    overflows, since the probabilities are then undefined.
    """
    tag = _STAT_TAGS.get(str(statistics).strip().upper())
    if tag is None:
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
    occupations = []
    for chosen in generate(range(L), n):
        occ = [0] * L
        for idx in chosen:
            occ[idx] += 1
        occupations.append(tuple(occ))
    occupations.reverse()  # both generators run in descending lexicographic order

    # level by level from 0.0, so every energy adds its terms in level order
    counts = np.array(occupations)
    energies = np.zeros(len(occupations))
    for level, e in enumerate(levels):
        energies += counts[:, level] * e
    weights = np.exp(-beta * energies)
    if tag == "MB":  # multinomial multiplicity n!/prod(c!)
        n_fact = math.factorial(n)
        weights *= np.array([n_fact // math.prod(map(math.factorial, o))
                             for o in occupations], dtype=float)
    z = float(weights.sum())
    if not (math.isfinite(z) and z > 0.0):
        raise DegeneratePartition("partition sum is %r at beta = %r; the Boltzmann "
                                  "weights under- or overflow" % (z, beta))
    return PartitionTable(statistics=tag, levels=levels, n=n, beta=float(beta),
                          occupations=occupations, energies=energies,
                          weights=weights, probabilities=weights / z, z=z)


def write_occupancy_csv(table, path):
    states = [";".join(map(str, occ)) for occ in table.occupations]
    write_csv(path, ["state", "energy", "probability"],
              [states, table.energies, table.probabilities])


# ---------------------------------------------------------------------------
# arrival estimation

@dataclass(frozen=True)
class ArrivalData:
    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or len(times) < 2:
            raise UsageError("need an ordered 1-d array of at least two times")
        if (np.diff(times) < 0).any():
            raise UsageError("detection times must be nondecreasing")


def exp_arrival_estimator(data):
    """Rate estimate theta_hat = (gap count) / (t_n - t_0).

    The mean gap of an exponential stream estimates 1/theta, and only the
    endpoints survive the telescoping sum.
    """
    t = data.times
    span = t[-1] - t[0]
    if span == 0.0:
        raise DegenerateData("all detection times coincide")
    return (len(t) - 1) / span


def synthetic_arrivals(theta, n_gaps, seed=0, t0=0.0):
    if theta <= 0 or n_gaps < 1:
        raise UsageError("theta must be positive and n_gaps >= 1")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / theta, size=n_gaps)
    return ArrivalData(times=t0 + np.concatenate([[0.0], gaps.cumsum()]))


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
