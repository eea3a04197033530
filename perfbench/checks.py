"""Independent oracles for the artifacts that the benchmark's CLI calls write.

Nothing here imports hjdirac. Every expected value is computed from the
input config with numpy and the standard library, so a fault in the program
cannot hide in its own check. Each check takes the output directory and the
config the program was given, and returns a list of error strings; an empty
list means the artifact passed.
"""

import hashlib
import itertools
import json
import math
import os

import numpy as np

TRAJECTORY_COLUMNS = ["s", "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
                      "H", "dm_ds", "comm_norm"]
COVARIANT_COLUMNS = ["s", "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3", "K",
                     "geodesic_residual"]
VERIFY_SUITES = ("clifford", "geometry", "hj", "dirac", "dynamics", "statmech")
VERIFY_CHECKS = 22

# Tolerances sit a few decades above the deviations measured on correct
# output, and a decade or more below the smallest corruption the self-tests
# inject (a 1e-6 shift).
TOL_CLOSED_FORM = 1e-9    # RK4 at step 1e-3 over s <= 20; measured 6e-12
TOL_ROUNDING = 1e-12      # quantities recomputed from a row's own state
TOL_H_DRIFT = 1e-8        # canonical flow, the bound verify's suite uses
TOL_LINE = 1e-9           # covariant runs mapped to Cartesian coordinates
TOL_SUM = 1e-10           # sums over ~1e6 terms
STREAM_ROWS = 1 << 16     # rows parsed at a time from the large CSVs


def file_digests(out_dir):
    """sha256 of every file in out_dir, keyed by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        sha = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
        digests[name] = sha.hexdigest()
    return digests


def load_strict_json(path):
    """Parse JSON, refusing NaN and Infinity, which strict parsers reject."""
    def refuse(token):
        raise ValueError("non-finite JSON constant %s" % token)

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def _json_errors(out_dir, name):
    try:
        load_strict_json(os.path.join(out_dir, name))
    except (OSError, ValueError) as exc:
        return ["%s: %s" % (name, exc)]
    return []


def _read_table(path, columns):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != columns:
            raise ValueError("%s header %s, expected %s"
                             % (os.path.basename(path), header, columns))
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _expected_s(cfg):
    """The s values a fixed-step run records, the last step always included."""
    n_steps = int(round(cfg["s_max"] / cfg["step"]))
    stride = cfg["record_stride"]
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.asarray(steps, dtype=float) * cfg["step"]


def _rows_errors(table, cfg, tag):
    s_expected = _expected_s(cfg)
    if len(table) != len(s_expected):
        return ["%s: %d rows, expected %d" % (tag, len(table), len(s_expected))]
    dev = np.abs(table[:, 0] - s_expected).max()
    if dev > TOL_ROUNDING * max(1.0, cfg["s_max"]):
        return ["%s: s column off the step grid by %.3g" % (tag, dev)]
    return []


def _bounded(tag, what, dev, tol):
    if not dev <= tol:   # also catches NaN
        return ["%s: %s deviates by %.3g > %.1g" % (tag, what, dev, tol)]
    return []


def wedge_ratio(p_upper, q_upper):
    """|P ^ Q| / (|P| |Q|) with Euclidean norms of the lowered components.

    The six bivectors gamma^a gamma^b are Frobenius-orthogonal unitaries, so
    this equals |[slash p, slash q]|_F / (|slash p|_F |slash q|_F).
    """
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    P = np.atleast_2d(p_upper) * eta
    Q = np.atleast_2d(q_upper) * eta
    wedge = [P[:, a] * Q[:, b] - P[:, b] * Q[:, a]
             for a, b in itertools.combinations(range(4), 2)]
    wedge_norm = np.sqrt(sum(w * w for w in wedge))
    return wedge_norm / (np.linalg.norm(P, axis=1) * np.linalg.norm(Q, axis=1))


def _minkowski_norm(v):
    return np.sqrt(np.abs(v[:, 0] ** 2 - (v[:, 1:] ** 2).sum(axis=1)))


# ---------------------------------------------------------------------------
# verify

def check_verify(out_dir, cfg):
    tag = "verify"
    try:
        report = load_strict_json(os.path.join(out_dir, "verify_report.json"))
    except (OSError, ValueError) as exc:
        return ["%s: verify_report.json: %s" % (tag, exc)]
    errors = []
    suites = report.get("suites", {})
    if sorted(suites) != sorted(VERIFY_SUITES):
        errors.append("%s: suites %s" % (tag, sorted(suites)))
    checks = [(name, c) for name in VERIFY_SUITES
              for c in suites.get(name, {}).get("checks", [])]
    if len(checks) != VERIFY_CHECKS:
        errors.append("%s: %d checks, expected %d"
                      % (tag, len(checks), VERIFY_CHECKS))
    for name, c in checks:
        res, tol = c.get("residual"), c.get("tolerance")
        if not (isinstance(res, float) and isinstance(tol, float)
                and math.isfinite(res) and res <= tol and c.get("passed") is True):
            errors.append("%s: %s check %r residual %r tolerance %r passed %r"
                          % (tag, name, c.get("check"), res, tol, c.get("passed")))
    if report.get("passed") is not True:
        errors.append("%s: report not passed" % tag)
    try:
        with open(os.path.join(out_dir, "verify_report.csv")) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return errors + ["%s: %s" % (tag, exc)]
    if lines[:1] != ["suite,check,residual,tolerance,passed"]:
        errors.append("%s: csv header %r" % (tag, lines[:1]))
    csv_residuals = [float(line.split(",")[-3]) for line in lines[1:]]
    if csv_residuals != [c.get("residual") for _, c in checks]:
        errors.append("%s: csv residuals differ from the JSON report" % tag)
    return errors


# ---------------------------------------------------------------------------
# simulate

def projectile_closed_form(m0, u_x, u_y, g, s):
    """Event and four-momentum of the uniform-force trajectory from the origin.

    t(s) is the integral of sqrt(a2 + w^2) with w = u_y - g s and
    a2 = 1 + u_x^2, whose antiderivative is (w sqrt(a2 + w^2)
    + a2 asinh(w / sqrt(a2))) / 2; the height is quadratic in s.
    """
    a2 = 1.0 + u_x ** 2
    w = u_y - g * s

    def anti(v):
        return 0.5 * (v * np.sqrt(a2 + v * v) + a2 * np.arcsinh(v / np.sqrt(a2)))

    zero = np.zeros_like(s)
    x = np.stack([(anti(u_y) - anti(w)) / g, u_x * s,
                  u_y * s - 0.5 * g * s * s, zero], axis=1)
    p = m0 * np.stack([np.sqrt(a2 + w * w), u_x + zero, w, zero], axis=1)
    return x, p


def _projectile_state_errors(tag, table, model, force):
    """H, dm_ds and comm_norm recomputed from each row's own (x, p)."""
    m0, g = model["m0"], model["g"]
    x, p = table[:, 1:5], table[:, 5:9]
    h = np.sqrt(m0 ** 2 + (p[:, 1:] ** 2).sum(axis=1)) + m0 * g * x[:, 2]
    errors = _bounded(tag, "H column", np.abs(table[:, 9] - h).max(),
                      TOL_ROUNDING * max(1.0, np.abs(h).max()))
    errors += _bounded(tag, "dm_ds column",
                       np.abs(table[:, 10] - _minkowski_norm(force)).max(),
                       TOL_ROUNDING)
    errors += _bounded(tag, "comm_norm column",
                       np.abs(table[:, 11] - wedge_ratio(p, force)).max(),
                       TOL_ROUNDING)
    return errors


def check_projectile(out_dir, cfg):
    """Proper-time kinematics run against the uniform-force closed form."""
    tag = "projectile"
    try:
        table = _read_table(os.path.join(out_dir, "trajectory.csv"),
                            TRAJECTORY_COLUMNS)
    except (OSError, ValueError) as exc:
        return ["%s: %s" % (tag, exc)]
    errors = _json_errors(out_dir, "simulate_report.json")
    errors += _rows_errors(table, cfg, tag)
    if errors:
        return errors
    model = cfg["model"]
    m0, g = model["m0"], model["g"]
    x_cf, p_cf = projectile_closed_form(m0, model["u_x"], model["u_y"], g,
                                        table[:, 0])
    dev = max(np.abs(table[:, 1:5] - x_cf).max(),
              np.abs(table[:, 5:9] - p_cf).max())
    errors += _bounded(tag, "trajectory vs closed form", dev, TOL_CLOSED_FORM)
    p = table[:, 5:9]
    # the kinematic flow's force: dp0/ds keeps p.p fixed, dp2/ds = -m0 g
    force = np.zeros_like(p)
    force[:, 0] = -m0 * g * p[:, 2] / p[:, 0]
    force[:, 2] = -m0 * g
    return errors + _projectile_state_errors(tag, table, model, force)


def check_canonical(out_dir, cfg):
    """Literal canonical flow of the projectile H: H must be conserved."""
    tag = "canonical"
    try:
        table = _read_table(os.path.join(out_dir, "trajectory.csv"),
                            TRAJECTORY_COLUMNS)
    except (OSError, ValueError) as exc:
        return ["%s: %s" % (tag, exc)]
    errors = _json_errors(out_dir, "simulate_report.json")
    errors += _rows_errors(table, cfg, tag)
    if errors:
        return errors
    model = cfg["model"]
    # dH/dx = (0, 0, m0 g, 0), so the canonical force has only a 2-component
    # of size m0 g; norm and wedge ratio do not depend on its sign.
    force = np.zeros((len(table), 4))
    force[:, 2] = model["m0"] * model["g"]
    errors += _projectile_state_errors(tag, table, model, force)
    h = table[:, 9]
    return errors + _bounded(tag, "H drift", np.abs(h - h[0]).max(), TOL_H_DRIFT)


def check_covariant(out_dir, cfg):
    """Geodesic of the flat metric in polar coordinates: a straight line.

    Both the closed-form polar metric and its polynomial twin describe flat
    space, so (t, r cos theta, r sin theta, z) must move linearly in s with
    the velocity set by the initial data, and K = g^{mn} p_m p_n / 2 stays at
    its initial value. geodesic_residual is only required to be finite: its
    size is set by the finite-difference step of the metric partials.
    """
    tag = "covariant-%s" % cfg["metric"]["kind"]
    try:
        table = _read_table(os.path.join(out_dir, "trajectory.csv"),
                            COVARIANT_COLUMNS)
    except (OSError, ValueError) as exc:
        return ["%s: %s" % (tag, exc)]
    errors = _json_errors(out_dir, "simulate_report.json")
    errors += _rows_errors(table, cfg, tag)
    if errors:
        return errors
    t0, r0, th0, z0 = cfg["x0"]
    u_t, u_r, u_th, u_z = cfg["p0_upper"]
    vx = u_r * math.cos(th0) - r0 * u_th * math.sin(th0)
    vy = u_r * math.sin(th0) + r0 * u_th * math.cos(th0)
    s, x = table[:, 0], table[:, 1:5]
    line = np.stack([t0 + u_t * s,
                     r0 * math.cos(th0) + vx * s,
                     r0 * math.sin(th0) + vy * s,
                     z0 + u_z * s], axis=1)
    mapped = np.stack([x[:, 0], x[:, 1] * np.cos(x[:, 2]),
                       x[:, 1] * np.sin(x[:, 2]), x[:, 3]], axis=1)
    errors += _bounded(tag, "Cartesian image vs straight line",
                       np.abs(mapped - line).max(), TOL_LINE)
    k = 0.5 * (u_t ** 2 - u_r ** 2 - (r0 * u_th) ** 2 - u_z ** 2)
    errors += _bounded(tag, "K", np.abs(table[:, 9] - k).max(), TOL_LINE)
    if not np.isfinite(table[:, 10]).all():
        errors.append("%s: non-finite geodesic_residual" % tag)
    return errors


def check_usage_error(exit_code, stderr):
    """A probe passes when the CLI refuses the config as a usage error."""
    if exit_code == 2 and stderr.startswith("usage error"):
        return []
    return ["exit code %r, stderr %r" % (exit_code, stderr.strip()[-200:])]


# ---------------------------------------------------------------------------
# ensemble

def _stream_rows(fh, columns, parse):
    header = fh.readline().rstrip("\n").split(",")
    if header != columns:
        raise ValueError("header %s, expected %s" % (header, columns))
    while True:
        lines = list(itertools.islice(fh, STREAM_ROWS))
        if not lines:
            return
        yield parse(lines)


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def check_mb(out_dir, cfg):
    """Velocity sample against its Gaussian law, parsed from samples.csv.

    Streams the file so the check's own memory stays small next to the
    program's peak, which the benchmark reports.
    """
    tag = "mb"
    n, m0, kb_t = cfg["n"], cfg["m0"], cfg["kB"] * cfg["T"]
    sigma2 = kb_t / (2.0 * m0)
    sigma = math.sqrt(sigma2)
    errors = _json_errors(out_dir, "moments.json")
    count = 0
    total = np.zeros(3)
    total_sq = np.zeros(3)
    below = above = 0
    energy_dev = 0.0
    index_ok = True
    try:
        with open(os.path.join(out_dir, "samples.csv")) as fh:
            for rows in _stream_rows(
                    fh, ["index", "vx", "vy", "vz", "energy"],
                    lambda lines: np.loadtxt(lines, delimiter=",", ndmin=2)):
                index_ok &= bool((rows[:, 0] == np.arange(count, count + len(rows))).all())
                v = rows[:, 1:4]
                energy = 0.5 * m0 * (v * v).sum(axis=1)
                energy_dev = max(energy_dev, float(
                    (np.abs(rows[:, 4] - energy) / np.maximum(energy, 1e-300)).max()))
                total += v.sum(axis=0)
                total_sq += (v * v).sum(axis=0)
                below += int((v[:, 0] < -5.0 * sigma).sum())
                above += int((v[:, 0] > 5.0 * sigma).sum())
                count += len(rows)
    except (OSError, ValueError) as exc:
        return errors + ["%s: samples.csv: %s" % (tag, exc)]
    if count != n or not index_ok:
        return errors + ["%s: %d rows (index column ok: %s), expected %d"
                         % (tag, count, index_ok, n)]
    errors += _bounded(tag, "energy column vs m0|v|^2/2", energy_dev, TOL_ROUNDING)
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1)
    se = sigma2 * math.sqrt(2.0 / (n - 1))
    errors += _bounded(tag, "per-axis variance (in standard errors)",
                       float(np.abs(var - sigma2).max() / se), 4.0)
    try:
        with open(os.path.join(out_dir, "histogram.csv")) as fh:
            hist = list(_stream_rows(
                fh, ["bin_lo", "bin_hi", "count", "expected"],
                lambda lines: np.loadtxt(lines, delimiter=",", ndmin=2)))[0]
    except (OSError, ValueError, IndexError) as exc:
        return errors + ["%s: histogram.csv: %s" % (tag, exc)]
    bins = cfg["bins"]
    edges = np.linspace(-5.0 * sigma, 5.0 * sigma, bins + 1)
    if len(hist) != bins:
        return errors + ["%s: %d histogram bins, expected %d" % (tag, len(hist), bins)]
    errors += _bounded(tag, "histogram edges",
                       max(np.abs(hist[:, 0] - edges[:-1]).max(),
                           np.abs(hist[:, 1] - edges[1:]).max()),
                       TOL_ROUNDING * 5.0 * sigma)
    if int(hist[:, 2].sum()) + below + above != n:
        errors.append("%s: histogram counts %d + tails %d != %d"
                      % (tag, int(hist[:, 2].sum()), below + above, n))
    expected = n * np.array([_normal_cdf(edges[i + 1] / sigma)
                             - _normal_cdf(edges[i] / sigma) for i in range(bins)])
    errors += _bounded(tag, "expected column vs Gaussian bin mass",
                       float(np.abs(hist[:, 3] - expected).max()),
                       TOL_SUM * n)
    return errors


def complete_homogeneous(xs, k):
    """h_k(xs), the sum of all degree-k monomials, by dynamic programming."""
    h = [1.0] + [0.0] * k
    for x in xs:
        for j in range(1, k + 1):
            h[j] += x * h[j - 1]
    return h[k]


def _parse_occupancy(lines):
    states, energies, probs = [], [], []
    for line in lines:
        state, energy, prob = line.rstrip("\n").split(",")
        states.append(tuple(int(c) for c in state.split(";")))
        energies.append(float(energy))
        probs.append(float(prob))
    return states, np.array(energies), np.array(probs)


def check_occupancy(out_dir, cfg):
    """Symmetric (BE) occupations against combinatorics and a DP partition sum."""
    tag = "occupancy"
    levels = np.asarray(cfg["levels"], dtype=float)
    n, beta = cfg["n"], cfg["beta"]
    try:
        report = load_strict_json(os.path.join(out_dir, "ensemble_report.json"))
    except (OSError, ValueError) as exc:
        return ["%s: ensemble_report.json: %s" % (tag, exc)]
    z = complete_homogeneous(np.exp(-beta * levels), n)
    errors = _bounded(tag, "partition sum vs h_n(exp(-beta e)) (relative)",
                      abs(report.get("partition_sum", math.nan) - z) / z, TOL_SUM)
    count = 0
    previous = None
    ordered = True
    shape_ok = True
    energy_dev = prob_dev = prob_sum = 0.0
    try:
        with open(os.path.join(out_dir, "occupancy.csv")) as fh:
            for states, energies, probs in _stream_rows(
                    fh, ["state", "energy", "probability"], _parse_occupancy):
                occ = np.array(states, dtype=float)
                shape_ok &= occ.shape[1:] == levels.shape and bool(
                    (occ.sum(axis=1) == n).all())
                if not shape_ok:
                    break
                ordered &= previous is None or previous < states[0]
                ordered &= all(a < b for a, b in zip(states, states[1:]))
                previous = states[-1]
                exact = occ @ levels
                energy_dev = max(energy_dev, float(
                    (np.abs(energies - exact) / np.maximum(1.0, exact)).max()))
                expected_p = np.exp(-beta * exact) / z
                prob_dev = max(prob_dev, float(
                    (np.abs(probs - expected_p) / expected_p).max()))
                prob_sum += float(probs.sum())
                count += len(states)
    except (OSError, ValueError) as exc:
        return errors + ["%s: occupancy.csv: %s" % (tag, exc)]
    if not shape_ok:
        return errors + ["%s: a state does not hold %d particles on %d levels"
                         % (tag, n, len(levels))]
    expected = math.comb(len(levels) + n - 1, n)
    if count != expected or report.get("states") != expected:
        errors.append("%s: %d states (report %r), expected C(%d, %d) = %d"
                      % (tag, count, report.get("states"),
                         len(levels) + n - 1, n, expected))
    if not ordered:
        errors.append("%s: states repeat or are out of lexicographic order" % tag)
    errors += _bounded(tag, "energy column vs occupations . levels",
                       energy_dev, TOL_ROUNDING)
    errors += _bounded(tag, "probability vs exp(-beta E)/Z (relative)",
                       prob_dev, TOL_SUM)
    errors += _bounded(tag, "probability sum", abs(prob_sum - 1.0), TOL_SUM)
    return errors
