"""Equations of motion, trajectory records, and transport diagnostics.

The canonical right-hand side keeps the metric factors written out:
dx^a/ds = eta^{ab} dH/dp^b and dp^a/ds = -eta^{ab} dH/dx^b, applied
literally, so conserved H is an antisymmetry statement and not a convention.
Models may override the flow entirely (the uniform-force model does: its
trajectory is proper-time kinematics, which the canonical flow of its H is
not); the H column in the record then reports whatever the model's H does
along that flow instead of a conserved value.

A trajectory record carries, per sample: the state, H, the four-force norm
dm/ds = sqrt(|pdot . pdot|), and the scale-normalized commutator of slash(p)
with slash(pdot). The last is the geodesic criterion: it vanishes iff pdot
is parallel to p.
"""

import math
from functools import partial
from itertools import combinations

import numpy as np

from .clifford import minkowski_dot
from .geometry import christoffel_at
from .config import MODEL, integer, parse
from .errors import SingularMetric, StepRejected, UsageError
from .hamilton_jacobi import projectile_field

__all__ = [
    "HamiltonianModel",
    "free_particle_model",
    "projectile_model",
    "model_from_config",
    "hamilton_rhs",
    "Trajectory",
    "integrate",
    "operator_commutator",
    "CovariantTrajectory",
    "covariant_integrate",
]

# Most samples one run may record, ceil((s_max / step) / record_stride) + 1.
# Each is a preallocated row of floats (72 bytes in a model run: s and the 8
# state components), so this bounds a run's memory; a larger request is a
# usage error raised before the first step.
MAX_RECORDS = 10 ** 6
# Most steps one run may take, s_max / step, whatever its record_stride: this
# bounds a run's time (about 2 to 3 minutes at the 11-17 us a canonical model
# RK4 step takes on a shared 2-core x86 machine). A larger request is a usage
# error raised before the first step.
MAX_STEPS = 10 ** 7


class HamiltonianModel:
    """H(x, p), its partials, an optional flow override and a guard, in
    component form: x and p are 4 components each; H answers one number per
    state, each partial 4 components (a tuple; a constant one may be a plain
    number) and the flow a pair of them. integrate passes one state's
    components as Python floats (its state is a list of them) while stepping
    and the recorded states' numpy columns (rows.T) for its diagnostics.
    + - * / and square roots round alike on both, so one definition serves
    both; write x * x, not x ** 2, which the two round and overflow
    differently. Both partials are required, in closed form. The guard sees
    one state."""

    def __init__(self, hamiltonian, dh_dx, dh_dp, flow=None, guard=None, m0=None):
        self.hamiltonian = hamiltonian
        self.dh_dx = dh_dx
        self.dh_dp = dh_dp
        self.flow = flow
        self.guard = guard
        self.m0 = m0


def _momentum_rhs(model, x, p):
    """dp^a/ds = -eta^{ab} dH/dx^b, with eta = diag(1, -1, -1, -1) written out."""
    f = model.dh_dx(x, p)
    return -f[0], f[1], f[2], f[3]


def hamilton_rhs(model, x, p):
    """The literal canonical equations, per component; see the module docstring."""
    v = model.dh_dp(x, p)
    return (v[0], -v[1], -v[2], -v[3]), _momentum_rhs(model, x, p)


def _sqrt(v):
    """The square root of a Python float (math.sqrt, which raises on a
    negative) or of a column (np.sqrt); both are correctly rounded."""
    return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)


def _energy(p, m0_sq):
    """sqrt(m0^2 + |p_spatial|^2)."""
    return _sqrt(m0_sq + (p[1] * p[1] + p[2] * p[2] + p[3] * p[3]))


def free_particle_model(m0):
    m0_sq = m0 ** 2

    def h(x, p):
        return _energy(p, m0_sq)

    def dh_dx(x, p):
        return 0.0, 0.0, 0.0, 0.0

    def dh_dp(x, p):
        e = _energy(p, m0_sq)
        return 0.0, p[1] / e, p[2] / e, p[3] / e

    return HamiltonianModel(h, dh_dx, dh_dp, m0=m0)


def projectile_model(m0, u_x, u_y, g):
    """Uniform force along -x2. The flow override is proper-time kinematics:
    dx/ds = p/m0 and dp2/ds = -m0 g, with dp0/ds chosen so p.p stays put.
    reference carries the closed-form trajectory for oracles."""
    reference = projectile_field(m0, u_x, u_y, g)
    m0_sq, mg = m0 ** 2, m0 * g

    def h(x, p):
        return _energy(p, m0_sq) + mg * x[2]

    def dh_dx(x, p):
        return 0.0, 0.0, mg, 0.0

    def dh_dp(x, p):
        e = _energy(p, m0_sq)
        return 0.0, p[1] / e, p[2] / e, p[3] / e

    def flow(x, p):
        return ((p[0] / m0, p[1] / m0, p[2] / m0, p[3] / m0),
                (-mg * p[2] / p[0], 0.0, -mg, 0.0))

    def guard(x, p):
        if p[0] <= 1e-12:
            return "energy component vanished"
        return None

    model = HamiltonianModel(h, dh_dx, dh_dp, flow=flow, guard=guard, m0=m0)
    model.reference = reference
    return model


def model_from_config(cfg):
    cfg = parse(MODEL, cfg, "model")
    if cfg["kind"] == "free":
        return free_particle_model(float(cfg["m0"]))
    return projectile_model(float(cfg["m0"]), float(cfg["u_x"]),
                            float(cfg["u_y"]), float(cfg["g"]))


def _abs_max(components):
    """max_a |c_a| per state, as np.abs(c).max(axis=0) but one component at
    a time: no temporary of the whole stack's size is built."""
    out = np.abs(components[0])
    for c in components[1:]:
        out = np.maximum(out, np.abs(c))
    return out


def operator_commutator(p, pdot):
    """(raw, normalized) Frobenius norms of [slash(p), slash(pdot)], per
    state when p and pdot are (..., 4) stacks.

    normalized divides by |slash(p)|_F |slash(pdot)|_F and is defined as zero
    when the force vanishes, so geodesics sit at exactly 0. Both come in
    closed form from the lowered components P and Q: the commutator is
    2 sum_{a<b} (P ^ Q)_{ab} gamma^a gamma^b, and the six gamma^a gamma^b, like
    the four gamma^a, are Frobenius-orthogonal with norm 2, so
    raw = 4 |P ^ Q| and |slash(p)|_F = 2 |P| (Euclidean norms). Lowering only
    flips signs, which leaves every square below unchanged, so the upper
    components are used as given.
    """
    p = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    q = np.moveaxis(np.asarray(pdot, dtype=float), -1, 0)
    # fmax passes over a NaN component of p: a zero force still reads as none
    no_force = _abs_max(q) <= 1e-13 * np.fmax(1.0, _abs_max(p))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, silently
        wedge = 0.0
        for a, b in combinations(range(4), 2):  # (P ^ Q)_ab squared, in order
            w = p[a] * q[b] - p[b] * q[a]
            wedge = wedge + w * w
        raw = np.where(no_force, 0.0, 4.0 * np.sqrt(wedge))
        del w, wedge  # free before the denominator's temporaries
        denom = 4.0 * (np.sqrt(sum(c * c for c in p)) * np.sqrt(sum(c * c for c in q)))
        norm = np.divide(raw, denom, out=np.zeros_like(raw),
                         where=~(no_force | (denom < 1e-280)))
    return raw[()], norm[()]  # numbers for one state


class Trajectory:
    """Sampled run of one model: arrays indexed by sample, not by step."""

    COLUMNS = ["s", "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
               "H", "dm_ds", "comm_norm"]

    def __init__(self, s, x, p, h, dm_ds, comm_norm):
        self.s = np.asarray(s)
        self.x = np.asarray(x)
        self.p = np.asarray(p)
        self.h = np.asarray(h)
        self.dm_ds = np.asarray(dm_ds)
        self.comm_norm = np.asarray(comm_norm)

    def energy_drift(self):
        return float(np.abs(self.h - self.h[0]).max())

    def mass_shell_drift(self):
        pp = self.p[:, 0] ** 2 - (self.p[:, 1:] ** 2).sum(axis=1)
        return float(np.abs(pp - pp[0]).max())

    def columns(self):
        """One array per COLUMNS name, in order."""
        return [self.s, *self.x.T, *self.p.T, self.h, self.dm_ds, self.comm_norm]


def rk4_step(rhs, state, step):
    """One classical RK4 step of d(state)/ds = rhs(state); returns the new
    state. state is a list of components (Python floats for one state, numpy
    columns for a stack) and rhs answers one such list. Each component is
    combined as state + sixth * (k1 + 2 k2 + 2 k3 + k4) combines arrays, in
    the same order, so the bits are those of the array formula."""
    half, sixth = 0.5 * step, step / 6.0
    k1 = rhs(state)
    k2 = rhs([a + half * b for a, b in zip(state, k1)])
    k3 = rhs([a + half * b for a, b in zip(state, k2)])
    k4 = rhs([a + step * b for a, b in zip(state, k3)])
    return [a + sixth * (b + 2 * c + 2 * d + e)
            for a, b, c, d, e in zip(state, k1, k2, k3, k4)]


def step_count(s_max, step, record_stride):
    """(steps, records) of a fixed-step run over [0, s_max] that records
    step 0, every record_stride-th step and the last. Every run checks its
    size here before its first step: UsageError for a step that is not
    positive, an s_max that is not a positive multiple of it, a
    record_stride that is not an int >= 1, more than MAX_RECORDS records or
    more than MAX_STEPS steps."""
    if not step > 0:
        raise UsageError("step must be positive")
    integer(1).check(record_stride, "record_stride")
    ratio = s_max / step
    if math.isinf(ratio):  # no int to round to
        raise UsageError("s_max / step overflows, more than the cap of %d steps"
                         % MAX_STEPS)
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(n_steps * step - s_max) > 1e-9 * max(1.0, abs(s_max)):
        raise UsageError("s_max must be a positive multiple of step")
    n_records = -(-n_steps // record_stride) + 1
    if n_records > MAX_RECORDS:
        raise UsageError("%d steps at record_stride %d make %d records, more "
                         "than the cap of %d" % (n_steps, record_stride, n_records,
                                                 MAX_RECORDS))
    if n_steps > MAX_STEPS:
        raise UsageError("%d steps, more than the cap of %d" % (n_steps, MAX_STEPS))
    return n_steps, n_records


def _rejected(i, step, state, msg, error=StepRejected, label="last finite state"):
    """An error (StepRejected) naming step i, its s and the last finite
    state (or what label says it is), printed as its two halves
    [[x...], [p...]] of plain floats."""
    state = np.asarray(state, dtype=float).tolist()
    half = len(state) // 2
    return error("step %d (s = %r): %s; %s %s"
                 % (i, i * step, msg, label, [state[:half], state[half:]]))


def _check_initial(state, step):
    """StepRejected at step 0 for an initial state, a list, with a component
    that is not finite: no step is taken from it."""
    if not all(map(math.isfinite, state)):
        raise _rejected(0, step, state, "non-finite state", label="initial state")


# what a metric evaluation raises during a run: re-raised naming the step
_RUN_FAULTS = (np.linalg.LinAlgError, ArithmeticError, SingularMetric)


def _drive(state, stage, s_max, step, record_stride, guard=None, record=None):
    """The fixed-step RK4 loop of both integrators over [0, s_max].

    state is one list of components, the coordinates then the momenta, and
    stage(state) its right-hand side, one such list. Step 0, every
    record_stride-th step and the last are recorded: returns (s, rows), their
    s values and one preallocated row each, holding record(state) (by default
    the state).
    Raises StepRejected when the state is or goes non-finite or guard(state)
    returns a message, and step_count's UsageError before the first step. A
    singular or overflowing evaluation during the run is re-raised as its
    own type, naming the step as StepRejected does.
    """
    n_steps, n_records = step_count(s_max, step, record_stride)
    _check_initial(state, step)
    msg = guard and guard(state)
    if msg:
        raise _rejected(0, step, state, msg)
    record = record or (lambda y: y)
    i = k = 0
    try:
        # overflow or a zero division here is a detected condition
        # (StepRejected, or a non-finite diagnostic), not a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            first = record(state)
            rows = np.empty((n_records, len(first)))
            rows[0] = first
            for i in range(1, n_steps + 1):
                last, state = state, rk4_step(stage, state, step)
                # not a sum: that overflows on some finite states
                if not all(map(math.isfinite, state)):
                    raise _rejected(i, step, last, "non-finite state")
                msg = guard and guard(state)
                if msg:
                    raise _rejected(i, step, state, msg)
                if i % record_stride == 0 or i == n_steps:
                    k += 1
                    rows[k] = record(state)
    except _RUN_FAULTS as exc:
        # state is finite: a stage raised before replacing it, or record raised
        raise _rejected(i, step, state, exc, type(exc)) from exc
    return np.append(np.arange(0, n_steps, record_stride), n_steps) * step, rows


def _rhs_for(model, canonical):
    """integrate's (x, p) -> (dx/ds, dp/ds) and its dp/ds half alone: the
    model's flow override unless canonical, else the canonical equations."""
    if model.flow is not None and not canonical:
        return model.flow, lambda x, p: model.flow(x, p)[1]
    return partial(hamilton_rhs, model), partial(_momentum_rhs, model)


# Python floats raise where numpy returns inf or nan; a stage that raises one
# of these leaves a NaN state, which _drive rejects as non-finite
_FLOAT_FAULTS = (ZeroDivisionError, OverflowError, ValueError)


def integrate(model, x0, p0, s_max, step=1e-3, record_stride=1, canonical=False):
    """Fixed-step RK4 integration of one model from (x0, p0) over [0, s_max].

    The model's flow override is used when it has one (pass canonical=True
    to force the literal canonical equations). The state is one list of 8
    Python floats, the coordinates then the momenta: each stage hands the
    model its halves and lists the components it answers, with no numpy call
    per step. The dm_ds and comm_norm columns
    come from the dp/ds half of the right-hand side that was integrated,
    evaluated once over the recorded columns.
    Raises StepRejected when the state goes non-finite (also when a model
    callable raises ZeroDivisionError, OverflowError or ValueError on the
    Python floats, where numpy would give inf or nan) or the model's guard
    trips, and UsageError for a bad step or record_stride.
    """
    rhs, pdot_of = _rhs_for(model, canonical)

    def stage(y):
        try:
            dx, dp = rhs(y[:4], y[4:])
        except _FLOAT_FAULTS:
            return [math.nan] * 8
        return [*dx, *dp]

    guard = model.guard and (lambda y: model.guard(y[:4], y[4:]))
    state = np.concatenate((np.asarray(x0, dtype=float),
                            np.asarray(p0, dtype=float))).tolist()
    s, rows = _drive(state, stage, s_max, step, record_stride, guard)
    cols = rows.T
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.broadcast_to(model.hamiltonian(cols[:4], cols[4:]), s.shape)
        # a constant component comes back a number: broadcast it to a column
        pdot = np.array(np.broadcast_arrays(*pdot_of(cols[:4], cols[4:]), s)[:-1]).T
        comm = operator_commutator(rows[:, 4:], pdot)[1]
        dm_ds = np.sqrt(np.abs(minkowski_dot(pdot, pdot)))
    return Trajectory(s, rows[:, :4], rows[:, 4:], h, dm_ds, comm)


# -- curved-chart runs ---------------------------------------------------------

class CovariantTrajectory:
    def __init__(self, s, x, p_upper, k, geodesic_residual):
        self.s = np.asarray(s)
        self.x = np.asarray(x)
        self.p_upper = np.asarray(p_upper)
        self.k = np.asarray(k)
        self.geodesic_residual = np.asarray(geodesic_residual)

    def k_drift(self):
        return float(np.abs(self.k - self.k[0]).max())

    def max_residual(self):
        return float(self.geodesic_residual.max())

    def header(self):
        dims = range(self.x.shape[1])
        return (["s"] + ["x%d" % i for i in dims] + ["p%d" % i for i in dims]
                + ["K", "geodesic_residual"])

    def columns(self):
        """One array per header() name, in order."""
        return [self.s, *self.x.T, *self.p_upper.T, self.k, self.geodesic_residual]


def _geodesic_flow(metric, xs, pl):
    """(g^{-1}, u = dx/ds = p^mu, dgu[lam, alpha] = d_lam g_{alpha beta}
    u^beta, dp_mu/ds) at the arrays xs and pl = p_mu: one inverse and one
    partials evaluation."""
    ginv = np.linalg.inv(metric.matrix(xs))
    up = ginv @ pl
    dgu = metric.dg(xs) @ up
    return ginv, up, dgu, 0.5 * (dgu @ up)


def _diagonal_geodesic_rhs(metric, y):
    """d(x, p_mu)/ds of the state list y for a diagonal metric, in Python
    floats: u_a = (1 / g_aa) p_a + 0.0 and dp_lam/ds = 0.5 * the sum from 0.0,
    over the nonzero partials in order of a, of (d_lam g_aa u_a) u_a. A sum of
    one or two terms has _geodesic_flow's bits, as the zeros it adds are exact."""
    xs = y[:metric.dim]
    up = [i * p + 0.0 for i, p in zip(metric.inverse_diag(xs), y[metric.dim:])]
    pdot = [0.0] * metric.dim
    for lam, a, _, part in metric.partials:
        pdot[lam] += (part(xs) * up[a]) * up[a]
    return up + [0.5 * v for v in pdot]


def covariant_integrate(metric, x0, p0_upper, s_max, step=1e-3, record_stride=1):
    """Geodesic flow in a chart: canonical variables (x^mu, p_mu) under
    K = (1/2) g^{mu nu} p_mu p_nu, integrated with RK4.

    dx = u = g^{-1} p and dp_mu = (1/2) u^alpha d_mu g_{alpha beta} u^beta,
    which is -(1/2) d_mu(g^{alpha beta}) p_alpha p_beta written with the
    lowered-index partials. The recorded residual is
    |dp^mu/ds + Gamma^mu_{nu lam} u^nu p^lam| per sample, which the exact
    flow sends to rounding.

    A diagonal metric steps in Python floats (_diagonal_geodesic_rhs), any
    other in _geodesic_flow's arrays, as every record does. The run is sized
    (step_count) before p0_upper is lowered. An x0 or p0_upper that is not
    finite, a fault lowering p0_upper, or a lowered momentum that is not
    finite, names step 0 with x0 and p0_upper.
    """
    step_count(s_max, step, record_stride)
    x = np.asarray(x0, dtype=float)
    dim = x.size
    p0 = np.asarray(p0_upper, dtype=float)
    _check_initial(np.concatenate((x, p0)).tolist(), step)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            p_low = metric.matrix(x) @ p0
    except _RUN_FAULTS as exc:
        raise _rejected(0, step, np.concatenate((x, p0)), exc, type(exc)) from exc
    if not np.isfinite(p_low).all():
        raise _rejected(0, step, np.concatenate((x, p0)), "non-finite lowered momentum")

    def rhs(y):
        y = np.array(y)
        _, up, _, pdot_low = _geodesic_flow(metric, y[:dim], y[dim:])
        return up.tolist() + pdot_low.tolist()

    stage = rhs if metric.diag is None else partial(_diagonal_geodesic_rhs, metric)

    def record(y):
        """The row (x, p^mu, K, geodesic residual) of state y."""
        y = np.array(y)
        xs, pl = y[:dim], y[dim:]
        ginv, up, dgu, pdot_low = _geodesic_flow(metric, xs, pl)
        k = 0.5 * float(pl @ up)
        # d(g^{-1} p)/ds = g^{-1} (dp/ds - (u^lam d_lam g) u)
        dup = ginv @ (pdot_low - up @ dgu)
        gamma = christoffel_at(metric, xs)  # the residual's independent route
        resid = dup + np.einsum("mnl,n,l->m", gamma, up, up)
        return np.concatenate((xs, up, [k, np.abs(resid).max()]))

    s, rows = _drive(np.concatenate((x, p_low)).tolist(), stage, s_max, step,
                     record_stride, record=record)
    return CovariantTrajectory(s, rows[:, :dim], rows[:, dim:2 * dim],
                               rows[:, 2 * dim], rows[:, 2 * dim + 1])
