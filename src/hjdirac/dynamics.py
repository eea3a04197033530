"""Equations of motion, trajectory records, and transport diagnostics.

The canonical right-hand side keeps the metric factors written out:
dx^a/ds = eta^{ab} dH/dp^b and dp^a/ds = -eta^{ab} dH/dx^b, applied
literally, so conserved H is an antisymmetry statement and not a convention.
Models may override the flow entirely (the uniform-force model does: its
trajectory is proper-time kinematics, which the canonical flow of its H is
not); the H column in the record then reports whatever the model's H does
along that flow instead of a conserved value.

Both integrators return one Trajectory: per sample, the state and the
run's named records. A model run records H, the four-force norm
dm/ds = sqrt(|pdot . pdot|), and the scale-normalized commutator of slash(p)
with slash(pdot), the geodesic criterion: it vanishes iff pdot is parallel
to p. A geodesic run in a chart records K and its geodesic residual.
"""

import math
from functools import partial
from itertools import combinations

import numpy as np

from ._util import Tape, Traced, require_nonzero
from .clifford import minkowski_dot
from .geometry import christoffel_at, metric_from_config
from .config import MAX_DIM, MODEL, SIMULATE, Spec, integer, parse
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
    "covariant_integrate",
    "simulate",
]

# Most samples one run may record, ceil((s_max / step) / record_stride) + 1.
# Each is a preallocated row of floats (72 bytes in a model run: s and the 8
# state components), so this bounds a run's memory; a larger request is a
# usage error raised before the first step.
MAX_RECORDS = 10 ** 6
# Most steps one run may take, s_max / step, whatever its record_stride: this
# bounds a run's time (about 17 s at the 1.6-1.7 us a canonical model RK4 step
# takes, the least of 3 timings of 20,000 steps in each of 5 runs on a shared
# 2-core x86 machine). A larger request is a usage error before the first step.
MAX_STEPS = 10 ** 7


class HamiltonianModel:
    """H, its partials and an optional flow override, each a callable of
    one state y = (x^0, x^1, x^2, x^3, p^0, p^1, p^2, p^3): y[0:4] are the
    coordinates x^a and y[4:8] the momenta p^a. H answers one number per
    state, each partial 4 components (a tuple; a constant one may be a plain
    number) and the flow dy/ds as 8 components. integrate traces the
    right-hand side it steps once per run, so no callable in it may branch
    on a state value, and calls every callable on the recorded states' 8
    numpy columns for the diagnostics. + - * / and square roots round alike
    on both; write x * x, not x ** 2, which floats and columns round and
    overflow differently. Both partials are required, in closed form. The
    optional guard is (index, bound, message), not a callable (UsageError):
    a run stops, StepRejected with the message, at the first state whose
    y[index] <= bound, the initial state included."""

    def __init__(self, hamiltonian, dh_dx, dh_dp, flow=None, guard=None, m0=None):
        if guard is not None and not (isinstance(guard, tuple) and len(guard) == 3
                                      and type(guard[0]) is int and 0 <= guard[0] < 8):
            raise UsageError("a guard is (index, bound, message), index an int from 0 "
                             "to 7, not %r" % (guard,))
        self.hamiltonian = hamiltonian
        self.dh_dx = dh_dx
        self.dh_dp = dh_dp
        self.flow = flow
        self.guard = guard
        self.m0 = m0


def hamilton_rhs(model, y):
    """dy/ds, 8 components, by the literal canonical equations; see the
    module docstring."""
    v, f = model.dh_dp(y), model.dh_dx(y)
    return [v[0], -v[1], -v[2], -v[3], -f[0], f[1], f[2], f[3]]


def _sqrt(v):
    """The square root of a Python float (math.sqrt, which raises on a
    negative) or of a column (np.sqrt); both are correctly rounded."""
    return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)


def _energy(y, m0_sq):
    """sqrt(m0^2 + |p_spatial|^2) of state y."""
    _, _, _, _, _, p1, p2, p3 = y
    return _sqrt(m0_sq + (p1 * p1 + p2 * p2 + p3 * p3))


def free_particle_model(m0):
    m0_sq = m0 ** 2

    def h(y):
        return _energy(y, m0_sq)

    def dh_dx(y):
        return 0.0, 0.0, 0.0, 0.0

    def dh_dp(y):
        _, _, _, _, _, p1, p2, p3 = y
        e = _energy(y, m0_sq)
        return 0.0, p1 / e, p2 / e, p3 / e

    return HamiltonianModel(h, dh_dx, dh_dp, m0=m0)


def projectile_model(m0, u_x, u_y, g):
    """Uniform force along -x2. The flow override is proper-time kinematics:
    dx/ds = p/m0 and dp2/ds = -m0 g, with dp0/ds chosen so p.p stays put.
    reference carries the closed-form trajectory for oracles. H is the free
    particle's plus m0 g x2, so the two share dH/dp."""
    reference = projectile_field(m0, u_x, u_y, g)
    m0_sq, mg = m0 ** 2, m0 * g

    def h(y):
        return _energy(y, m0_sq) + mg * y[2]

    def dh_dx(y):
        return 0.0, 0.0, mg, 0.0

    def flow(y):
        _, _, _, _, p0, p1, p2, p3 = y
        return [p0 / m0, p1 / m0, p2 / m0, p3 / m0, -mg * p2 / p0, 0.0, -mg, 0.0]

    model = HamiltonianModel(h, dh_dx, free_particle_model(m0).dh_dp, flow=flow,
                             guard=(4, 1e-12, "energy component vanished"), m0=m0)
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
    """Sampled run of either integrator, arrays indexed by sample, not by
    step: the parameter s, the coordinates x, the upper-index momenta p, and
    records, the integrator's per-sample columns by name, in order (H, dm_ds
    and comm_norm for a model run; K and geodesic_residual for a geodesic)."""

    def __init__(self, s, x, p, **records):
        self.s = np.asarray(s)
        self.x = np.asarray(x)
        self.p = np.asarray(p)
        self.records = {name: np.asarray(v) for name, v in records.items()}

    def header(self):
        """s, x0.., p0.., then the record names."""
        dims = range(self.x.shape[1])
        return ["s", *("x%d" % i for i in dims), *("p%d" % i for i in dims), *self.records]

    def columns(self):
        """One array per header() name, in order."""
        return [self.s, *self.x.T, *self.p.T, *self.records.values()]


def rk4_step(rhs, state, step):
    """One classical RK4 step of d(state)/ds = rhs(state); returns the new
    state. state is a list of components (Python floats for one state, numpy
    columns for a stack, Traced values for _compiled_run) and rhs answers
    one such list. Each component is combined as state + sixth * (k1 + 2 k2
    + 2 k3 + k4) combines arrays, in the same order, so the bits are those
    of the array formula. A run's loop is compiled from one trace of it (so
    its rhs may not branch on a state value): 1.5 us a step of the
    projectile flow, 1.6 of its canonical equations and 2.3 of a polar
    geodesic, where a Python loop calling one compiled step took 2.5, 3.0
    and 4.0 us (medians of 15 alternating runs of 20,000 steps at
    record_stride 100 in one process, shared 2-core x86). UsageError for a
    state of more than 2 * config.MAX_DIM components, as the compiled loop
    grows with it."""
    if len(state) > 2 * MAX_DIM:
        raise UsageError("a state of %d components, more than the cap of %d "
                         "(twice config.MAX_DIM)" % (len(state), 2 * MAX_DIM))
    half, sixth = 0.5 * step, step / 6.0
    k1 = rhs(state)
    k2 = rhs([a + half * b for a, b in zip(state, k1, strict=True)])
    k3 = rhs([a + half * b for a, b in zip(state, k2, strict=True)])
    k4 = rhs([a + step * b for a, b in zip(state, k3, strict=True)])
    return [a + sixth * (b + 2.0 * c + 2.0 * d + e)
            for a, b, c, d, e in zip(state, k1, k2, k3, k4, strict=True)]


# the source of _compiled_run's loop; o - o is 0.0 for a finite o and NaN
# otherwise, so the finite test's sum cannot overflow
_RUN = """def run(y, h, n_steps, stride, rows):
    %(state)s, = y
    i, b, fault = 1, 0, None
    try:
        %(hoisted)s
        for i in range(1, n_steps + 1):
            %(step)s
            if %(finite)s != 0.0: fault = 'non-finite state'; break
            %(copy)s
            %(guard)s
            if i %% stride == 0 or i == n_steps:
                b += %(n)d; %(store)s
    except FAULTS as exc:
        fault = exc
    return i, fault, [%(state)s]
"""


def _compiled_run(rhs, n, guard=None):
    """run(y, h, n_steps, stride, rows): _drive's loop of n_steps RK4 steps
    from the state y, a list of n Python floats, compiled from one trace of
    rk4_step over Traced values. Each step is the trace's code inlined, its
    steps that read only h (fixed) written once before the loop, so the
    loop calls no Python function. After each step it tests the new state
    finite, then the guard (index, bound, message), which trips at
    y[index] <= bound, and writes every stride-th and the last state into
    rows, a flat float64 memoryview, from its second row. It returns
    (i, fault, state): fault is None once all n_steps ran, else step i's, an
    exception of _RUN_FAULTS or the message 'non-finite state' or the
    guard's, and state the last finite one, or the one the guard read. A run
    fault the trace raises (a constant zero entry of a diagonal metric) is
    step 1's. UsageError, chained to the TypeError, for an rhs that branches
    on a traced value or makes it an array: a model callable is traced once
    per run, so it may not branch on a state value."""
    tape = Tape()
    y = [Traced(tape, "y%d" % i) for i in range(n)]
    try:
        out = rk4_step(rhs, y, Traced(tape, "h", fixed=True))
    except TypeError as exc:
        raise UsageError("a model callable is traced once per run, so it may not "
                         "branch on a state value: %s" % exc) from exc
    except _RUN_FAULTS as exc:
        return lambda y, *_, fault=exc: (1, fault, y)
    hoisted, body, results = tape.code(out)
    state, new = [v.name for v in y], ["o%d" % i for i in range(n)]
    tested = ""
    if guard:
        index, bound, message = guard
        tested = "if %s <= %r: fault = %r; break" % (state[index], float(bound), str(message))
    tape.names["FAULTS"] = _RUN_FAULTS
    return tape.define(_RUN % dict(
        state=", ".join(state), n=n, hoisted="\n        ".join(hoisted),
        step="\n            ".join([*body, *map("%s = %s".__mod__, zip(new, results))]),
        finite=" + ".join("(%s - %s)" % (o, o) for o in new),
        copy="; ".join(map("%s = %s".__mod__, zip(state, new))), guard=tested,
        store="; ".join("rows[b + %d] = %s" % c for c in enumerate(state))),
        "<rk4 run of %d components>" % n)


def step_count(s_max, step, record_stride):
    """(steps, records) of a fixed-step run over [0, s_max] that records
    step 0, every record_stride-th step and the last. Every run checks its
    size here before its first step: UsageError for a step that is not
    positive, an s_max that is not finite or not a positive multiple of it
    (within 1e-9 * s_max), a record_stride that is not an int >= 1, more than
    MAX_RECORDS records or more than MAX_STEPS steps."""
    if not step > 0:
        raise UsageError("step must be positive")
    integer(1).check(record_stride, "record_stride")
    if not math.isfinite(s_max):  # round has no int for it
        raise UsageError("s_max must be finite, got %r" % s_max)
    ratio = s_max / step
    if math.isinf(ratio):  # no int to round to
        raise UsageError("s_max / step overflows, more than the cap of %d steps"
                         % MAX_STEPS)
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(n_steps * step - s_max) > 1e-9 * s_max:
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


# what an evaluation may raise during a run, each read by _fault (a
# LinAlgError is a ValueError)
_RUN_FAULTS = (ArithmeticError, ValueError, SingularMetric)
# overflow or a zero division during a run is a detected condition
# (StepRejected, or a non-finite diagnostic), not a warning
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _fault(exc, i, step, state, msg="non-finite state"):
    """The error exc, raised evaluating the finite state at step i, reads as,
    naming both: a singular metric (LinAlgError, SingularMetric) keeps its
    type, and what a Python float raises where numpy gives inf or nan reads
    as numpy's condition, msg."""
    if isinstance(exc, (np.linalg.LinAlgError, SingularMetric)):
        return _rejected(i, step, state, exc, type(exc))
    return _rejected(i, step, state, msg)


def _drive(state, rhs, s_max, step, record_stride, guard=None):
    """The fixed-step RK4 loop of both integrators over [0, s_max].

    state is one list of components, the coordinates then the momenta, and
    rhs(state) its right-hand side, one such list. Step 0, every
    record_stride-th step and the last are recorded: returns (s, rows), their
    s values and one preallocated row each, holding the state. The loop is
    one compiled run (_compiled_run). Raises StepRejected when the state is
    or goes non-finite or the guard (index, bound, message) trips, at
    state[index] <= bound, and UsageError before the first step: step_count's,
    rk4_step's for a state over its cap, or _compiled_run's for an rhs that
    cannot be traced. A fault raised during a step names the step and the
    last finite state, with the type _fault gives it.
    """
    n_steps, n_records = step_count(s_max, step, record_stride)
    run = _compiled_run(rhs, len(state), guard)  # refuses a state over rk4_step's cap
    _check_initial(state, step)
    if guard and state[guard[0]] <= guard[1]:
        raise _rejected(0, step, state, guard[2])
    rows = np.empty((n_records, len(state)))
    rows[0] = state
    with np.errstate(**_QUIET):  # a numpy scalar step makes numpy scalar states
        i, fault, last = run(state, step, n_steps, record_stride, memoryview(rows.reshape(-1)))
    if isinstance(fault, str):
        raise _rejected(i, step, last, fault)
    if fault is not None:
        raise _fault(fault, i, step, last) from fault
    return np.append(np.arange(0, n_steps, record_stride), n_steps) * step, rows


def _components(v, n, name):
    """v as a float array of n components; UsageError naming it otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        got = len(v) if v.ndim == 1 else "shape %s" % (v.shape,)
        raise UsageError("%s must be %d components, not %s" % (name, n, got))
    return v


def integrate(model, x0, p0, s_max, step=1e-3, record_stride=1, canonical=False):
    """Fixed-step RK4 integration of one model from (x0, p0) over [0, s_max].

    The model's flow override is used when it has one (pass canonical=True
    to force the literal canonical equations). The state, one list of 8
    Python floats, goes to the model's callables as it is: no numpy call per
    step. dm_ds and comm_norm come from dp/ds = dy/ds[4:] of the right-hand
    side that was integrated, evaluated once over the recorded columns.
    Raises StepRejected when the state goes non-finite (also when a model
    callable raises ArithmeticError or ValueError on the Python floats, where
    numpy would give inf or nan) or the model's guard trips, and UsageError
    for an x0 or p0 that is not 4 components or a bad step or record_stride.
    """
    rhs = (model.flow if model.flow is not None and not canonical
           else partial(hamilton_rhs, model))
    state = np.concatenate((_components(x0, 4, "x0"),
                            _components(p0, 4, "p0"))).tolist()
    s, rows = _drive(state, rhs, s_max, step, record_stride, model.guard)
    cols = rows.T
    with np.errstate(**_QUIET):  # as in _drive
        h = np.broadcast_to(model.hamiltonian(cols), s.shape)
        # a constant component comes back a number: broadcast it to a column
        pdot = np.array(np.broadcast_arrays(*rhs(cols)[4:], s)[:-1]).T
        comm = operator_commutator(rows[:, 4:], pdot)[1]
        dm_ds = np.sqrt(np.abs(minkowski_dot(pdot, pdot)))
    return Trajectory(s, rows[:, :4], rows[:, 4:], H=h, dm_ds=dm_ds, comm_norm=comm)


# -- curved-chart runs ---------------------------------------------------------

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
    floats: u_a = (1 / g_aa) p_a + 0.0, which has np.linalg.inv's bits and
    fails as it does on a zero entry, and dp_lam/ds = 0.5 * the sum from 0.0,
    over the nonzero partials in order of a, of (d_lam g_aa u_a) u_a. A sum of
    one or two terms has _geodesic_flow's bits, as the zeros it adds are exact."""
    xs = y[:metric.dim]
    d = metric.diag(xs)
    require_nonzero(d, np.linalg.LinAlgError, "Singular matrix")
    up = [(1.0 / v) * p + 0.0 for v, p in zip(d, y[metric.dim:])]
    pdot = [0.0] * metric.dim
    for lam, a, part in metric.partials:
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

    The steps take Python floats (_diagonal_geodesic_rhs). After the last
    step each record takes the numpy flow and christoffel_at at its recorded
    state (x, p_mu), so a fault at any step is raised before a record's. The
    run is sized (step_count) before p0_upper is lowered. An x0 or p0_upper
    that is not finite, a fault lowering p0_upper, or a lowered momentum that
    is not finite, names step 0 with x0 and p0_upper. Faults read as _fault
    reads them, a Python float's at the lowering as a non-finite lowered
    momentum.
    """
    n_steps = step_count(s_max, step, record_stride)[0]
    dim = metric.dim
    x = _components(x0, dim, "x0")
    p0 = _components(p0_upper, dim, "p0_upper")
    initial = np.concatenate((x, p0))
    _check_initial(initial.tolist(), step)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            p_low = metric.matrix(x) @ p0
    except _RUN_FAULTS as exc:
        raise _fault(exc, 0, step, initial, "non-finite lowered momentum") from exc
    if not np.isfinite(p_low).all():
        raise _rejected(0, step, initial, "non-finite lowered momentum")
    s, rows = _drive(np.concatenate((x, p_low)).tolist(),
                     partial(_diagonal_geodesic_rhs, metric), s_max, step, record_stride)
    records = np.empty((len(rows), 2))  # K and the geodesic residual per row
    try:
        with np.errstate(**_QUIET):
            for k, y in enumerate(rows):
                xs, pl = y[:dim], y[dim:]
                ginv, up, dgu, pdot_low = _geodesic_flow(metric, xs, pl)
                # d(g^{-1} p)/ds = g^{-1} (dp/ds - (u^lam d_lam g) u)
                dup = ginv @ (pdot_low - up @ dgu)
                gamma = christoffel_at(metric, xs)  # the residual's independent route
                resid = dup + np.einsum("mnl,n,l->m", gamma, up, up)
                records[k] = 0.5 * float(pl @ up), np.abs(resid).max()
                pl[:] = up  # p^mu takes the place of p_mu, which is read no more
    except _RUN_FAULTS as exc:
        # an int step, so that its s prints as a plain float
        raise _fault(exc, int(min(k * record_stride, n_steps)), step, y) from exc
    return Trajectory(s, rows[:, :dim], rows[:, dim:], K=records[:, 0],
                      geodesic_residual=records[:, 1])


# -- runs from a config --------------------------------------------------------

def _drift(v):
    """Largest |v - v[0]| over a column."""
    return float(np.abs(v - v[0]).max())


def _line_fit_residual(s, x, y):
    design = np.stack([np.ones_like(s), s], axis=1)
    return float(max(np.abs(c - design @ np.linalg.lstsq(design, c, rcond=None)[0]).max()
                     for c in (x, y)))


def simulate(cfg):
    """(effective config, trajectory, diagnostics) of the run a simulate
    config asks for; a model run's effective p0 is the floats it started
    from. A diagnostic that overflows is returned, inf or nan, unwarned."""
    cfg = parse(SIMULATE, cfg, "simulate config", "model")
    if cfg["kind"] == "covariant":
        metric = metric_from_config(cfg["metric"])
        for key in ("x0", "p0_upper"):
            Spec("a list of %d numbers, one per metric dimension" % metric.dim, lambda v:
                 len(v) == metric.dim).check(cfg[key], "simulate config 'covariant' key %r" % key)
        traj = covariant_integrate(metric, cfg["x0"], cfg["p0_upper"], cfg["s_max"],
                                   step=cfg["step"], record_stride=cfg["record_stride"])
        with np.errstate(over="ignore", invalid="ignore"):
            diagnostics = {"k_drift": _drift(traj.records["K"]),
                           "max_geodesic_residual": float(traj.records["geodesic_residual"].max()),
                           "samples": int(len(traj.s))}
            if cfg["metric"].get("kind") == "polar":
                r, theta = traj.x[:, 1], traj.x[:, 2]
                diagnostics["straightness_residual"] = _line_fit_residual(
                    traj.s, r * np.cos(theta), r * np.sin(theta))
        return cfg, traj, diagnostics
    model = model_from_config(cfg["model"])
    p0 = cfg["p0"]
    if p0 is None:
        if getattr(model, "reference", None) is not None:
            # finite: config.MODEL keeps m0, u_x and u_y below 2 ** 511
            p0 = model.m0 * model.reference.tangent(0.0)
        elif model.m0:
            p0 = [model.m0, 0.0, 0.0, 0.0]
        else:
            raise UsageError("config needs p0 for this model")
    cfg["p0"] = [float(v) for v in np.asarray(p0, float)]
    traj = integrate(model, cfg["x0"], cfg["p0"], cfg["s_max"], step=cfg["step"],
                     canonical=cfg["canonical"], record_stride=cfg["record_stride"])
    s, x, p, comm = traj.s, traj.x, traj.p, traj.records["comm_norm"]
    late = comm[s > 0.1]
    with np.errstate(over="ignore", invalid="ignore"):
        diagnostics = {"energy_drift": _drift(traj.records["H"]),
                       "mass_shell_drift": _drift(p[:, 0] ** 2 - (p[:, 1:] ** 2).sum(axis=1)),
                       "comm_norm_max": float(comm.max()),
                       "comm_norm_late_min": float(late.min()) if late.size else 0.0,
                       "samples": int(len(s))}
        if cfg["model"].get("kind") == "projectile" and not cfg["canonical"]:
            ref = model.reference  # the closed form of the model's flow
            diagnostics["closed_form_deviation"] = float(max(
                np.abs(x - ref.position(s)).max(), np.abs(p - model.m0 * ref.tangent(s)).max()))
    return cfg, traj, diagnostics
