"""The shared numerical kernels against the code they replaced.

rk4_step, central_difference and eval_poly each took over several
hand-written copies, and christoffel_at, partition_enumerate and the
covariant record replaced slower loops. central_difference now serves the
closedness residual and the directional derivative only: every model,
metric, chart and field gives its derivatives in closed form, each checked
here or in its module's tests against central differences with the step
written in the test. The replaced code is kept here as the
oracle, and those comparisons are exact (np.array_equal or ==): the new code
keeps the old operation order, so it must reproduce the old bits, not just
the old values.

Three routes changed their algebra, not just their loops: the built-in
metrics' analytic partials (central differences before), the covariant
right-hand side in lowered-index form (g^{-1} dg g^{-1} before) and the
closed-form commutator norm (4x4 complex matrices before, in
operator_commutator and in geodesic_criterion_check). Their old routes
are kept here too and agree within stated tolerances.

integrate's H, dm_ds and comm_norm columns were computed one record at a
time; they are now computed once over all recorded states, and the
per-record route is kept here as their exact oracle.

Model callables took (..., 4) arrays and now take components: Python floats
for one state, numpy columns for a stack; the two round alike, so each
callable is checked for the same bits on both, and the array-valued
reference loops above read the components as arrays. They took x and p
apart and now take one state y = (x, p) of 8 components; the reference
loops keep their (x, p) halves and join them for each call (halves). The
covariant RK4 stages of every metric, each diagonal, invert in closed form,
1/diag, and run in Python floats; np.linalg.inv and the numpy flow, which
every record uses, are the stages' exact oracle.

rk4_step combined flat state arrays and now combines lists of components,
Python floats or numpy columns; ref_rk4's array formula is its exact oracle
on both. Its combinations were zip comprehensions, then straight-line code
generated per state length, and are zip comprehensions again: a run's loop
is one function compiled from a trace of rk4_step, its four stages and
their combinations fused into few statements. ref_rk4_step keeps the
comprehensions as the exact oracle of both, NaNs, infinities and signs of
zero included, and of the faults a run reports.

A polynomial metric's term lists went through eval_poly at every
evaluation and are now compiled once per metric into straight-line code;
ref_eval_poly is their exact oracle, exceptions included.

partition_enumerate's weights took np.exp and now take math.exp, whose bits
do not depend on the CPU numpy dispatches to; ref_partition takes math.exp
too.
"""

import ast
import math
from functools import partial
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from hjdirac import dirac as dr
from hjdirac import dynamics as dyn
from hjdirac import geometry as geo
from hjdirac import hamilton_jacobi as hj
from hjdirac import statmech as sm
from hjdirac import _util as util
from hjdirac._util import central_difference
from hjdirac.config import MAX_DIM
from hjdirac.clifford import slash
from hjdirac.dynamics import rk4_step
from hjdirac.errors import StepRejected, UsageError

from conftest import TermListMetric, harmonic_model, loop_calls, quadratic_model

BOX = hj.Box([2.0, -0.5, -0.5, -0.5], [3.0, 0.5, 0.5, 0.5])
TERMS = [[1.5, [2, 0, 1, 0]], [-0.3, [0, 3, 0, 1]], [2, [0, 0, 0, 0]],
         [0.7, [1, 1, 1, 1]], [-1.1, [0, 0, 4, 0]], [0.25, [0, 5, 0, 2]]]
POLYS = [TERMS, [], [[3.5, [0, 0, 0, 0]]], [[-2, [0, 0, 0, 0]], [1, [0, 0, 0, 0]]]]


def wide_points(rng, shape):
    """Points with coordinates on both sides of |x| = 1, where h changes form."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3, size=shape)


# -- the replaced code ----------------------------------------------------------

def ref_rk4(rhs, x, p, step, n_steps):
    """The inline two-variable loop of integrate and covariant_integrate. rhs
    may answer in components; they are made arrays before the arithmetic."""
    def arrays(x, p):
        return [np.asarray(v, dtype=float) for v in rhs(x, p)]

    for _ in range(n_steps):
        k1x, k1p = arrays(x, p)
        k2x, k2p = arrays(x + 0.5 * step * k1x, p + 0.5 * step * k1p)
        k3x, k3p = arrays(x + 0.5 * step * k2x, p + 0.5 * step * k2p)
        k4x, k4p = arrays(x + step * k3x, p + step * k3p)
        x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        p = p + (step / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return x, p


def ref_vector_jacobian(f, x, scale):
    """dirac._vector_jacobian's loop, which directional_derivative replaced."""
    jac = np.empty((4, 4))
    for b in range(4):
        h = scale * max(1.0, abs(x[b]))
        xp, xm = x.copy(), x.copy()
        xp[b] += h
        xm[b] -= h
        jac[:, b] = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2 * h)
    return jac


def ref_closedness(field, pts):
    """hamilton_jacobi._closedness_residual for a field with a one-form."""
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            ha = 1e-5 * np.maximum(1.0, np.abs(pts[:, a]))
            hb = 1e-5 * np.maximum(1.0, np.abs(pts[:, b]))
            xpa, xma = pts.copy(), pts.copy()
            xpa[:, a] += ha
            xma[:, a] -= ha
            d_a_wb = (field.one_form(xpa)[:, b] - field.one_form(xma)[:, b]) / (2 * ha)
            xpb, xmb = pts.copy(), pts.copy()
            xpb[:, b] += hb
            xmb[:, b] -= hb
            d_b_wa = (field.one_form(xpb)[:, a] - field.one_form(xmb)[:, a]) / (2 * hb)
            worst = max(worst, float(np.abs(d_a_wb - d_b_wa).max()))
    return worst


def ref_eval_poly(terms, x):
    """geometry.eval_poly's scalar loop."""
    total = 0.0
    for coeff, exps in terms:
        term = float(coeff)
        for xi, ei in zip(x, exps):
            if ei:
                term *= float(xi) ** int(ei)
        total += term
    return total


def ref_poly(term_list, x):
    """A polynomial field over a stack of points (..., n), in numpy arrays."""
    out = np.zeros(x.shape[:-1])
    for coeff, exps in term_list:
        term = np.full(x.shape[:-1], float(coeff))
        for axis, e in enumerate(exps):
            if e:
                term = term * x[..., axis] ** e
        out = out + term
    return out


def ref_christoffel(metric, x):
    """christoffel_at's quadruple loop over (mu, nu, lambda, sigma)."""
    ginv = np.linalg.inv(metric.matrix(x))
    dg = metric.dg(x)
    dim = metric.dim
    gamma = np.zeros((dim, dim, dim))
    for mu in range(dim):
        for nu in range(dim):
            for lam in range(dim):
                acc = 0.0
                for sig in range(dim):
                    acc += ginv[mu, sig] * (dg[nu][sig, lam] + dg[lam][sig, nu] - dg[sig][nu, lam])
                gamma[mu, nu, lam] = 0.5 * acc
    return gamma


def ref_covariant_records(metric, x0, p0_upper, step, n_steps):
    """covariant_integrate's former record, which evaluated the RHS twice,
    at every step: rows of (p^mu, K, geodesic residual)."""
    dim = metric.dim

    def dginv_at(xs):
        ginv = np.linalg.inv(metric.matrix(xs))
        dg = metric.dg(xs)
        return ginv, np.array([-ginv @ dg[lam] @ ginv for lam in range(dim)])

    def rhs(xs, pl):
        ginv, dginv = dginv_at(xs)
        return ginv @ pl, -0.5 * np.array([pl @ dginv[mu] @ pl for mu in range(dim)])

    def record(xs, pl):
        ginv, dginv = dginv_at(xs)
        up = ginv @ pl
        k = 0.5 * float(pl @ ginv @ pl)
        xdot, pdot_low = rhs(xs, pl)
        dup = np.tensordot(dginv, xdot, axes=(0, 0)) @ pl + ginv @ pdot_low
        resid = dup + np.einsum("mnl,n,l->m", ref_christoffel(metric, xs), xdot, up)
        return up, k, float(np.abs(resid).max())

    x = np.asarray(x0, dtype=float)
    pl = metric.matrix(x) @ np.asarray(p0_upper, dtype=float)
    rows = [record(x, pl)]
    for _ in range(n_steps):
        x, pl = ref_rk4(rhs, x, pl, step, 1)
        rows.append(record(x, pl))
    return rows


def ref_geodesic_rhs(metric, x, pl):
    """The lowered-index geodesic flow summed component by component:
    (g^{-1}, u = g^{-1} p, dp_mu/ds = (1/2) u^a d_mu g_ab u^b, d_l g_ab)."""
    dim = metric.dim
    ginv = np.linalg.inv(metric.matrix(x))
    dg = metric.dg(x)
    u = np.array([sum(ginv[m, n] * pl[n] for n in range(dim)) for m in range(dim)])
    pdot = np.array([0.5 * sum(u[a] * dg[m, a, b] * u[b] for a in range(dim) for b in range(dim))
                     for m in range(dim)])
    return ginv, u, pdot, dg


def ref_scalar_commutator(p, pdot):
    """operator_commutator's one-state route in Python floats."""
    p = np.asarray(p, dtype=float)
    pdot = np.asarray(pdot, dtype=float)
    if np.abs(pdot).max() <= 1e-13 * max(1.0, np.abs(p).max()):
        return 0.0, 0.0
    p0, p1, p2, p3 = p.tolist()
    q0, q1, q2, q3 = pdot.tolist()
    w01, w02, w03 = p0 * q1 - p1 * q0, p0 * q2 - p2 * q0, p0 * q3 - p3 * q0
    w12, w13, w23 = p1 * q2 - p2 * q1, p1 * q3 - p3 * q1, p2 * q3 - p3 * q2
    raw = 4.0 * math.sqrt(w01 * w01 + w02 * w02 + w03 * w03
                          + w12 * w12 + w13 * w13 + w23 * w23)
    denom = 4.0 * (math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
                   * math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3))
    if denom < 1e-280:
        return raw, 0.0
    return raw, raw / denom


def halves(rhs):
    """A model's y -> dy/ds as ref_rk4's (x, p) -> (dx/ds, dp/ds)."""
    def split(x, p):
        dy = rhs([*x, *p])
        return dy[:4], dy[4:]
    return split


def ref_record_columns(model, traj, rhs):
    """integrate's per-record diagnostics, one recorded state at a time, with
    rhs the (x, p) -> (xdot, pdot) that was integrated: (H, dm_ds, comm_norm)."""
    h, dm_ds, comm = [], [], []
    for x, p in zip(traj.x, traj.p):
        x, p = x.copy(), p.copy()
        _, pdot = rhs(x, p)
        fdotf = float(pdot[0] * pdot[0] - pdot[1] * pdot[1]
                      - pdot[2] * pdot[2] - pdot[3] * pdot[3])
        h.append(float(model.hamiltonian(np.concatenate((x, p)))))
        dm_ds.append(np.sqrt(abs(fdotf)))
        comm.append(ref_scalar_commutator(p, pdot)[1])
    return h, dm_ds, comm


def ref_operator_commutator(p, pdot):
    """operator_commutator's 4x4 complex matrix route."""
    p = np.asarray(p, dtype=float)
    pdot = np.asarray(pdot, dtype=float)
    if np.abs(pdot).max() <= 1e-13 * max(1.0, np.abs(p).max()):
        return 0.0, 0.0
    a = slash(p)
    b = slash(pdot)
    raw = np.linalg.norm(a @ b - b @ a)
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom < 1e-280:
        return raw, 0.0
    return raw, raw / denom


def ref_partition(levels, n, beta, statistics):
    """partition_enumerate's two generation branches, sort and per-state sum:
    (occupations, energies, weights)."""
    levels = tuple(float(e) for e in levels)
    L = len(levels)
    occupations, multiplicities = [], []
    if statistics == "FD":
        for chosen in combinations(range(L), n):
            occ = [0] * L
            for idx in chosen:
                occ[idx] = 1
            occupations.append(tuple(occ))
            multiplicities.append(1)
    else:
        n_fact = math.factorial(n)
        for assignment in combinations_with_replacement(range(L), n):
            occ = [0] * L
            for idx in assignment:
                occ[idx] += 1
            occupations.append(tuple(occ))
            if statistics == "MB":
                mult = n_fact
                for c in occ:
                    mult //= math.factorial(c)
                multiplicities.append(mult)
            else:
                multiplicities.append(1)
    order = sorted(range(len(occupations)), key=lambda i: occupations[i])
    occupations = [occupations[i] for i in order]
    multiplicities = np.array([multiplicities[i] for i in order], dtype=float)
    energies = np.array([sum(o * e for o, e in zip(occ, levels))
                         for occ in occupations])
    # math.exp, as partition_enumerate's weights: np.exp's bits depend on the CPU
    weights = [math.exp(v) for v in (-beta * energies).tolist()]
    return occupations, energies, multiplicities * np.array(weights)


def same_bits(a, b):
    """Equal values and equal signs of zero, element by element."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# -- RK4 ---------------------------------------------------------------------------

def swap_rhs(y):
    """dx/ds = p, dp/ds = -x: no rounding of its own, so the stages see the
    states' magnitudes and zero signs as they are."""
    return [*y[4:], *(-a for a in y[:4])]


def wide_states(rng, n):
    """n states of 8 components of magnitude 1e-300 to 1e300, either sign,
    about a fifth of them zeros of either sign."""
    y = rng.choice([-1.0, 1.0], size=(n, 8)) * 10.0 ** rng.uniform(-300, 300, (n, 8))
    zeros = rng.random((n, 8)) < 0.2
    y[zeros] = np.copysign(0.0, y[zeros])
    return y


def on_stacks(rhs):
    """rhs for ref_rk4 on (4, N) stacks: a constant component becomes a column."""
    return lambda x, p: [np.broadcast_arrays(*part, x[0])[:-1] for part in rhs(x, p)]


@pytest.mark.parametrize("canonical", [False, True, pytest.param(None, id="wide")])
def test_rk4_step_matches_inline_loop(canonical):
    # rk4_step on one state's Python floats and on the numpy columns of a
    # stack of three; canonical None steps swap_rhs from wide_states
    rng = np.random.default_rng(1)
    if canonical is None:
        stage, states = swap_rhs, wide_states(rng, 15)
    else:
        model = dyn.projectile_model(1.1, 0.4, 0.9, 0.2)
        stage = partial(dyn.hamilton_rhs, model) if canonical else model.flow
        states = rng.normal(size=(15, 8))
        states[:, 4] = np.abs(states[:, 4]) + 3.0
    rhs = halves(stage)

    for stack in states.reshape(5, 3, 8):
        for y0 in stack:
            y = y0.tolist()
            for _ in range(50):
                y = rk4_step(stage, y, 1e-3)
            assert all(type(v) is float for v in y)
            assert same_bits(y, np.concatenate(ref_rk4(rhs, y0[:4], y0[4:], 1e-3, 50)))
        columns = list(stack.T)
        for _ in range(50):
            columns = rk4_step(stage, columns, 1e-3)
        want = ref_rk4(on_stacks(rhs), stack.T[:4], stack.T[4:], 1e-3, 50)
        assert same_bits(columns, np.concatenate(want))


def ref_rk4_step(rhs, state, step):
    """RK4 as zip comprehensions: rk4_step's code before its straight-line
    kernels, and now the oracle of rk4_step and of each run's compiled step."""
    half, sixth = 0.5 * step, step / 6.0
    k1 = rhs(state)
    k2 = rhs([a + half * b for a, b in zip(state, k1)])
    k3 = rhs([a + half * b for a, b in zip(state, k2)])
    k4 = rhs([a + step * b for a, b in zip(state, k3)])
    return [a + sixth * (b + 2 * c + 2 * d + e)
            for a, b, c, d, e in zip(state, k1, k2, k3, k4)]


def compiled_step(rhs, n):
    """(y, h) -> the next state, by the code of one trace of rk4_step with h
    fixed, as a run's loop inlines it, but written out by Tape.compile:
    unlike a run, it passes on a non-finite state."""
    tape = util.Tape()
    y = [util.Traced(tape, "y%d" % i) for i in range(n)]
    tape.head.append("%s, = y" % ", ".join(v.name for v in y))
    return tape.compile("step(y, h)", rk4_step(rhs, y, util.Traced(tape, "h", fixed=True)),
                        "<rk4 step of %d components>" % n)


def ref_rows(rhs, y0, h, n_steps):
    """y0 and the state after each of n_steps of ref_rk4_step, in Python
    floats."""
    rows = [np.asarray(y0, dtype=float).tolist()]
    for _ in range(n_steps):
        rows.append(ref_rk4_step(rhs, rows[-1], h))
    return rows


def run_rows(run, y0, h, n_steps, stride=1):
    """(rows, (i, fault, state)) of a compiled run from the state y0, in
    Python floats, as _drive steps it: step 0 and every stride-th and the
    last step's state."""
    rows = np.empty((-(-n_steps // stride) + 1, len(y0)))
    rows[0] = y0
    return rows, run(rows[0].tolist(), h, n_steps, stride, memoryview(rows.reshape(-1)))


def bit_patterns(components):
    """The IEEE bits of a list of floats or of equal-length columns, every
    NaN read as one pattern: equal patterns are equal values and signs of
    zero. A NaN's sign is not: IEEE 754 leaves it unspecified, and CPython's
    float + and * pass on the first operand's NaN once the instruction is
    specialized and the second's before (no NaN reaches an artifact: _drive
    rejects a non-finite state)."""
    values = np.asarray(components, dtype=float)
    return np.where(np.isnan(values), math.nan, values).view(np.uint64).tolist()


@pytest.mark.parametrize("n", [2, 6, 8, 2 * MAX_DIM])
def test_rk4_kernels_match_the_comprehensions(n):
    # states of n components, one all finite, one with NaN, infs and zeros of
    # either sign, stepped on Python floats by a run's fused step and as the
    # columns of the stack by rk4_step, under a cyclic linear rhs that keeps
    # the sign of a zero
    rng = np.random.default_rng(n)
    coeffs = rng.normal(size=n).tolist()

    def rhs(y):
        return [c * y[(i + 1) % n] for i, c in enumerate(coeffs)]

    step = compiled_step(rhs, n)
    states = rng.choice([-1.0, 1.0], size=(3, n)) * 10.0 ** rng.uniform(-300, 300, (3, n))
    states[1, ::2] = np.resize([math.nan, math.inf, -math.inf, -0.0], (n + 1) // 2)
    states[2] = np.copysign(0.0, states[2])
    for y0 in states:
        y = want = y0.tolist()
        for _ in range(5):
            y, want = step(y, 1e-3), ref_rk4_step(rhs, want, 1e-3)
            assert all(type(v) is float for v in y)
            assert bit_patterns(y) == bit_patterns(want)
    columns = want = list(states.T)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and the like
        for _ in range(5):
            columns, want = rk4_step(rhs, columns, 1e-3), ref_rk4_step(rhs, want, 1e-3)
            assert bit_patterns(columns) == bit_patterns(want)


def test_rk4_refuses_a_state_over_the_cap():
    calls = []
    with pytest.raises(UsageError, match="%d components" % (2 * MAX_DIM + 1)):
        rk4_step(calls.append, [0.0] * (2 * MAX_DIM + 1), 1e-3)
    assert calls == []
    # and a run's, before its first step or record: christoffel_at is O(dim^4)
    metric = geo.minkowski_metric(MAX_DIM + 1)
    with pytest.raises(UsageError, match="%d components" % (2 * MAX_DIM + 2)):
        dyn.covariant_integrate(metric, [0.0] * (MAX_DIM + 1),
                                [1.0] + [0.0] * MAX_DIM, 1e-2, step=1e-3)


def test_rk4_step_calls_the_stage_four_times():
    calls = []

    def stage(y):
        calls.append(y)
        return [-v for v in y]

    rk4_step(stage, [1.0, 2.0], 0.1)
    assert len(calls) == 4


def test_rk4_step_is_compiled_once_per_run(monkeypatch):
    # compile counted through the globals of _util, which holds the tape:
    # each run compiles one loop, whatever its number of steps, from one
    # trace of rk4_step; its loop calls nothing but sqrt and raises nothing
    # but the zero-entry guard's LinAlgError
    compiled = []

    def counting_compile(*args):
        compiled.append(args[1])
        if args[1].startswith("<rk4 run"):
            assert loop_calls(args[0]) <= {"sqrt", "LinAlgError"}
        return compile(*args)

    model = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)
    polar = geo.polar_metric(4)
    monkeypatch.setattr(util, "compile", counting_compile, raising=False)
    for s_max in (0.05, 0.5):
        dyn.integrate(model, np.zeros(4), model.reference.tangent(0.0), s_max)
        dyn.integrate(model, np.zeros(4), model.reference.tangent(0.0), s_max, canonical=True)
        dyn.covariant_integrate(polar, [0.0, 1.0, 0.3, 0.0], [1.5, 0.3, -0.2, 0.0], s_max)
    assert compiled == ["<rk4 run of 8 components>"] * 6
    dyn.covariant_integrate(geo.polar_metric(3), [0.0, 1.0, 0.3], [1.5, 0.3, -0.2], 0.05)
    # the metric's polynomials, then the run
    assert compiled[6:] == ["<metric polynomials>"] * 2 + ["<rk4 run of 6 components>"]


def test_integrate_records_the_inline_loop_states():
    model = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)
    x0, p0 = np.zeros(4), model.reference.tangent(0.0)
    traj = dyn.integrate(model, x0, p0, 0.35, step=1e-2, record_stride=4)
    steps = [0, 4, 8, 12, 16, 20, 24, 28, 32, 35]
    assert np.array_equal(traj.s, [i * 1e-2 for i in steps])
    for k, i in enumerate(steps):
        x, p = ref_rk4(halves(model.flow), x0, p0, 1e-2, i)
        assert np.array_equal(traj.x[k], x) and np.array_equal(traj.p[k], p)


def mixed_model():
    """A model whose H couples x1 and p1, so no T(p) + V(x) split exists;
    y[1] is x1 and y[5] is p1."""
    return dyn.HamiltonianModel(
        lambda y: 0.5 * (y[5] * y[5]) + 0.3 * y[1] * y[5] + 0.5 * (y[1] * y[1]),
        dh_dx=lambda y: (0.0, 0.3 * y[5] + y[1], 0.0, 0.0),
        dh_dp=lambda y: (0.0, y[5] + 0.3 * y[1], 0.0, 0.0))


PROJECTILE = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)


# ids as first pinned, when a second integrator was parametrized here too
@pytest.mark.parametrize("model, p0, canonical", [
    (dyn.free_particle_model(1.1), [1.2, 0.3, -0.4, 0.5], False),
    (PROJECTILE, PROJECTILE.reference.tangent(0.0), False),
    (PROJECTILE, PROJECTILE.reference.tangent(0.0), True),
    (quadratic_model(), [1.4, 0.3, -0.2, 0.1], False),
    (harmonic_model(1.3), [0.0, 0.5, 0.0, 0.0], False),
    (mixed_model(), [0.0, 0.5, 0.0, 0.0], False),
], ids=["model%d-p0%d-rk4-%s" % (i, i, canonical) for i, canonical in
        [(0, False), (1, False), (2, True), (4, False), (5, False), (7, False)]])
def test_record_columns_match_per_record_route(model, p0, canonical):
    traj = dyn.integrate(model, [0.0, 1.0, 0.2, 0.0], p0, 0.6, step=1e-2,
                         canonical=canonical, record_stride=4)
    if model.flow is not None and not canonical:
        rhs = model.flow
    else:
        rhs = partial(dyn.hamilton_rhs, model)
    h, dm_ds, comm = ref_record_columns(model, traj, halves(rhs))
    assert same_bits(traj.records["H"], h)
    assert same_bits(traj.records["dm_ds"], dm_ds)
    assert same_bits(traj.records["comm_norm"], comm)


def component_states(rng, n):
    """n states (x, p) of wide magnitudes with signed zeros, and p0 kept
    clear of zero so the projectile flow's 1/p0 stays finite."""
    x, p = wide_points(rng, (n, 4)), wide_points(rng, (n, 4))
    x[rng.random((n, 4)) < 0.15] = -0.0
    p[rng.random((n, 4)) < 0.15] = -0.0
    x[rng.random((n, 4)) < 0.1] = 0.0
    p[:, 0] = np.abs(p[:, 0]) + 3.0
    return x, p


@pytest.mark.parametrize("model", [
    dyn.free_particle_model(1.1), PROJECTILE, quadratic_model(),
    harmonic_model(1.3), mixed_model(),
])
def test_model_callables_answer_per_state_on_stacks(model):
    """Per state, Python-float components, a 1-D float array and column
    stacks (one axis or two) give the same bits."""
    y = np.hstack(component_states(np.random.default_rng(17), 60))
    calls = [model.hamiltonian, model.dh_dx, model.dh_dp]
    if model.flow is not None:
        calls.append(model.flow)
    for call in calls:
        on_floats = [call(state.tolist()) for state in y]
        on_arrays = [call(state) for state in y]
        on_columns = call(y.T)
        on_grid = call(y.T.reshape(8, 3, 20))
        if call is model.hamiltonian:  # one number per state
            on_floats, on_arrays = [on_floats], [on_arrays]
            on_columns, on_grid = [on_columns], [on_grid]
        else:
            on_floats, on_arrays = list(zip(*on_floats)), list(zip(*on_arrays))
        assert len(on_columns) == len(on_grid) == len(on_floats)
        for want, got_arrays, got_columns, got_grid in zip(on_floats, on_arrays,
                                                           on_columns, on_grid):
            assert all(isinstance(v, float) for v in want)  # numbers, not arrays
            assert same_bits(got_arrays, want)
            assert same_bits(np.broadcast_to(got_columns, (60,)), want)
            assert same_bits(np.broadcast_to(got_grid, (3, 20)).reshape(60), want)


def test_canonical_rhs_applies_eta_per_component():
    """hamilton_rhs is eta dH/dp and -eta dH/dx, as the arrays it replaced."""
    y = np.hstack(component_states(np.random.default_rng(18), 40))
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    for model in (dyn.free_particle_model(1.1), PROJECTILE, quadratic_model(),
                  harmonic_model(1.3), mixed_model()):
        for state in y:
            dy = dyn.hamilton_rhs(model, state.tolist())
            assert same_bits(dy[:4], eta * np.asarray(model.dh_dp(state), dtype=float))
            assert same_bits(dy[4:], -eta * np.asarray(model.dh_dx(state), dtype=float))


# -- central differences -----------------------------------------------------------

def test_vector_jacobian_matches_old_loop():
    cong = dr.sheared_congruence(1.2, amplitude=0.3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = np.array([8.0, 0.0, 0.0, 0.0]) + rng.uniform(-1.0, 1.0, size=4)
        u = rng.normal(size=4)
        want = ref_vector_jacobian(cong.p_of, y, 1e-5) @ u
        assert np.array_equal(dr.directional_derivative(cong.p_of, u, y), want)
        pdot = ref_vector_jacobian(cong.p_of, y, 1e-5) @ cong.u_of(y)
        lie = pdot - ref_vector_jacobian(cong.u_of, y, 1e-5) @ cong.p_of(y)
        got_pdot, got_lie = dr.lie_derivative(cong.u_of, cong.p_of, y)
        assert np.array_equal(got_pdot, pdot)
        assert np.array_equal(got_lie, lie)


def test_central_difference_on_point_stacks():
    """Per point, a (P, Q, 4) stack gives what each point gives alone."""
    rng = np.random.default_rng(6)
    pts = wide_points(rng, (5, 7, 4))

    def f(x):
        return np.stack([x[..., 0] * x[..., 1] * x[..., 1], x[..., 2] * x[..., 3] - x[..., 0]],
                        axis=-1)

    d = central_difference(f, pts, 1e-6)
    assert d.shape == (4, 5, 7, 2)
    for i in range(5):
        for j in range(7):
            assert np.array_equal(d[:, i, j], central_difference(f, pts[i, j], 1e-6))


def test_closedness_residual_matches_old_loop():
    grads = geo.poly_partials(TERMS, 4)

    def not_closed(x):  # the gradient of TERMS plus a term that is no gradient
        return np.stack([ref_poly(g, x) for g in grads], axis=-1) + 0.01 * x ** 2

    fields = [hj.construct_geodesic_W(1.3), hj.curl_counterexample_field(),
              hj.HamiltonJacobiField(one_form=not_closed)]
    pts = BOX.sample(np.random.default_rng(7), 40)
    for field in fields:
        assert hj._closedness_residual(field, pts) == ref_closedness(field, pts)


# -- polynomials -------------------------------------------------------------------

@pytest.mark.parametrize("terms", POLYS)
def test_eval_poly_single_points_match_scalar_loop(terms):
    rng = np.random.default_rng(9)
    for x in wide_points(rng, (200, 4)):
        assert geo.eval_poly(terms, x) == ref_eval_poly(terms, x)
        assert geo.eval_poly(terms, list(x)) == ref_eval_poly(terms, x)
    assert geo.eval_poly(terms, [1, 2, 3, 4]) == ref_eval_poly(terms, [1, 2, 3, 4])
    assert type(geo.eval_poly(terms, [1, 2, 3, 4])) is float


def test_eval_poly_float_lists_match_array_points():
    """A list of Python floats is one point, evaluated as it stands: the
    array point's bits, and its OverflowError."""
    rng = np.random.default_rng(24)
    for terms in POLYS:
        for x in wide_points(rng, (200, 4)):
            assert same_bits(geo.eval_poly(terms, x.tolist()), geo.eval_poly(terms, x))
    x = [0.0, 1.0, 1e100, 0.0]  # TERMS's x2 ** 4 overflows
    with pytest.raises(OverflowError) as want:
        geo.eval_poly(TERMS, np.array(x))
    with pytest.raises(OverflowError) as got:
        geo.eval_poly(TERMS, x)
    assert str(got.value) == str(want.value)


def random_term_lists(rng, dim, count):
    """count term lists of 0 to 5 terms on dim axes: normal, whole, zero and
    -0.0 coefficients, exponents from -3 to 4 in lists of 0 to dim entries."""
    plain = [0.0, -0.0, 2, -1, 1.5]
    return [[[rng.normal() if rng.random() < 0.6 else plain[rng.integers(len(plain))],
              rng.integers(-3, 5, size=rng.integers(0, dim + 1)).tolist()]
             for _ in range(rng.integers(0, 6))] for _ in range(count)]


def outcome(f, x):
    """f(x), or the type of the ArithmeticError it raises."""
    try:
        return f(x)
    except ArithmeticError as exc:
        return type(exc)


def agree(got, want):
    """The same exception type, or the same values and signs of zero; a NaN
    (an inf - inf, say) matches any NaN, whose sign IEEE leaves open."""
    if isinstance(want, type):
        return got == want
    a, b = np.asarray(got), np.asarray(want)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b))


def polynomial_points(rng, dim):
    """Array points, their float lists, int lists with zeros (under negative
    exponents, ZeroDivisionError) and a point whose 4th powers overflow."""
    arrays = list(wide_points(rng, (8, dim))) + [np.zeros(dim), np.full(dim, 1e100)]
    return arrays + [x.tolist() for x in arrays] + [
        rng.integers(-3, 4, size=dim).tolist() for _ in range(8)]


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_compiled_polynomials_match_scalar_loop(dim):
    """A metric compiles its term lists once: the diagonal entries and every
    term-wise partial give the scalar loop's bits, and raise its exception
    type where it raises."""
    rng = np.random.default_rng(40 + dim)
    for _ in range(25):
        lists = random_term_lists(rng, dim, dim)
        metric = geo.diagonal_metric(lists)
        partials = [(part, geo.poly_partials(lists[a], dim)[lam])
                    for lam, a, part in metric.partials]
        for x in polynomial_points(rng, dim):
            want = outcome(lambda x: [ref_eval_poly(t, x) for t in lists], x)
            assert agree(outcome(metric.diag, x), want), (lists, x)
            for part, terms in partials:
                assert agree(outcome(part, x), outcome(partial(ref_eval_poly, terms), x))


def test_compiled_polynomial_edges():
    # an empty term list, constants only, -0.0 terms (0.0 + -0.0 is 0.0),
    # exponent lists shorter than dim and a zero exponent
    lists = [[], [[2, []], [-0.5, [0]]], [[-0.0, [1]]], [[-0.0, []]],
             [[1.5, [0, 2]], [-2.0, [0, 0, 0, 0, -1]]]]
    diag = geo.diagonal_metric(lists).diag
    for x in ([1.0, -3.0, 0.5, 2.0, 4.0], [1, 2, 3, 4, 5], np.arange(1.0, 6.0)):
        got = diag(x)
        assert same_bits(got, [ref_eval_poly(t, x) for t in lists])
        assert [type(v) for v in got] == [float] * 5
    assert same_bits(diag([0.0, 0.0, 0.0, 0.0, 1.0]), [0.0, 1.5, 0.0, 0.0, -2.0])
    with pytest.raises(ZeroDivisionError):
        diag([1, 1, 1, 1, 0])


def operation_depth(node):
    """The most operations (BinOp, UnaryOp, Call) nested in the tree at node."""
    below = max(map(operation_depth, ast.iter_child_nodes(node)), default=0)
    return below + isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call))


@pytest.mark.parametrize("count, axes", [(500, 4), (3000, 1)])
def test_long_term_list_compiles_under_the_depth_cap(monkeypatch, count, axes):
    # a sum written one summand a step nests as deep as it is long once
    # fused; FUSE_DEPTH bounds each expression (and its number's unary -),
    # so the entry compiles (3000 summands unbounded raise RecursionError in
    # CPython 3.11's compiler) and keeps the scalar loop's bits. Exponents
    # on one axis only keep the 3000 terms' partials constant, one number.
    rng = np.random.default_rng(count)
    terms = [[c, rng.integers(0, 3, size=axes).tolist()] for c in rng.normal(size=count).tolist()]
    sources, define = [], util.Tape.define
    monkeypatch.setattr(util.Tape, "define", lambda tape, source, label: (
        sources.append(source), define(tape, source, label))[1])
    metric = geo.diagonal_metric([terms, [[1.0, []]], [[-1.0, []]], [[-1.0, []]]])
    assert max(operation_depth(ast.parse(source)) for source in sources) <= util.FUSE_DEPTH + 1
    for x in rng.normal(size=(20, 4)).tolist():
        assert same_bits(metric.diag(x)[0], ref_eval_poly(terms, x))


class ReprIsCode:
    """A coefficient whose repr is code that evaluates to another number."""

    def __float__(self):
        return 2.5

    def __repr__(self):
        return "__import__('os').getpid()"


def test_compiled_coefficient_is_its_float_value():
    metric = geo.diagonal_metric([[[ReprIsCode(), [2]]], [[ReprIsCode(), []]]])
    assert metric.diag([3.0, 1.0]) == [22.5, 2.5]
    assert [(lam, a, part([3.0, 1.0])) for lam, a, part in metric.partials] == [(0, 0, 15.0)]


def test_compiled_non_finite_coefficients():
    # the config schema refuses them, a library caller may pass them
    diag = geo.diagonal_metric([[[math.inf, [1]]], [[-math.inf, []]], [[math.nan, [0, 1]]]]).diag
    got = diag([2.0, -1.0, 0.0])
    assert got[:2] == [math.inf, -math.inf] and math.isnan(got[2])


# -- Christoffel symbols and the covariant record ----------------------------------

# christoffel_at takes any metric: its off-diagonal index terms are checked
# on a metric that no metric kind makes
NON_DIAGONAL = TermListMetric([
    [[[1.0, [0, 0, 0, 0]], [0.2, [0, 1, 1, 0]]], [[0.1, [0, 1, 0, 0]]], [], [[0.05, [1, 0, 0, 1]]]],
    [[[0.1, [0, 1, 0, 0]]], [[-1.0, [0, 0, 0, 0]]], [[0.05, [0, 0, 1, 0]]], []],
    [[], [[0.05, [0, 0, 1, 0]]], [[-1.0, [0, 2, 0, 0]]], [[-0.3, [0, 0, 0, 3]]]],
    [[[0.05, [1, 0, 0, 1]]], [], [[-0.3, [0, 0, 0, 3]]], [[-1.0, [0, 0, 0, 0]]]]])


DIAGONAL = geo.diagonal_metric([[[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]],
                                [[-1.0, [0, 2, 0, 0]], [0.3, [1, 1, 1, 0]]],
                                [[-1.0, [0, 0, 0, 0]]]])


# g00 = 1 + 0.2 x1 and g22 = -x1^2: dp_1/ds sums two terms
TWO_ENTRY = geo.diagonal_metric([[[1.0, [0, 0, 0, 0]], [0.2, [0, 1, 0, 0]]],
                                 [[-1.0, [0, 0, 0, 0]]], [[-1.0, [0, 2, 0, 0]]],
                                 [[-1.0, [0, 0, 0, 0]]]])


def polar_dg(x):
    """d_lam of diag(1, -1, -r^2[, -1]): only d_r g_thth = -2 r."""
    out = np.zeros((len(x),) * 3)
    out[1, 2, 2] = -2.0 * float(x[1])
    return out


def diagonal_dg(x):
    """d_lam of DIAGONAL, whose g_22 is -x1^2 + 0.3 x0 x1 x2."""
    x0, x1, x2, _ = map(float, x)
    out = np.zeros((4, 4, 4))
    out[0, 2, 2] = 0.3 * x1 * x2
    out[1, 2, 2] = -2.0 * x1 + 0.3 * x0 * x2
    out[2, 2, 2] = 0.3 * x0 * x1
    return out


def non_diagonal_dg(x):
    """d_lam of NON_DIAGONAL, whose entry lists are already symmetric."""
    x0, x1, x2, x3 = map(float, x)
    out = np.zeros((4, 4, 4))
    out[1, 0, 0] = 0.2 * x2
    out[2, 0, 0] = 0.2 * x1
    out[1, 0, 1] = out[1, 1, 0] = 0.1
    out[0, 0, 3] = out[0, 3, 0] = 0.05 * x3
    out[3, 0, 3] = out[3, 3, 0] = 0.05 * x0
    out[2, 1, 2] = out[2, 2, 1] = 0.05
    out[1, 2, 2] = -2.0 * x1
    out[3, 2, 3] = out[3, 3, 2] = -0.3 * 3 * x3 ** 2
    return out


def minkowski_dg(x):
    """d_lam of diag(1, -1, ..., -1): every partial is zero."""
    return np.zeros((len(x),) * 3)


@pytest.mark.parametrize("metric, closed_form", [
    (geo.polar_metric(4), polar_dg),
    (geo.polar_metric(3), polar_dg),
    (DIAGONAL, diagonal_dg),
    (NON_DIAGONAL, non_diagonal_dg),
    (geo.minkowski_metric(1), minkowski_dg),
    (geo.minkowski_metric(4), minkowski_dg),
    (geo.minkowski_metric(MAX_DIM), minkowski_dg),
])
def test_analytic_metric_partials(metric, closed_form):
    """Exactly the hand-derived partials, and central differences agree."""
    rng = np.random.default_rng(14)
    for _ in range(30):
        x = 3.0 * rng.normal(size=metric.dim)
        if metric.dim > 1:
            x[1] = rng.uniform(0.3, 3.0)
        dg = metric.dg(x)
        assert np.array_equal(dg, closed_form(x))
        fd = central_difference(metric.matrix, x, 1e-5)
        assert np.abs(dg - fd).max() <= 1e-8 * max(1.0, np.abs(dg).max())


@pytest.mark.parametrize("dim", [3, 4])
def test_polar_entries_are_the_closed_form(dim):
    """The compiled entries of the polar term lists have the bits of
    diag(1, -1, -r^2[, -1]) at any r != 0, list or array point."""
    metric = geo.polar_metric(dim)
    rng = np.random.default_rng(15)
    for r in np.concatenate((rng.normal(size=100), 10.0 ** rng.uniform(-150, 150, size=100),
                             -(10.0 ** rng.uniform(-150, 150, size=100)))):
        x = rng.normal(size=dim)
        x[1] = r
        closed = [1.0, -1.0, -(float(r) ** 2), -1.0][:dim]
        assert same_bits(metric.diag(x), closed)
        assert same_bits(metric.diag(x.tolist()), closed)
        assert np.array_equal(metric.matrix(x), np.diag(closed))


@pytest.mark.parametrize("metric", [
    geo.polar_metric(4),
    geo.polar_metric(3),
    DIAGONAL,
    NON_DIAGONAL,
])
def test_christoffel_matches_quadruple_loop(metric):
    rng = np.random.default_rng(12)
    for _ in range(30):
        x = rng.normal(size=metric.dim)
        x[1] = rng.uniform(0.3, 3.0)  # off the polar axis r = 0
        assert same_bits(geo.christoffel_at(metric, x), ref_christoffel(metric, x))


@pytest.mark.parametrize("metric, x0, p0", [
    (geo.polar_metric(4), [0.0, 1.0, 0.3, 0.0], [1.5, 0.3, -0.19, 0.1]),
    (geo.polar_metric(3), [0.0, 1.2, -0.4], [1.4, -0.2, 0.25]),
])
def test_covariant_records_match_two_rhs_record(metric, x0, p0):
    """The lowered-index flow against the old g^{-1} dg g^{-1} algebra, on the
    same partials: they differ only by rounding."""
    traj = dyn.covariant_integrate(metric, x0, p0, 0.12, step=0.01)
    rows = ref_covariant_records(metric, x0, p0, 0.01, 12)
    assert np.abs(traj.p - [r[0] for r in rows]).max() <= 1e-13
    assert np.abs(traj.records["K"] - [r[1] for r in rows]).max() <= 1e-13
    assert np.abs(traj.records["geodesic_residual"] - [r[2] for r in rows]).max() <= 1e-13


@pytest.mark.parametrize("metric, x0, p0", [
    (geo.polar_metric(4), [0.0, 1.0, 0.3, 0.0], [1.5, 0.3, -0.19, 0.1]),
    (geo.polar_metric(3), [0.0, 1.2, -0.4], [1.4, -0.2, 0.25]),
    (DIAGONAL, [0.2, 1.1, -0.3, 0.4], [1.3, 0.1, 0.2, -0.1]),
])
def test_covariant_rhs_matches_per_component_sums(metric, x0, p0):
    """States, K and residuals of the flow written out index by index."""
    dim = metric.dim

    def rhs(x, pl):
        _, u, pdot, _ = ref_geodesic_rhs(metric, x, pl)
        return u, pdot

    traj = dyn.covariant_integrate(metric, x0, p0, 0.12, step=0.01)
    x = np.asarray(x0, dtype=float)
    pl = metric.matrix(x) @ np.asarray(p0, dtype=float)
    for k in range(13):
        if k:
            x, pl = ref_rk4(rhs, x, pl, 0.01, 1)
        ginv, u, pdot, dg = ref_geodesic_rhs(metric, x, pl)
        dup = [sum(ginv[m, n] * (pdot[n] - sum(u[lam] * dg[lam, n, b] * u[b]
                                              for lam in range(dim) for b in range(dim)))
                   for n in range(dim)) for m in range(dim)]
        gamma = ref_christoffel(metric, x)
        resid = [dup[m] + sum(gamma[m, n, lam] * u[n] * u[lam]
                              for n in range(dim) for lam in range(dim)) for m in range(dim)]
        assert np.abs(traj.x[k] - x).max() <= 1e-13
        assert np.abs(traj.p[k] - u).max() <= 1e-13
        assert abs(traj.records["K"][k] - 0.5 * sum(pl[m] * u[m] for m in range(dim))) <= 1e-13
        assert abs(traj.records["geodesic_residual"][k] - np.abs(resid).max()) <= 1e-13


@pytest.mark.parametrize("metric, polar", [
    (geo.minkowski_metric(3), False), (geo.minkowski_metric(4), False),
    (geo.polar_metric(3), True), (geo.polar_metric(4), True), (DIAGONAL, False),
], ids=["metric%d" % i for i in range(5)])
def test_diagonal_inverse_matches_linalg_inv(metric, polar):
    """The stage's u = (1 / g_aa) p_a + 0.0 is np.linalg.inv's matrix
    product, signed zeros included, and at a unit momentum e_a its entry a is
    np.linalg.inv's diagonal entry; a zero entry fails as np.linalg.inv
    does."""
    rng = np.random.default_rng(19)
    dim = metric.dim

    def u(x, v):
        return dyn._diagonal_geodesic_rhs(metric, np.concatenate((x, v)).tolist())[:dim]

    for _ in range(200):
        x, v = wide_points(rng, dim), wide_points(rng, dim)
        v[rng.random(dim) < 0.3] = 0.0
        v[rng.random(dim) < 0.2] = -0.0
        ginv = np.linalg.inv(metric.matrix(x))
        assert same_bits([u(x, e)[a] for a, e in enumerate(np.eye(dim))], np.diag(ginv))
        assert same_bits(u(x, v), ginv @ v)
        assert same_bits(metric.matrix(x), np.diag(metric.diag(x)))
    if polar:  # g_thth = -r^2 vanishes on the axis
        x = np.zeros(dim)
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.inv(metric.matrix(x))
        with pytest.raises(np.linalg.LinAlgError) as got:
            u(x, np.ones(dim))
        assert str(got.value) == str(want.value) == "Singular matrix"


@pytest.mark.parametrize("metric", [
    geo.minkowski_metric(3), geo.minkowski_metric(4), geo.polar_metric(3),
    geo.polar_metric(4), DIAGONAL, TWO_ENTRY,
])
def test_diagonal_stage_matches_numpy_flow(metric):
    """The Python-float RK4 stage of a diagonal metric gives the bits of the
    numpy flow the record keeps, signed zeros included, and fails as it does
    on a zero entry (polar's g_thth at r = 0)."""
    if metric is TWO_ENTRY:
        assert [lam for lam, *_ in metric.partials] == [1, 1]
    rng = np.random.default_rng(25)
    dim = metric.dim
    for _ in range(300):
        x, pl = wide_points(rng, dim), wide_points(rng, dim)
        for v in (x, pl):
            v[rng.random(dim) < 0.2] = 0.0
            v[rng.random(dim) < 0.2] = -0.0
        y = x.tolist() + pl.tolist()
        try:
            _, up, _, pdot = dyn._geodesic_flow(metric, x, pl)
        except np.linalg.LinAlgError as want:
            with pytest.raises(np.linalg.LinAlgError) as got:
                dyn._diagonal_geodesic_rhs(metric, y)
            assert str(got.value) == str(want) == "Singular matrix"
            continue
        assert same_bits(dyn._diagonal_geodesic_rhs(metric, y), np.concatenate((up, pdot)))


# every entry depends on x1, so dp_1/ds sums four nonzero partials
FOUR_ENTRY = geo.diagonal_metric([[[2.0, [0, 0, 0, 0]], [1.0, [0, 2, 0, 0]]],
                                  [[-1.0, [0, 0, 0, 0]], [-0.3, [0, 1, 0, 0]]],
                                  [[-1.0, [0, 2, 0, 0]]],
                                  [[-1.0, [0, 0, 0, 0]], [-0.5, [0, 3, 0, 0]]]])


def test_diagonal_stage_with_four_partials_is_within_rounding_of_numpy_flow():
    """With four nonzero partials in one sum the Python-float stage, summing
    in order of a, and the numpy flow's product may round apart (about a
    third of these states do): u keeps its bits and dp/ds agrees within a
    few ulp of the sum of its terms' magnitudes."""
    assert [lam for lam, *_ in FOUR_ENTRY.partials] == [1, 1, 1, 1]
    states = wide_points(np.random.default_rng(26), (10 ** 4, 8))
    got, want, magnitude = [], [], []
    for y in states:
        _, up, dgu, pdot = dyn._geodesic_flow(FOUR_ENTRY, y[:4], y[4:])
        got.append(dyn._diagonal_geodesic_rhs(FOUR_ENTRY, y.tolist()))
        want.append(np.concatenate((up, pdot)))
        magnitude.append(0.5 * np.abs(dgu * up).sum(axis=1))
    got, want = np.array(got), np.array(want)
    assert same_bits(got[:, :4], want[:, :4])
    assert (np.abs(got[:, 4:] - want[:, 4:]) <= 4 * np.finfo(float).eps
            * np.array(magnitude)).all()


def test_diagonal_metric_flow_reads_no_matrix(monkeypatch):
    calls = []
    matrix = geo.MetricField.matrix

    def counted(self, x):
        calls.append(1)
        return matrix(self, x)

    monkeypatch.setattr(geo.MetricField, "matrix", counted)
    dyn.covariant_integrate(geo.polar_metric(4), [0.0, 1.0, 0.3, 0.0],
                            [1.5, 0.3, -0.19, 0.0], 0.1, step=0.01, record_stride=5)
    # the initial lowering, then the flow and christoffel_at once each for
    # each of the 3 records
    assert len(calls) == 1 + 3 * 2


def test_covariant_record_evaluates_the_metric_partials_once(monkeypatch):
    calls = {"dg": 0, "christoffel": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    metric = geo.polar_metric(4)
    metric.dg = counted("dg", metric.dg)
    monkeypatch.setattr(dyn, "christoffel_at", counted("christoffel", dyn.christoffel_at))
    dyn.covariant_integrate(metric, [0.0, 1.0, 0.3, 0.0],
                            [1.5, 0.3, -0.19, 0.0], 0.1, step=0.01, record_stride=5)
    # the RK4 stages read no dg: one flow call and one christoffel_at call,
    # each reading dg once, for each of the 3 records
    assert calls == {"dg": 3 + 3, "christoffel": 3}


def test_diagonal_stages_read_neither_dg_nor_inverse(monkeypatch):
    calls = {"dg": 0, "matrix": 0, "diag": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    metric = geo.polar_metric(4)
    metric.dg = counted("dg", metric.dg)
    metric.diag = counted("diag", metric.diag)  # matrix reads its own diag
    monkeypatch.setattr(geo.MetricField, "matrix", counted("matrix", geo.MetricField.matrix))
    dyn.covariant_integrate(metric, [0.0, 1.0, 0.3, 0.0],
                            [1.5, 0.3, -0.19, 0.0], 0.1, step=0.01, record_stride=5)
    # only the 3 records read dg and the matrix, once in the flow (whose
    # inverse is np.linalg.inv's) and once in christoffel_at, after the
    # initial lowering's matrix; each of the 4 stages of the one trace that
    # builds the run's compiled step reads the diagonal entries alone, and
    # inverts them itself (each of the 40 stages stepped did, before); every
    # matrix is np.diag of the diagonal entries, so diag counts its 7 calls
    assert calls == {"dg": 3 + 3, "matrix": 1 + 3 * 2, "diag": 4 + 1 + 3 * 2}


# -- the compiled RK4 step --------------------------------------------------------

# every entry depends on x1, so dp_1/ds sums MAX_DIM partials
MAX_DIM_METRIC = geo.diagonal_metric([[[1.0, []], [0.05, [0, 2]]]] + [
    [[-1.0, []], [-0.1 * a, [0, 1]]] for a in range(1, MAX_DIM)])


def off_axis_states(rng, dim, n):
    """n states of 2 dim components, x1 (polar's r) kept off 0."""
    y = rng.normal(size=(n, 2 * dim))
    y[:, 1] = np.abs(y[:, 1]) + 0.5
    return y


@pytest.mark.parametrize("rhs, n", [
    (PROJECTILE.flow, 8),
    (partial(dyn.hamilton_rhs, dyn.free_particle_model(1.1)), 8),
    (partial(dyn.hamilton_rhs, PROJECTILE), 8),
    (partial(dyn._diagonal_geodesic_rhs, geo.polar_metric(3)), 6),
    (partial(dyn._diagonal_geodesic_rhs, geo.polar_metric(4)), 8),
    (partial(dyn._diagonal_geodesic_rhs, FOUR_ENTRY), 8),
    (partial(dyn._diagonal_geodesic_rhs, MAX_DIM_METRIC), 2 * MAX_DIM),
], ids=["flow", "canonical-free", "canonical-projectile", "polar3", "polar4",
        "four-partials", "max-dim"])
def test_compiled_step_matches_the_comprehensions(rhs, n):
    """A run's compiled steps give ref_rk4_step's bits on Python floats, and
    rk4_step gives them on numpy columns: three states' columns for a model,
    one state's for a geodesic stage, whose zero-entry test reads one truth
    value per entry."""
    rng = np.random.default_rng(n)
    model = getattr(rhs, "func", None) is not dyn._diagonal_geodesic_rhs
    states = off_axis_states(rng, n // 2, 3)
    if model:
        states[:, 4] = np.abs(states[:, 4]) + 3.0
    run = dyn._compiled_run(rhs, n)
    for y0 in states:
        rows, (i, fault, last) = run_rows(run, y0, 1e-2, 20)
        assert (i, fault) == (20, None) and same_bits(rows, ref_rows(rhs, y0, 1e-2, 20))
        assert all(type(v) is float for v in last)
    for stack in [states] if model else states[:, None]:
        columns = want = list(stack.T)
        for _ in range(20):
            columns, want = rk4_step(rhs, columns, 1e-2), ref_rk4_step(rhs, want, 1e-2)
            assert same_bits(columns, want)


@pytest.mark.parametrize("entries, error, message", [
    # g_22 = x0 - 1 vanishes as the k4 stage of step 8 reaches x0 = 1
    ([[[1.0, []]], [[-1.0, []]], [[1.0, [1]], [-1.0, []]], [[-1.0, []]]],
     np.linalg.LinAlgError, "Singular matrix"),
    # x1 ** 2000 overflows once x1 passes 1.426
    ([[[1.0, []]], [[-1.0, []]], [[-1.0, []]], [[-1.0, []], [-1.0, [0, 2000]]]],
     StepRejected, "non-finite state"),
], ids=["zero-entry", "overflow"])
def test_compiled_step_faults_where_the_comprehensions_fault(entries, error, message):
    metric = geo.diagonal_metric(entries)
    rhs = partial(dyn._diagonal_geodesic_rhs, metric)
    x0, p0, step = [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], 0.125
    y = x0 + (metric.matrix(np.array(x0)) @ np.array(p0)).tolist()
    for i in range(1, 17):
        try:
            y_next = ref_rk4_step(rhs, y, step)
        except (ArithmeticError, np.linalg.LinAlgError):
            break
        y = y_next
    else:
        pytest.fail("the reference run took every step")
    with pytest.raises(error) as got:
        dyn.covariant_integrate(metric, x0, p0, 2.0, step=step)
    assert str(got.value) == "step %d (s = %r): %s; last finite state %s" % (
        i, i * step, message, [y[:4], y[4:]])


class CodeRepr(float):
    """A float whose repr is code that evaluates to another number."""

    def __repr__(self):
        return "__import__('os').getpid()"


def test_compiled_constant_is_its_float_value():
    c = CodeRepr(0.75)

    def rhs(y):
        return [c * y[1], -c * y[0] + c]

    assert same_bits(run_rows(dyn._compiled_run(rhs, 2), [1.0, 0.5], 0.1, 10)[0],
                     ref_rows(rhs, [1.0, 0.5], 0.1, 10))


def test_compiled_subtraction_keeps_its_operand_order():
    # a - b and c - a, as a model callable writes them, with Python's bits,
    # and a - (b + c) and a / (b * c), whose right operand a fused step
    # writes in parentheses
    def rhs(y):
        return [y[1] - 0.25 * y[0] - (y[0] + 0.5), 1.5 - y[0] / (y[1] * 2.0 + 3.0)]

    assert same_bits(run_rows(dyn._compiled_run(rhs, 2), [1.0, 0.5], 0.1, 10)[0],
                     ref_rows(rhs, [1.0, 0.5], 0.1, 10))


@pytest.mark.parametrize("kind", ["flow", "canonical", "polar"])
def test_compiled_run_rows_match_a_loop_of_steps(kind):
    # 200 random initial states a run, each run recording every step, every
    # 7th and the last, and only the first and the last: every row has the
    # bits of a plain loop of ref_rk4_step (a model run under its guard,
    # which no state here trips)
    rng = np.random.default_rng(len(kind))
    states = off_axis_states(rng, 4, 200)
    if kind == "polar":
        rhs, guard = partial(dyn._diagonal_geodesic_rhs, geo.polar_metric(4)), None
    else:
        rhs = PROJECTILE.flow if kind == "flow" else partial(dyn.hamilton_rhs, PROJECTILE)
        guard, states[:, 4] = PROJECTILE.guard, np.abs(states[:, 4]) + 3.0
    run, n_steps = dyn._compiled_run(rhs, 8, guard), 20
    for y0 in states:
        want = ref_rows(rhs, y0, 1e-2, n_steps)
        for stride in (1, 7, n_steps):
            rows, (i, fault, _) = run_rows(run, y0, 1e-2, n_steps, stride)
            assert (i, fault) == (n_steps, None)
            assert same_bits(rows, [want[k] for k in [*range(0, n_steps, stride), n_steps]])


def test_code_hoists_and_fuses_but_not_across_a_guard():
    # y0 + 1.0, read after a zero-entry guard, is written before it; after
    # the guard, 1.0 / h may raise, so it stays after the guard, fused into
    # its one reader; h * 2.0 cannot raise and reads only fixed h, so it is
    # hoisted, as a statement, as its reader is not fixed
    tape = util.Tape()
    y, h = util.Traced(tape, "y0"), util.Traced(tape, "h", fixed=True)
    before = y + 1.0
    util.require_nonzero([y], np.linalg.LinAlgError, "Singular matrix")
    outputs = [before * 2.0, y + 1.0 / h, y + h * 2.0]
    assert tape.code(outputs) == (
        ["t5 = h * 2.0"],
        ["t0 = y0 + 1.0", "if not (y0): raise LinAlgError('Singular matrix')"],
        ["t0 * 2.0", "y0 + 1.0 / h", "y0 + t5"])


def test_a_traced_value_refuses_a_branch():
    traced = util.Traced(util.Tape(), "y0")
    for branch in (bool, float, lambda v: v == 0.0, lambda v: v != 0.0, lambda v: v < 1.0):
        with pytest.raises(TypeError):
            branch(traced)

    # so an rhs that branches on the state, or makes it an array, is refused
    # as its run is compiled, before it takes a step; it was called from the
    # compiled step, once per stage, before
    def branches(y):
        return [1.0 if y[0] < 0.5 else -y[1], y[0]]

    def makes_an_array(y):
        return np.asarray(y, dtype=float).tolist()

    for rhs in (branches, makes_an_array):
        with pytest.raises(UsageError, match="^a model callable is traced once per run, "
                                             "so it may not branch on a state value: ") as got:
            dyn._compiled_run(rhs, 2)
        assert isinstance(got.value.__cause__, TypeError)


# -- the commutator norm -----------------------------------------------------------

def test_operator_commutator_matches_matrix_route():
    rng = np.random.default_rng(15)
    for k in range(2000):
        p, q = wide_points(rng, 4), wide_points(rng, 4)
        if k % 4 == 0:  # nearly parallel: the geodesic side of the criterion
            q = rng.normal() * p + 1e-9 * rng.normal(size=4)
        raw, norm = dyn.operator_commutator(p, q)
        want_raw, want_norm = ref_operator_commutator(p, q)
        assert abs(raw - want_raw) <= 1e-14 * 4.0 * np.linalg.norm(p) * np.linalg.norm(q)
        assert abs(norm - want_norm) <= 1e-14


COMMUTATOR_BRANCHES = [
    ([1.3, 0.2, 0.0, 0.1], [0.0, 0.0, 0.0, 0.0]),        # zero force
    ([np.nan, 0.2, 0.0, 0.1], [0.0, 0.0, 0.0, 0.0]),     # zero force, NaN momentum
    ([1e3, 2.0, 0.0, 0.1], [1e-11, 0.0, -5e-11, 0.0]),   # force below the shortcut
    ([0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, -0.2]),        # zero denominator
    ([1e-200, 2e-200, 0.0, 0.0], [1.0, 0.5, 0.0, -0.2]),  # underflowed denominator
    ([1e-150, 2e-150, 0.0, 0.0], [1.0, 0.5, 0.0, -0.2]),  # just above the floor
]


@pytest.mark.parametrize("p, q", COMMUTATOR_BRANCHES)
def test_operator_commutator_branches_match_matrix_route(p, q):
    raw, norm = dyn.operator_commutator(p, q)
    want_raw, want_norm = ref_operator_commutator(p, q)
    assert abs(raw - want_raw) <= 1e-14 * max(want_raw, 1e-300)
    assert abs(norm - want_norm) <= 1e-14


def test_operator_commutator_rows_match_per_row_calls():
    """Over rows, every branch included, the same bits as one state at a
    time and as the Python-float route."""
    rng = np.random.default_rng(16)
    ps, qs = wide_points(rng, (200, 4)), wide_points(rng, (200, 4))
    qs[::4] = rng.normal(size=(50, 1)) * ps[::4] + 1e-9 * rng.normal(size=(50, 4))
    ps = np.concatenate([ps, [p for p, _ in COMMUTATOR_BRANCHES]])
    qs = np.concatenate([qs, [q for _, q in COMMUTATOR_BRANCHES]])
    raw, norm = dyn.operator_commutator(ps, qs)
    for route in (dyn.operator_commutator, ref_scalar_commutator):
        want = [route(p, q) for p, q in zip(ps, qs)]
        assert same_bits(raw, [w[0] for w in want])
        assert same_bits(norm, [w[1] for w in want])
    stacked = dyn.operator_commutator(ps.reshape(2, -1, 4), qs.reshape(2, -1, 4))
    assert same_bits(stacked[0], raw.reshape(2, -1))
    assert same_bits(stacked[1], norm.reshape(2, -1))


def ref_criterion_commutator(congruence, points):
    """geodesic_criterion_check's old commutator_norm: the largest Frobenius
    norm of [slash(p), slash(dp/du)] built as 4x4 matrices."""
    worst = 0.0
    for x in points:
        u = np.asarray(congruence.u_of(x), dtype=float)
        p = np.asarray(congruence.p_of(x), dtype=float)
        pdot = dr.directional_derivative(congruence.p_of, u, x)
        if np.abs(pdot).max() > 1e-13 * max(1.0, np.abs(p).max()):
            b_matrix = slash(pdot)
        else:
            b_matrix = np.zeros((4, 4), dtype=complex)
        a = slash(p)
        worst = max(worst, np.linalg.norm(a @ b_matrix - b_matrix @ a))
    return worst


@pytest.mark.parametrize("congruence, box, seed", [
    (dr.geodesic_congruence(1.3), BOX, 9),
    (dr.sheared_congruence(1.0, amplitude=0.1),
     hj.Box([2.2, -1.0, -1.0, -1.0], [3.0, 1.0, 1.0, 1.0]), 10),
])
def test_criterion_commutator_matches_matrix_route(congruence, box, seed):
    points = box.sample(np.random.default_rng(seed), 10)
    want = ref_criterion_commutator(congruence, points)
    got = dr.geodesic_criterion_check(congruence, points)["commutator_norm"]
    assert want > 0.0 and abs(got - want) <= 1e-12 * want


# -- occupation enumeration --------------------------------------------------------

# n = 0, L = 1, two-digit counts (BE with L = 2, n = 12; MB with n = 12) and
# 19448 states, more than one CSV block
ENUM_EDGES = [([0.5, 1.5], 12, 0.3, "BE"), ([0.0, 1.0, 2.0], 0, 1.0, "BE"),
              ([2.0], 7, 1.0, "BE"), ([0.1, 0.2, 0.4, 0.8], 2, 1.0, "FD"),
              ([1.0], 0, 1.0, "FD"), ([1.0], 1, 1.0, "FD"), ([0.0, 1.0], 0, 0.5, "MB"),
              ([0.3], 4, 1.0, "MB"), ([0.25, 0.5, 1.0], 12, 0.7, "MB"),
              ([0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.3, 2.1], 10, 0.5, "BE")]


def partition_cases():
    rng = np.random.default_rng(13)
    cases = [([0.0, -0.0, 0.5], 0, 0.7, "MB"), ([-0.0, -0.0], 2, 1.1, "BE"),
             ([0.3, -0.0, -1.2], 3, 0.9, "FD"), ([0.25, 0.5], 2, 2.0, "FD"),
             ([1.0], 0, 1.0, "FD"), ([1.0], 5, 1.0, "MB")]
    for _ in range(24):
        L = int(rng.integers(1, 7))
        levels = rng.normal(size=L) * 10.0 ** rng.integers(-3, 2, size=L)
        levels[rng.random(L) < 0.2] = -0.0
        statistics = str(rng.choice(["BE", "FD", "MB"]))
        n = int(rng.integers(0, L + 1 if statistics == "FD" else 7))
        cases.append((levels.tolist(), n, float(rng.uniform(0.1, 3.0)), statistics))
    return cases + ENUM_EDGES


@pytest.mark.parametrize("levels, n, beta, statistics", partition_cases())
def test_partition_enumerate_matches_sorted_per_state_sums(levels, n, beta, statistics):
    table = sm.partition_enumerate(levels, n, beta, statistics)
    occupations, energies, weights = ref_partition(levels, n, beta, statistics)
    assert table.occupations.dtype == np.uint8
    assert table.occupations.shape == (len(occupations), len(levels))
    assert table.occupations.tolist() == [list(occ) for occ in occupations]
    assert same_bits(table.energies, energies)
    assert same_bits(table.weights, weights)
    assert table.z == float(weights.sum())
    assert same_bits(table.probabilities, weights / table.z)


@pytest.mark.parametrize("levels, n, beta, statistics", ENUM_EDGES)
def test_occupancy_states_match_joined_counts(tmp_path, levels, n, beta, statistics):
    table = sm.partition_enumerate(levels, n, beta, statistics)
    path = tmp_path / "occupancy.csv"
    sm.write_occupancy_csv(table, path)
    states = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert states == [";".join(map(str, occ)) for occ in table.occupations.tolist()]
