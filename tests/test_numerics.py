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
reference loops above read the components as arrays. The diagonal metrics'
covariant RK4 stages invert in closed form, 1/diag, and run in Python
floats; np.linalg.inv and the numpy flow, which every record and the other
metrics' stages use, are the stages' exact oracle.

rk4_step combined flat state arrays and now combines lists of components,
Python floats or numpy columns; ref_rk4's array formula is its exact oracle
on both.
"""

import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from hjdirac import dirac as dr
from hjdirac import dynamics as dyn
from hjdirac import geometry as geo
from hjdirac import hamilton_jacobi as hj
from hjdirac import statmech as sm
from hjdirac._util import central_difference
from hjdirac.clifford import slash
from hjdirac.dynamics import rk4_step

from conftest import harmonic_model, quadratic_model

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


def ref_record_columns(model, traj, rhs):
    """integrate's per-record diagnostics, one recorded state at a time, with
    rhs the (x, p) -> (xdot, pdot) that was integrated: (H, dm_ds, comm_norm)."""
    h, dm_ds, comm = [], [], []
    for x, p in zip(traj.x, traj.p):
        x, p = x.copy(), p.copy()
        _, pdot = rhs(x, p)
        fdotf = float(pdot[0] * pdot[0] - pdot[1] * pdot[1]
                      - pdot[2] * pdot[2] - pdot[3] * pdot[3])
        h.append(float(model.hamiltonian(x, p)))
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
    return occupations, energies, multiplicities * np.exp(-beta * energies)


def same_bits(a, b):
    """Equal values and equal signs of zero, element by element."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# -- RK4 ---------------------------------------------------------------------------

def swap_rhs(x, p):
    """dx/ds = p, dp/ds = -x: no rounding of its own, so the stages see the
    states' magnitudes and zero signs as they are."""
    return tuple(p), tuple(-a for a in x)


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
        rhs, states = swap_rhs, wide_states(rng, 15)
    else:
        model = dyn.projectile_model(1.1, 0.4, 0.9, 0.2)
        rhs = dyn._rhs_for(model, canonical)[0]
        states = rng.normal(size=(15, 8))
        states[:, 4] = np.abs(states[:, 4]) + 3.0

    def stage(y):
        dx, dp = rhs(y[:4], y[4:])
        return [*dx, *dp]

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


def test_integrate_records_the_inline_loop_states():
    model = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)
    x0, p0 = np.zeros(4), model.reference.tangent(0.0)
    traj = dyn.integrate(model, x0, p0, 0.35, step=1e-2, record_stride=4)
    steps = [0, 4, 8, 12, 16, 20, 24, 28, 32, 35]
    assert np.array_equal(traj.s, [i * 1e-2 for i in steps])
    for k, i in enumerate(steps):
        x, p = ref_rk4(model.flow, x0, p0, 1e-2, i)
        assert np.array_equal(traj.x[k], x) and np.array_equal(traj.p[k], p)


def mixed_model():
    """A model whose H couples x1 and p1, so no T(p) + V(x) split exists."""
    return dyn.HamiltonianModel(
        lambda x, p: 0.5 * (p[1] * p[1]) + 0.3 * x[1] * p[1] + 0.5 * (x[1] * x[1]),
        dh_dx=lambda x, p: (0.0, 0.3 * p[1] + x[1], 0.0, 0.0),
        dh_dp=lambda x, p: (0.0, p[1] + 0.3 * x[1], 0.0, 0.0))


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
        def rhs(x, p):
            return dyn.hamilton_rhs(model, x, p)
    h, dm_ds, comm = ref_record_columns(model, traj, rhs)
    assert same_bits(traj.h, h)
    assert same_bits(traj.dm_ds, dm_ds)
    assert same_bits(traj.comm_norm, comm)


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
    x, p = component_states(np.random.default_rng(17), 60)
    calls = [model.hamiltonian, model.dh_dx, model.dh_dp]
    if model.flow is not None:
        calls += [lambda x, p: model.flow(x, p)[0], lambda x, p: model.flow(x, p)[1]]
    for call in calls:
        on_floats = [call(a.tolist(), b.tolist()) for a, b in zip(x, p)]
        on_arrays = [call(a, b) for a, b in zip(x, p)]
        on_columns = call(x.T, p.T)
        on_grid = call(x.T.reshape(4, 3, 20), p.T.reshape(4, 3, 20))
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
    x, p = component_states(np.random.default_rng(18), 40)
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    for model in (dyn.free_particle_model(1.1), PROJECTILE, quadratic_model(),
                  harmonic_model(1.3), mixed_model()):
        for a, b in zip(x, p):
            xdot, pdot = dyn.hamilton_rhs(model, a.tolist(), b.tolist())
            assert same_bits(xdot, eta * np.asarray(model.dh_dp(a, b), dtype=float))
            assert same_bits(pdot, -eta * np.asarray(model.dh_dx(a, b), dtype=float))


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


# -- Christoffel symbols and the covariant record ----------------------------------

NON_DIAGONAL = geo.metric_from_config({"kind": "custom-polynomial", "entries": [
    [[[1.0, [0, 0, 0, 0]], [0.2, [0, 1, 1, 0]]], [[0.1, [0, 1, 0, 0]]], [], [[0.05, [1, 0, 0, 1]]]],
    [[[0.1, [0, 1, 0, 0]]], [[-1.0, [0, 0, 0, 0]]], [[0.05, [0, 0, 1, 0]]], []],
    [[], [[0.05, [0, 0, 1, 0]]], [[-1.0, [0, 2, 0, 0]]], [[-0.3, [0, 0, 0, 3]]]],
    [[[0.05, [1, 0, 0, 1]]], [], [[-0.3, [0, 0, 0, 3]]], [[-1.0, [0, 0, 0, 0]]]]]})


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


@pytest.mark.parametrize("metric, closed_form", [
    (geo.polar_metric(4), polar_dg),
    (geo.polar_metric(3), polar_dg),
    (DIAGONAL, diagonal_dg),
    (NON_DIAGONAL, non_diagonal_dg),
])
def test_analytic_metric_partials(metric, closed_form):
    """Exactly the hand-derived partials, and central differences agree."""
    rng = np.random.default_rng(14)
    for _ in range(30):
        x = 3.0 * rng.normal(size=metric.dim)
        x[1] = rng.uniform(0.3, 3.0)
        dg = metric.dg(x)
        assert np.array_equal(dg, closed_form(x))
        fd = central_difference(metric.matrix, x, 1e-5)
        assert np.abs(dg - fd).max() <= 1e-8 * max(1.0, np.abs(dg).max())


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
    (NON_DIAGONAL, [0.1, 1.0, 0.3, -0.2], [1.5, 0.2, -0.1, 0.05]),
])
def test_covariant_records_match_two_rhs_record(metric, x0, p0):
    """The lowered-index flow against the old g^{-1} dg g^{-1} algebra, on the
    same partials: they differ only by rounding."""
    traj = dyn.covariant_integrate(metric, x0, p0, 0.12, step=0.01)
    rows = ref_covariant_records(metric, x0, p0, 0.01, 12)
    assert np.abs(traj.p_upper - [r[0] for r in rows]).max() <= 1e-13
    assert np.abs(traj.k - [r[1] for r in rows]).max() <= 1e-13
    assert np.abs(traj.geodesic_residual - [r[2] for r in rows]).max() <= 1e-13


@pytest.mark.parametrize("metric, x0, p0", [
    (geo.polar_metric(4), [0.0, 1.0, 0.3, 0.0], [1.5, 0.3, -0.19, 0.1]),
    (geo.polar_metric(3), [0.0, 1.2, -0.4], [1.4, -0.2, 0.25]),
    (DIAGONAL, [0.2, 1.1, -0.3, 0.4], [1.3, 0.1, 0.2, -0.1]),
    (NON_DIAGONAL, [0.1, 1.0, 0.3, -0.2], [1.5, 0.2, -0.1, 0.05]),
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
        assert np.abs(traj.p_upper[k] - u).max() <= 1e-13
        assert abs(traj.k[k] - 0.5 * sum(pl[m] * u[m] for m in range(dim))) <= 1e-13
        assert abs(traj.geodesic_residual[k] - np.abs(resid).max()) <= 1e-13


@pytest.mark.parametrize("metric, polar", [
    (geo.minkowski_metric(3), False), (geo.minkowski_metric(4), False),
    (geo.polar_metric(3), True), (geo.polar_metric(4), True), (DIAGONAL, False),
], ids=["metric%d" % i for i in range(5)])
def test_diagonal_inverse_matches_linalg_inv(metric, polar):
    """inverse_diag is np.linalg.inv's diagonal, and applied entry by entry
    (+ 0.0, as the stages do) it gives np.linalg.inv's matrix product,
    signed zeros included; a zero entry fails as np.linalg.inv does."""
    rng = np.random.default_rng(19)
    for _ in range(200):
        x, v = wide_points(rng, metric.dim), wide_points(rng, metric.dim)
        v[rng.random(metric.dim) < 0.3] = 0.0
        v[rng.random(metric.dim) < 0.2] = -0.0
        ginv = np.linalg.inv(metric.matrix(x))
        inv = metric.inverse_diag(x.tolist())
        assert same_bits(inv, np.diag(ginv))
        assert same_bits([i * a + 0.0 for i, a in zip(inv, v.tolist())], ginv @ v)
        assert same_bits(metric.matrix(x), np.diag(metric.diag(x)))
    if polar:  # g_thth = -r^2 vanishes on the axis
        x = np.zeros(metric.dim)
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.inv(metric.matrix(x))
        with pytest.raises(np.linalg.LinAlgError) as got:
            metric.inverse_diag(x.tolist())
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


def test_covariant_rhs_evaluates_metric_and_partials_once():
    polar = geo.polar_metric(4)
    calls = {"g": 0, "dg": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    # no diag: the RK4 stages take the numpy flow, as the record does
    metric = geo.MetricField(counted("g", polar.g), dim=4, dg=counted("dg", polar.dg))
    dyn.covariant_integrate(metric, [0.0, 1.0, 0.3, 0.0], [1.5, 0.3, -0.19, 0.0],
                            0.1, step=0.01, record_stride=5)
    # 10 RK4 steps of 4 RHS calls each; each of the 3 records makes one RHS
    # call and one christoffel_at call; the initial lowering reads g once
    assert calls == {"g": 4 * 10 + 3 * 2 + 1, "dg": 4 * 10 + 3 * 2}


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
    calls = {"dg": 0, "matrix": 0, "inverse_diag": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    metric = geo.polar_metric(4)
    metric.dg = counted("dg", metric.dg)
    for name in ("matrix", "inverse_diag"):
        monkeypatch.setattr(geo.MetricField, name, counted(name, getattr(geo.MetricField, name)))
    dyn.covariant_integrate(metric, [0.0, 1.0, 0.3, 0.0],
                            [1.5, 0.3, -0.19, 0.0], 0.1, step=0.01, record_stride=5)
    # only the 3 records read dg and the matrix, once in the flow (whose
    # inverse is np.linalg.inv's) and once in christoffel_at, after the
    # initial lowering's matrix; each of the 40 stages reads inverse_diag alone
    assert calls == {"dg": 3 + 3, "matrix": 1 + 3 * 2, "inverse_diag": 4 * 10}


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
