"""The shared numerical kernels against the code they replaced.

rk4_step, central_difference and eval_poly each took over several
hand-written copies, and christoffel_at, partition_enumerate and the
covariant record replaced slower loops. The replaced code is kept here as the
oracle, and every comparison is exact (np.array_equal or ==): the new code
keeps the old operation order, so it must reproduce the old bits, not just
the old values.
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
from hjdirac.dynamics import rk4_step

BOX = hj.Box([2.0, -0.5, -0.5, -0.5], [3.0, 0.5, 0.5, 0.5])
TERMS = [[1.5, [2, 0, 1, 0]], [-0.3, [0, 3, 0, 1]], [2, [0, 0, 0, 0]],
         [0.7, [1, 1, 1, 1]], [-1.1, [0, 0, 4, 0]], [0.25, [0, 5, 0, 2]]]
POLYS = [TERMS, [], [[3.5, [0, 0, 0, 0]]], [[-2, [0, 0, 0, 0]], [1, [0, 0, 0, 0]]]]


def wide_points(rng, shape):
    """Points with coordinates on both sides of |x| = 1, where h changes form."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3, size=shape)


# -- the replaced code ----------------------------------------------------------

def ref_rk4(rhs, x, p, step, n_steps):
    """The inline two-variable loop of integrate and covariant_integrate."""
    for _ in range(n_steps):
        k1x, k1p = rhs(x, p)
        k2x, k2p = rhs(x + 0.5 * step * k1x, p + 0.5 * step * k1p)
        k3x, k3p = rhs(x + 0.5 * step * k2x, p + 0.5 * step * k2p)
        k4x, k4p = rhs(x + step * k3x, p + step * k3p)
        x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        p = p + (step / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return x, p


def ref_trace(u_of, x0, s_max, n_steps):
    """Congruence.trace's one-variable loop."""
    x = np.asarray(x0, dtype=float).copy()
    h = s_max / n_steps
    path = [x.copy()]
    for _ in range(n_steps):
        k1 = u_of(x)
        k2 = u_of(x + 0.5 * h * k1)
        k3 = u_of(x + 0.5 * h * k2)
        k4 = u_of(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        path.append(x.copy())
    return np.asarray(path)


def ref_fd_partial(h_fn, x, p, wrt):
    """HamiltonianModel._fd_partial."""
    out = np.empty(4)
    for a in range(4):
        base = x[a] if wrt == "x" else p[a]
        h = dyn.PARTIAL_FD_SCALE * max(1.0, abs(base))
        if wrt == "x":
            xp, xm = x.copy(), x.copy()
            xp[a] += h
            xm[a] -= h
            out[a] = (h_fn(xp, p) - h_fn(xm, p)) / (2 * h)
        else:
            pp, pm = p.copy(), p.copy()
            pp[a] += h
            pm[a] -= h
            out[a] = (h_fn(x, pp) - h_fn(x, pm)) / (2 * h)
    return out


def ref_metric_partials(metric, x):
    """geometry._metric_partials without an analytic dg."""
    dim = metric.dim
    dg = np.empty((dim, dim, dim))
    for lam in range(dim):
        h = geo.METRIC_FD_SCALE * max(1.0, abs(x[lam]))
        xp, xm = x.copy(), x.copy()
        xp[lam] += h
        xm[lam] -= h
        dg[lam] = (metric.matrix(xp) - metric.matrix(xm)) / (2.0 * h)
    return dg


def ref_vector_jacobian(f, x, scale):
    """CoordinateChart.jacobian_matrix's loop and dirac._vector_jacobian."""
    jac = np.empty((4, 4))
    for b in range(4):
        h = scale * max(1.0, abs(x[b]))
        xp, xm = x.copy(), x.copy()
        xp[b] += h
        xm[b] -= h
        jac[:, b] = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2 * h)
    return jac


def ref_fd_gradient(field, x):
    """HamiltonJacobiField._fd_gradient."""
    single = x.ndim == 1
    pts = x.reshape(-1, 4)
    grad = np.empty_like(pts)
    for a in range(4):
        h = hj.GRAD_FD_SCALE * np.maximum(1.0, np.abs(pts[:, a]))
        xp, xm = pts.copy(), pts.copy()
        xp[:, a] += h
        xm[:, a] -= h
        wp = field._apply(field._value, xp, scalar=True)
        wm = field._apply(field._value, xm, scalar=True)
        grad[:, a] = (np.atleast_1d(wp) - np.atleast_1d(wm)) / (2.0 * h)
    return grad[0] if single else grad.reshape(x.shape)


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


def ref_hessian_from_one_form(field, x, step=1e-4):
    """hessian_det_check's branch for fields without W."""
    raw = np.empty((3, 3))
    for j in range(3):
        hj_ = step * max(1.0, abs(x[1 + j]))
        xp, xm = x.copy(), x.copy()
        xp[1 + j] += hj_
        xm[1 + j] -= hj_
        raw[:, j] = (field.one_form(xp)[1:] - field.one_form(xm)[1:]) / (2 * hj_)
    return 0.5 * (raw + raw.T)


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
    """polynomial_field's private array evaluator."""
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
    dg = geo._metric_partials(metric, x)
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
        dg = geo._metric_partials(metric, xs)
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

@pytest.mark.parametrize("canonical", [False, True])
def test_rk4_step_matches_inline_loop(canonical):
    model = dyn.projectile_model(1.1, 0.4, 0.9, 0.2)
    rhs = dyn._rhs_for(model, canonical)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, p = rng.normal(size=4), rng.normal(size=4)
        p[0] = abs(p[0]) + 3.0
        state = [x, p]
        for _ in range(50):
            state = rk4_step(rhs, state, 1e-3)
        want = ref_rk4(rhs, x, p, 1e-3, 50)
        assert np.array_equal(state[0], want[0]) and np.array_equal(state[1], want[1])


def test_integrate_records_the_inline_loop_states():
    model = dyn.projectile_model(1.0, 0.5, 1.0, 0.2)
    x0, p0 = np.zeros(4), model.reference.tangent(0.0)
    traj = dyn.integrate(model, x0, p0, 0.35, step=1e-2, record_stride=4)
    steps = [0, 4, 8, 12, 16, 20, 24, 28, 32, 35]
    assert np.array_equal(traj.s, [i * 1e-2 for i in steps])
    for k, i in enumerate(steps):
        x, p = ref_rk4(model.flow, x0, p0, 1e-2, i)
        assert np.array_equal(traj.x[k], x) and np.array_equal(traj.p[k], p)


def test_congruence_trace_matches_inline_loop():
    cong = dr.sheared_congruence(1.2, amplitude=0.3)
    x0 = np.array([3.0, 0.2, 0.1, -0.3])
    _, path = cong.trace(x0, 2.0, n_steps=60)
    assert np.array_equal(path, ref_trace(cong.u_of, x0, 2.0, 60))


# -- central differences -----------------------------------------------------------

def test_model_partials_match_old_loop():
    def h_fn(x, p):
        return np.sqrt(1.0 + (p[1:] ** 2).sum()) + 0.3 * x[1] ** 2 * x[2] - 0.1 * x[3] ** 3

    model = dyn.custom_model(h_fn)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, p = wide_points(rng, 4), wide_points(rng, 4)
        assert np.array_equal(model.dh_dx(x, p), ref_fd_partial(h_fn, x, p, "x"))
        assert np.array_equal(model.dh_dp(x, p), ref_fd_partial(h_fn, x, p, "p"))


@pytest.mark.parametrize("metric", [
    geo.polar_metric(4),
    geo.polar_metric(3),
    geo.diagonal_metric([[[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]],
                         [[-1.0, [0, 2, 0, 0]], [0.3, [1, 1, 1, 0]]],
                         [[-1.0, [0, 0, 0, 0]]]]),
])
def test_metric_partials_match_old_loop(metric):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = wide_points(rng, metric.dim)
        assert np.array_equal(geo._metric_partials(metric, x), ref_metric_partials(metric, x))


def test_chart_jacobian_and_vector_jacobian_match_old_loop():
    polar = geo.polar_chart()
    fd_chart = geo.CoordinateChart("fd", polar.forward, polar.backward)
    cong = dr.sheared_congruence(1.2, amplitude=0.3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = wide_points(rng, 4)
        jac = fd_chart.jacobian_matrix(x)
        assert np.array_equal(jac, ref_vector_jacobian(polar.forward, x, geo.CHART_FD_SCALE))
        assert jac.flags.c_contiguous
        y = np.array([8.0, 0.0, 0.0, 0.0]) + rng.uniform(-1.0, 1.0, size=4)
        u = rng.normal(size=4)
        want = ref_vector_jacobian(cong.p_of, y, 1e-5) @ u
        assert np.array_equal(dr.directional_derivative(cong.p_of, u, y), want)
        lie = (ref_vector_jacobian(cong.p_of, y, 1e-5) @ cong.u_of(y)
               - ref_vector_jacobian(cong.u_of, y, 1e-5) @ cong.p_of(y))
        assert np.array_equal(dr.lie_derivative(cong.u_of, cong.p_of, y), lie)


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("shape", [(4,), (30, 4), (5, 6, 4)])
def test_value_only_gradient_matches_old_loop(vectorized, shape):
    geod = hj.construct_geodesic_W(1.3)
    if vectorized:
        field = hj.HamiltonJacobiField(value=geod.value, vectorized=True)
    else:
        field = hj.HamiltonJacobiField(value=lambda x: float(geod.value(x)))
    pts = BOX.sample(np.random.default_rng(5), int(np.prod(shape[:-1]))).reshape(shape)
    assert np.array_equal(field.one_form(pts), ref_fd_gradient(field, pts))


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
    pf = hj.polynomial_field(TERMS)
    fields = [hj.construct_geodesic_W(1.3), hj.curl_counterexample_field(),
              hj.HamiltonJacobiField(one_form=lambda x: pf.one_form(x) + 0.01 * x ** 2,
                                     vectorized=True)]
    pts = BOX.sample(np.random.default_rng(7), 40)
    for field in fields:
        assert hj._closedness_residual(field, pts) == ref_closedness(field, pts)


def test_hessian_one_form_branch_matches_old_loop():
    geod = hj.construct_geodesic_W(1.3)
    formonly = hj.HamiltonJacobiField(one_form=geod.one_form, vectorized=True)
    for x in BOX.sample(np.random.default_rng(8), 10):
        report = dyn.hessian_det_check(formonly, x)
        assert np.array_equal(report.hessian, ref_hessian_from_one_form(formonly, x))


# -- polynomials -------------------------------------------------------------------

@pytest.mark.parametrize("terms", POLYS)
def test_eval_poly_single_points_match_scalar_loop(terms):
    rng = np.random.default_rng(9)
    for x in wide_points(rng, (200, 4)):
        assert geo.eval_poly(terms, x) == ref_eval_poly(terms, x)
        assert geo.eval_poly(terms, list(x)) == ref_eval_poly(terms, x)
    assert geo.eval_poly(terms, [1, 2, 3, 4]) == ref_eval_poly(terms, [1, 2, 3, 4])
    assert type(geo.eval_poly(terms, [1, 2, 3, 4])) is float


@pytest.mark.parametrize("terms", POLYS)
@pytest.mark.parametrize("shape", [(1, 4), (300, 4), (25, 20, 4)])
def test_eval_poly_stacks_match_array_loop(terms, shape):
    pts = wide_points(np.random.default_rng(10), shape)
    got = geo.eval_poly(terms, pts)
    assert got.shape == shape[:-1]
    assert np.array_equal(got, ref_poly(terms, pts))


def test_polynomial_field_stacks_match_array_loop():
    field = hj.polynomial_field(TERMS)
    pts = BOX.sample(np.random.default_rng(11), 60).reshape(3, 20, 4)
    grads = [[[c * e[a], [k - (i == a) for i, k in enumerate(e)]]
              for c, e in TERMS if e[a]] for a in range(4)]
    assert np.array_equal(field.value(pts), ref_poly(TERMS, pts))
    assert np.array_equal(field.one_form(pts),
                          np.stack([ref_poly(g, pts) for g in grads], axis=-1))


# -- Christoffel symbols and the covariant record ----------------------------------

NON_DIAGONAL = geo.metric_from_config({"kind": "custom-polynomial", "entries": [
    [[[1.0, [0, 0, 0, 0]], [0.2, [0, 1, 1, 0]]], [[0.1, [0, 1, 0, 0]]], [], [[0.05, [1, 0, 0, 1]]]],
    [[[0.1, [0, 1, 0, 0]]], [[-1.0, [0, 0, 0, 0]]], [[0.05, [0, 0, 1, 0]]], []],
    [[], [[0.05, [0, 0, 1, 0]]], [[-1.0, [0, 2, 0, 0]]], [[-0.3, [0, 0, 0, 3]]]],
    [[[0.05, [1, 0, 0, 1]]], [], [[-0.3, [0, 0, 0, 3]]], [[-1.0, [0, 0, 0, 0]]]]]})


@pytest.mark.parametrize("metric", [
    geo.polar_metric(4),
    geo.polar_metric(3),
    geo.diagonal_metric([[[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]],
                         [[-1.0, [0, 2, 0, 0]], [0.3, [1, 1, 1, 0]]],
                         [[-1.0, [0, 0, 0, 0]]]]),
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
    traj = dyn.covariant_integrate(metric, x0, p0, 0.12, step=0.01)
    rows = ref_covariant_records(metric, x0, p0, 0.01, 12)
    assert np.array_equal(traj.p_upper, [r[0] for r in rows])
    assert np.array_equal(traj.k, [r[1] for r in rows])
    assert np.array_equal(traj.geodesic_residual, [r[2] for r in rows])


def test_covariant_record_evaluates_the_metric_partials_once(monkeypatch):
    calls = {"partials": 0, "christoffel": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dyn, "_metric_partials", counted("partials", dyn._metric_partials))
    monkeypatch.setattr(dyn, "christoffel_at", counted("christoffel", dyn.christoffel_at))
    dyn.covariant_integrate(geo.polar_metric(4), [0.0, 1.0, 0.3, 0.0],
                            [1.5, 0.3, -0.19, 0.0], 0.1, step=0.01, record_stride=5)
    # 10 RK4 steps of 4 stages each, plus one each for the 3 records
    assert calls == {"partials": 4 * 10 + 3, "christoffel": 3}


# -- occupation enumeration --------------------------------------------------------

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
    return cases


@pytest.mark.parametrize("levels, n, beta, statistics", partition_cases())
def test_partition_enumerate_matches_sorted_per_state_sums(levels, n, beta, statistics):
    table = sm.partition_enumerate(levels, n, beta, statistics)
    occupations, energies, weights = ref_partition(levels, n, beta, statistics)
    assert table.occupations == occupations
    assert same_bits(table.energies, energies)
    assert same_bits(table.weights, weights)
    assert table.z == float(weights.sum())
    assert same_bits(table.probabilities, weights / table.z)
