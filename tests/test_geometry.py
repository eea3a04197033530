import numpy as np
import pytest

from conftest import TermListMetric
from hjdirac import clifford as cl
from hjdirac import geometry as geo
from hjdirac._util import central_difference
from hjdirac.errors import BadSignature, SingularJacobian, SingularMetric, UsageError


def test_tetrad_polar_example():
    frame = geo.tetrad_at(geo.polar_metric(dim=3), [0.0, 2.0, 0.1])
    assert np.allclose(frame.e, np.diag([1.0, 1.0, 0.5]), atol=1e-12)
    assert frame.residual < 1e-12


def test_tetrad_scaled_time_component():
    metric = geo.diagonal_metric([[[4, [0] * 4]], [[-1, [0] * 4]], [[-1, [0] * 4]], [[-1, [0] * 4]]])
    frame = geo.tetrad_at(metric, [0.0, 0.0, 0.0, 0.0])
    assert frame.e[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_tetrad_orthonormality_random_points():
    rng = np.random.default_rng(2)
    metrics = [geo.minkowski_metric(), geo.polar_metric()]
    for metric in metrics:
        for _ in range(100):
            x = rng.uniform(0.5, 3.0, size=4)
            gx = metric.matrix(x)
            frame = geo.tetrad_at(metric, x)
            cond = np.linalg.cond(gx)
            assert frame.residual <= 1e-10 * cond
            eta = np.diag([1.0] + [-1.0] * (metric.dim - 1))
            assert np.abs(frame.e @ gx @ frame.e.T - eta).max() <= 1e-10 * cond


def test_tetrad_off_diagonal_metric():
    # mild off-diagonal polynomial metric stays (+,-,-,-) near the origin;
    # tetrad_at takes any metric, though every metric kind is diagonal
    const = lambda c: [[c, [0] * 4]]
    entries = [
        [const(1.0), const(0.1), const(0.0), const(0.0)],
        [const(0.1), const(-1.0), const(0.0), const(0.0)],
        [const(0.0), const(0.0), const(-1.0), const(0.05)],
        [const(0.0), const(0.0), const(0.05), const(-1.0)],
    ]
    metric = TermListMetric(entries)
    frame = geo.tetrad_at(metric, [0.0, 0.0, 0.0, 0.0])
    assert frame.residual < 1e-12


def test_bad_signature_raises():
    metric = geo.diagonal_metric([[[1, [0] * 4]], [[1, [0] * 4]], [[-1, [0] * 4]], [[-1, [0] * 4]]])
    with pytest.raises(BadSignature):
        geo.tetrad_at(metric, [0.0, 0.0, 0.0, 0.0])


def test_christoffel_polar_analytic_values():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = rng.uniform(0.5, 4.0)
        gamma = geo.christoffel_at(geo.polar_metric(dim=3), [0.0, r, rng.uniform(0, 2 * np.pi)])
        assert gamma[1, 2, 2] == pytest.approx(-r, abs=1e-6)
        assert gamma[2, 1, 2] == pytest.approx(1.0 / r, abs=1e-6)
        assert gamma[2, 2, 1] == pytest.approx(1.0 / r, abs=1e-6)


def test_christoffel_symmetry_and_flat_zero():
    rng = np.random.default_rng(9)
    metric = geo.polar_metric()
    for _ in range(20):
        x = rng.uniform(0.5, 3.0, size=4)
        gamma = geo.christoffel_at(metric, x)
        assert np.abs(gamma - np.swapaxes(gamma, 1, 2)).max() == 0.0
    flat = geo.christoffel_at(geo.minkowski_metric(), rng.uniform(-2, 2, size=4))
    assert np.abs(flat).max() <= 1e-12


def test_christoffel_singular_metric_raises():
    metric = geo.diagonal_metric(
        [[[1, [0] * 4]], [[-1e-15, [0] * 4]], [[-1, [0] * 4]], [[-1, [0] * 4]]]
    )
    with pytest.raises(SingularMetric):
        geo.christoffel_at(metric, [0.0, 0.0, 0.0, 0.0])


def test_covariant_gamma_polar_anticommutator():
    x = [0.0, 2.0, np.pi / 3, 0.0]
    gammas, ginv = geo.covariant_gamma(geo.polar_jacobian, x)
    # {gamma~^theta, gamma~^theta} = 2 g^{theta theta} I = -I/2 at r = 2
    acc = cl.anticommutator(gammas[2], gammas[2])
    assert np.allclose(acc, -0.5 * np.eye(4), atol=1e-10)
    for mu in range(4):
        for nu in range(4):
            lhs = cl.anticommutator(gammas[mu], gammas[nu])
            assert np.abs(lhs - 2 * ginv[mu, nu] * np.eye(4)).max() < 1e-10


def test_covariant_gamma_scaled_time():
    # chart time is twice the reference time: d(ref^0)/d(chart^0) = 1/2
    scale = np.array([0.5, 1.0, 1.0, 1.0])
    gammas, ginv = geo.covariant_gamma(lambda x: np.diag(scale), [0.5, 1.0, 1.0, 1.0])
    assert np.allclose(cl.anticommutator(gammas[0], gammas[0]), 8.0 * np.eye(4), atol=1e-12)
    assert ginv[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_covariant_gamma_singular_jacobian():
    with pytest.raises(SingularJacobian):
        geo.covariant_gamma(geo.polar_jacobian, [0.0, 0.0, 0.0, 0.0])  # r = 0


def test_chart_metric_matches_polar_metric():
    metric = geo.polar_metric()
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 3), rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1)])
        assert np.abs(geo.chart_metric(geo.polar_jacobian, x) - metric.matrix(x)).max() < 1e-9


def test_chart_roundtrip_and_fd_jacobian():
    def forward(x):  # the polar chart's map, (t, r, theta, z) -> (t, x, y, z)
        t, r, th, z = x
        return np.array([t, r * np.cos(th), r * np.sin(th), z])

    x = np.array([0.3, 1.7, 0.9, -0.4])
    fd = central_difference(forward, x, 1e-6).T  # fd[a, mu] = d(ref^a)/d(chart^mu)
    assert np.abs(fd - geo.polar_jacobian(x)).max() < 1e-8


def test_metric_from_config_kinds():
    minkowski = geo.metric_from_config({"kind": "minkowski"})
    assert np.array_equal(minkowski.matrix(np.zeros(4)), np.diag([1.0, -1.0, -1.0, -1.0]))
    assert geo.metric_from_config({"kind": "polar", "dim": 3}).dim == 3
    diag = geo.metric_from_config(
        {"kind": "diagonal", "entries": [[[1, [0, 0, 0, 0]]], [[-1, [0] * 4]], [[-1, [0, 0, 0, 0]], [-1, [0, 2, 0, 0]]], [[-1, [0] * 4]]]}
    )
    # third entry is -(1 + x1^2)
    assert diag.matrix([0.0, 2.0, 0.0, 0.0])[2, 2] == pytest.approx(-5.0)
    with pytest.raises(UsageError):
        geo.metric_from_config({"kind": "nope"})


@pytest.mark.parametrize("cfg", [
    {"kind": "polar", "entries": []},
    {"kind": "minkowski", "dim": 4, "signature": "-+++"},
    {"kind": "diagonal", "entries": [[[1.0, [0]]]], "dim": 1},
    {"kind": "diagonal", "entries": [[[1.0, [0]]]], "scale": 2.0},
    "polar",
])
def test_metric_config_rejects_keys_its_kind_does_not_read(cfg):
    with pytest.raises(UsageError):
        geo.metric_from_config(cfg)


def test_eval_poly():
    # 2*x0^2*x1 - 3
    terms = [[2, [2, 1, 0, 0]], [-3, [0, 0, 0, 0]]]
    assert geo.eval_poly(terms, [2.0, 0.5, 9.0, 9.0]) == pytest.approx(1.0)
