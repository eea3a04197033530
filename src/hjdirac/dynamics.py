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

import numpy as np

from .clifford import ETA_DIAG, build_gamma_rep, classify, commutator, frobenius, minkowski_dot, slash
from .geometry import _metric_partials, christoffel_at
from ._util import config_kind, positive_int, write_csv, write_json
from .errors import NonSeparable, StepRejected, UsageError
from .hamilton_jacobi import projectile_field

__all__ = [
    "PhaseState",
    "HamiltonianModel",
    "free_particle_model",
    "projectile_model",
    "quadratic_model",
    "harmonic_model",
    "custom_model",
    "model_from_config",
    "hamilton_rhs",
    "Trajectory",
    "integrate",
    "operator_commutator",
    "force_diagnostic",
    "HessianReport",
    "hessian_det_check",
    "CovariantTrajectory",
    "covariant_integrate",
]

_REP = build_gamma_rep()
PARTIAL_FD_SCALE = 1e-6


class PhaseState:
    """Parameter value with the event and four-momentum there."""

    def __init__(self, s, x, p):
        self.s = float(s)
        self.x = np.asarray(x, dtype=float).copy()
        self.p = np.asarray(p, dtype=float).copy()


class HamiltonianModel:
    def __init__(self, name, hamiltonian, dh_dx=None, dh_dp=None, flow=None,
                 separable=False, guard=None, m0=None):
        self.name = name
        self._h = hamiltonian
        self._dh_dx = dh_dx
        self._dh_dp = dh_dp
        self.flow = flow
        self.separable = separable
        self.guard = guard
        self.m0 = m0

    def hamiltonian(self, x, p):
        return float(self._h(np.asarray(x, dtype=float), np.asarray(p, dtype=float)))

    def _fd_partial(self, x, p, wrt):
        out = np.empty(4)
        for a in range(4):
            base = x[a] if wrt == "x" else p[a]
            h = PARTIAL_FD_SCALE * max(1.0, abs(base))
            if wrt == "x":
                xp, xm = x.copy(), x.copy()
                xp[a] += h
                xm[a] -= h
                out[a] = (self._h(xp, p) - self._h(xm, p)) / (2 * h)
            else:
                pp, pm = p.copy(), p.copy()
                pp[a] += h
                pm[a] -= h
                out[a] = (self._h(x, pp) - self._h(x, pm)) / (2 * h)
        return out

    def dh_dx(self, x, p):
        x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
        if self._dh_dx is not None:
            return np.asarray(self._dh_dx(x, p), dtype=float)
        return self._fd_partial(x, p, "x")

    def dh_dp(self, x, p):
        x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
        if self._dh_dp is not None:
            return np.asarray(self._dh_dp(x, p), dtype=float)
        return self._fd_partial(x, p, "p")


def hamilton_rhs(model, x, p):
    """The literal canonical equations; see the module docstring."""
    xdot = ETA_DIAG * model.dh_dp(x, p)
    pdot = -ETA_DIAG * model.dh_dx(x, p)
    return xdot, pdot


def free_particle_model(m0):
    def h(x, p):
        return np.sqrt(m0 ** 2 + (p[1:] ** 2).sum())

    def dh_dx(x, p):
        return np.zeros(4)

    def dh_dp(x, p):
        e = np.sqrt(m0 ** 2 + (p[1:] ** 2).sum())
        return np.array([0.0, p[1] / e, p[2] / e, p[3] / e])

    return HamiltonianModel("free", h, dh_dx, dh_dp, separable=True, m0=m0)


def projectile_model(m0, u_x, u_y, g):
    """Uniform force along -x2. The flow override is proper-time kinematics:
    dx/ds = p/m0 and dp2/ds = -m0 g, with dp0/ds chosen so p.p stays put.
    reference carries the closed-form trajectory for oracles."""
    reference = projectile_field(m0, u_x, u_y, g)

    def h(x, p):
        return np.sqrt(m0 ** 2 + (p[1:] ** 2).sum()) + m0 * g * x[2]

    def dh_dx(x, p):
        return np.array([0.0, 0.0, m0 * g, 0.0])

    def dh_dp(x, p):
        e = np.sqrt(m0 ** 2 + (p[1:] ** 2).sum())
        return np.array([0.0, p[1] / e, p[2] / e, p[3] / e])

    def flow(x, p):
        xdot = p / m0
        pdot = np.array([-m0 * g * p[2] / p[0], 0.0, -m0 * g, 0.0])
        return xdot, pdot

    def guard(x, p):
        if p[0] <= 1e-12:
            return "energy component vanished"
        return None

    model = HamiltonianModel("projectile", h, dh_dx, dh_dp, flow=flow,
                             separable=True, guard=guard, m0=m0)
    model.reference = reference
    return model


def quadratic_model():
    def h(x, p):
        return 0.5 * minkowski_dot(p, p)

    def dh_dx(x, p):
        return np.zeros(4)

    def dh_dp(x, p):
        return ETA_DIAG * p

    return HamiltonianModel("quadratic", h, dh_dx, dh_dp, separable=True)


def harmonic_model(omega=1.0):
    def h(x, p):
        return 0.5 * p[1] ** 2 + 0.5 * omega ** 2 * x[1] ** 2

    def dh_dx(x, p):
        return np.array([0.0, omega ** 2 * x[1], 0.0, 0.0])

    def dh_dp(x, p):
        return np.array([0.0, p[1], 0.0, 0.0])

    return HamiltonianModel("harmonic", h, dh_dx, dh_dp, separable=True)


def custom_model(hamiltonian, dh_dx=None, dh_dp=None, separable=False, name="custom"):
    return HamiltonianModel(name, hamiltonian, dh_dx, dh_dp, separable=separable)


# config keys each model kind reads, besides "kind"
_MODEL_KEYS = {"free": ("m0",), "projectile": ("m0", "u_x", "u_y", "g"),
               "quadratic": (), "harmonic": ("omega",)}


def model_from_config(cfg):
    kind = config_kind(cfg, _MODEL_KEYS, "model")
    if kind == "free":
        return free_particle_model(float(cfg["m0"]))
    if kind == "projectile":
        return projectile_model(float(cfg["m0"]), float(cfg["u_x"]),
                                float(cfg["u_y"]), float(cfg["g"]))
    if kind == "quadratic":
        return quadratic_model()
    return harmonic_model(float(cfg.get("omega", 1.0)))


def operator_commutator(p, pdot, rep=None):
    """(raw, normalized) Frobenius norms of [slash(p), slash(pdot)].

    normalized divides by |slash(p)|_F |slash(pdot)|_F and is defined as zero
    when the force vanishes, so geodesics sit at exactly 0.
    """
    rep = rep or _REP
    p = np.asarray(p, dtype=float)
    pdot = np.asarray(pdot, dtype=float)
    if np.abs(pdot).max() <= 1e-13 * max(1.0, np.abs(p).max()):
        return 0.0, 0.0
    a = slash(rep, p)
    b = slash(rep, pdot)
    raw = frobenius(commutator(a, b))
    denom = frobenius(a) * frobenius(b)
    if denom < 1e-280:
        return raw, 0.0
    return raw, raw / denom


class Trajectory:
    """Sampled run of one model: arrays indexed by sample, not by step."""

    COLUMNS = ["s", "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
               "H", "dm_ds", "comm_norm"]

    def __init__(self, model_name, method, step, s, x, p, h, dm_ds, comm_norm):
        self.model_name = model_name
        self.method = method
        self.step = float(step)
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

    def final_state(self):
        return PhaseState(self.s[-1], self.x[-1], self.p[-1])

    def meta(self):
        return {
            "model": self.model_name,
            "method": self.method,
            "step": self.step,
            "s_max": float(self.s[-1]),
            "samples": int(len(self.s)),
            "energy_drift": self.energy_drift(),
            "mass_shell_drift": self.mass_shell_drift(),
        }

    def columns(self):
        """One array per COLUMNS name, in order."""
        return [self.s, *self.x.T, *self.p.T, self.h, self.dm_ds, self.comm_norm]

    def write_csv(self, path):
        write_csv(path, self.COLUMNS, self.columns())

    def write_meta(self, path):
        write_json(path, self.meta())


def _step_count(s_max, step, record_stride):
    """Number of fixed steps covering [0, s_max]; UsageError for a bad step,
    an s_max off the step grid, or a record_stride that is not an int >= 1."""
    if step <= 0:
        raise UsageError("step must be positive")
    positive_int(record_stride, "record_stride")
    n_steps = int(round(s_max / step))
    if n_steps < 1 or abs(n_steps * step - s_max) > 1e-9 * max(1.0, abs(s_max)):
        raise UsageError("s_max must be a positive multiple of step")
    return n_steps


def _rhs_for(model, canonical):
    if model.flow is not None and not canonical:
        return model.flow
    return lambda x, p: hamilton_rhs(model, x, p)


def integrate(model, x0, p0, s_max, step=1e-3, method="rk4", record_stride=1,
              canonical=False):
    """Fixed-step integration of one model from (x0, p0) over [0, s_max].

    method "rk4" uses the model's flow override when it has one (pass
    canonical=True to force the literal canonical equations); "leapfrog" is
    kick-drift-kick on the canonical equations and demands a separable H.
    Raises StepRejected when the state goes non-finite or the model's guard
    trips, and UsageError for a bad step, record_stride or method.
    """
    n_steps = _step_count(s_max, step, record_stride)
    if method not in ("rk4", "leapfrog"):
        raise UsageError(f"unknown method {method!r}")
    if method == "leapfrog" and not model.separable:
        raise NonSeparable(f"model {model.name!r} has no T(p) + V(x) split")

    x = np.asarray(x0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    rhs = _rhs_for(model, canonical)

    samples = []

    def record(i, xs, ps):
        xdot, pdot = rhs(xs, ps)
        fdotf = minkowski_dot(pdot, pdot)
        raw, norm = operator_commutator(ps, pdot)
        samples.append((i * step, xs.copy(), ps.copy(),
                        model.hamiltonian(xs, ps), np.sqrt(abs(fdotf)), norm))

    if model.guard is not None:
        msg = model.guard(x, p)
        if msg:
            raise StepRejected(f"initial state: {msg}")
    record(0, x, p)
    # overflow here is a detected condition (StepRejected), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            if method == "rk4":
                k1x, k1p = rhs(x, p)
                k2x, k2p = rhs(x + 0.5 * step * k1x, p + 0.5 * step * k1p)
                k3x, k3p = rhs(x + 0.5 * step * k2x, p + 0.5 * step * k2p)
                k4x, k4p = rhs(x + step * k3x, p + step * k3p)
                x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
                p = p + (step / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            else:
                p = p - 0.5 * step * ETA_DIAG * model.dh_dx(x, p)
                x = x + step * ETA_DIAG * model.dh_dp(x, p)
                p = p - 0.5 * step * ETA_DIAG * model.dh_dx(x, p)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
                raise StepRejected(f"non-finite state at step {i}")
            if model.guard is not None:
                msg = model.guard(x, p)
                if msg:
                    raise StepRejected(f"step {i}: {msg}")
            if i % record_stride == 0 or i == n_steps:
                record(i, x, p)

    s, xs, ps, hs, dms, comms = zip(*samples)
    return Trajectory(model.name, method, step, s, np.asarray(xs), np.asarray(ps),
                      hs, dms, comms)


def force_diagnostic(traj, index):
    """Central-difference four-force at one interior sample of a trajectory.

    Returns the force vector, its norm sqrt(|f.f|), and the causal class of
    f. Raises BoundaryIndex at the ends where no centered stencil exists.
    """
    from .errors import BoundaryIndex

    n = len(traj.s)
    if index <= 0 or index >= n - 1:
        raise BoundaryIndex(f"index {index} has no two-sided neighbors in 0..{n - 1}")
    ds = traj.s[index + 1] - traj.s[index - 1]
    force = (traj.p[index + 1] - traj.p[index - 1]) / ds
    fdotf = minkowski_dot(force, force)
    return {
        "force": force,
        "dm_ds": float(np.sqrt(abs(fdotf))),
        "classification": classify(force, tol_null=1e-12),
    }


class HessianReport:
    def __init__(self, hessian, det, ok):
        self.hessian = hessian
        self.det = float(det)
        self.ok = bool(ok)


def hessian_det_check(field, x, step=1e-4):
    """Spatial 3x3 Hessian of W at x and whether its determinant clears the
    degeneracy floor 1e-10 * max(1, |Hessian|)^3. Symmetric stencils on W
    when the field has values, else differenced one-forms symmetrized."""
    x = np.asarray(x, dtype=float)
    hess = np.empty((3, 3))
    if field.has_value():
        w0 = float(field.value(x))
        for i in range(3):
            hi = step * max(1.0, abs(x[1 + i]))
            xp, xm = x.copy(), x.copy()
            xp[1 + i] += hi
            xm[1 + i] -= hi
            hess[i, i] = (float(field.value(xp)) - 2 * w0 + float(field.value(xm))) / hi ** 2
            for j in range(i + 1, 3):
                hj = step * max(1.0, abs(x[1 + j]))
                vals = 0.0
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    xx = x.copy()
                    xx[1 + i] += si * hi
                    xx[1 + j] += sj * hj
                    vals += si * sj * float(field.value(xx))
                hess[i, j] = hess[j, i] = vals / (4 * hi * hj)
    else:
        raw = np.empty((3, 3))
        for j in range(3):
            hj = step * max(1.0, abs(x[1 + j]))
            xp, xm = x.copy(), x.copy()
            xp[1 + j] += hj
            xm[1 + j] -= hj
            raw[:, j] = (field.one_form(xp)[1:] - field.one_form(xm)[1:]) / (2 * hj)
        hess = 0.5 * (raw + raw.T)
    det = np.linalg.det(hess)
    scale = max(1.0, float(np.abs(hess).max()))
    return HessianReport(hess, det, abs(det) > 1e-10 * scale ** 3)


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


def covariant_integrate(metric, x0, p0_upper, s_max, step=1e-3, record_stride=1):
    """Geodesic flow in a chart: canonical variables (x^mu, p_mu) under
    K = (1/2) g^{mu nu} p_mu p_nu, integrated with RK4.

    dx = g^{-1} p and dp_mu = -(1/2) d_mu(g^{alpha beta}) p_alpha p_beta; the
    recorded residual is |dp^mu/ds + Gamma^mu_{nu lam} u^nu p^lam| per sample,
    which the exact flow sends to rounding.
    """
    n_steps = _step_count(s_max, step, record_stride)
    dim = metric.dim
    x = np.asarray(x0, dtype=float).copy()
    p_low = metric.matrix(x) @ np.asarray(p0_upper, dtype=float)

    def dginv_at(xs):
        ginv = np.linalg.inv(metric.matrix(xs))
        dg = _metric_partials(metric, xs)
        return ginv, np.array([-ginv @ dg[lam] @ ginv for lam in range(dim)])

    def rhs(xs, pl):
        ginv, dginv = dginv_at(xs)
        xdot = ginv @ pl
        pdot = -0.5 * np.array([pl @ dginv[mu] @ pl for mu in range(dim)])
        return xdot, pdot

    samples = []

    def record(i, xs, pl):
        ginv, dginv = dginv_at(xs)
        up = ginv @ pl
        k = 0.5 * float(pl @ ginv @ pl)
        xdot, pdot_low = rhs(xs, pl)
        dup = np.tensordot(dginv, xdot, axes=(0, 0)) @ pl + ginv @ pdot_low
        gamma = christoffel_at(metric, xs)
        resid = dup + np.einsum("mnl,n,l->m", gamma, xdot, up)
        samples.append((i * step, xs.copy(), up, k, float(np.abs(resid).max())))

    record(0, x, p_low)
    for i in range(1, n_steps + 1):
        k1x, k1p = rhs(x, p_low)
        k2x, k2p = rhs(x + 0.5 * step * k1x, p_low + 0.5 * step * k1p)
        k3x, k3p = rhs(x + 0.5 * step * k2x, p_low + 0.5 * step * k2p)
        k4x, k4p = rhs(x + step * k3x, p_low + step * k3p)
        x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        p_low = p_low + (step / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p_low))):
            raise StepRejected(f"non-finite state at step {i}")
        if i % record_stride == 0 or i == n_steps:
            record(i, x, p_low)

    s, xs, ups, ks, resids = zip(*samples)
    return CovariantTrajectory(s, np.asarray(xs), np.asarray(ups), ks, resids)
