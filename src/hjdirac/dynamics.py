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
from ._util import central_difference, config_kind, positive_int, write_csv, write_json
from .errors import NonSeparable, StepRejected, UsageError
from .hamilton_jacobi import projectile_field

__all__ = [
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

    def dh_dx(self, x, p):
        x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
        if self._dh_dx is not None:
            return np.asarray(self._dh_dx(x, p), dtype=float)
        return central_difference(lambda y: self._h(y, p), x, PARTIAL_FD_SCALE)

    def dh_dp(self, x, p):
        x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
        if self._dh_dp is not None:
            return np.asarray(self._dh_dp(x, p), dtype=float)
        return central_difference(lambda y: self._h(x, y), p, PARTIAL_FD_SCALE)


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


def rk4_step(rhs, state, step):
    """One classical RK4 step of d(state)/ds = rhs(*state), where state and
    rhs's value are matching lists of arrays; returns the new state list."""
    half, sixth = 0.5 * step, step / 6.0
    k1 = rhs(*state)
    k2 = rhs(*[y + half * k for y, k in zip(state, k1)])
    k3 = rhs(*[y + half * k for y, k in zip(state, k2)])
    k4 = rhs(*[y + step * k for y, k in zip(state, k3)])
    return [y + sixth * (a + 2 * b + 2 * c + d)
            for y, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _drive(state, advance, s_max, step, record_stride, record, guard=None):
    """The fixed-step loop of every integrator over [0, s_max].

    state is a list of arrays that advance(state) maps one step on;
    record(i, *state) sees step 0, every record_stride-th step and the last.
    Raises StepRejected when the state goes non-finite or guard(*state)
    returns a message, and UsageError for a bad step, an s_max off the step
    grid, or a record_stride that is not an int >= 1.
    """
    if step <= 0:
        raise UsageError("step must be positive")
    positive_int(record_stride, "record_stride")
    n_steps = int(round(s_max / step))
    if n_steps < 1 or abs(n_steps * step - s_max) > 1e-9 * max(1.0, abs(s_max)):
        raise UsageError("s_max must be a positive multiple of step")
    msg = guard and guard(*state)
    if msg:
        raise StepRejected(f"initial state: {msg}")
    record(0, *state)
    # overflow here is a detected condition (StepRejected), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            state = advance(state)
            if not all(np.isfinite(y).all() for y in state):
                raise StepRejected(f"non-finite state at step {i}")
            msg = guard and guard(*state)
            if msg:
                raise StepRejected(f"step {i}: {msg}")
            if i % record_stride == 0 or i == n_steps:
                record(i, *state)


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
    if method not in ("rk4", "leapfrog"):
        raise UsageError(f"unknown method {method!r}")
    if method == "leapfrog" and not model.separable:
        raise NonSeparable(f"model {model.name!r} has no T(p) + V(x) split")
    rhs = _rhs_for(model, canonical)

    def advance(state):
        if method == "rk4":
            return rk4_step(rhs, state, step)
        x, p = state
        p = p - 0.5 * step * ETA_DIAG * model.dh_dx(x, p)
        x = x + step * ETA_DIAG * model.dh_dp(x, p)
        p = p - 0.5 * step * ETA_DIAG * model.dh_dx(x, p)
        return [x, p]

    samples = []

    def record(i, xs, ps):
        xdot, pdot = rhs(xs, ps)
        fdotf = minkowski_dot(pdot, pdot)
        raw, norm = operator_commutator(ps, pdot)
        samples.append((i * step, xs.copy(), ps.copy(),
                        model.hamiltonian(xs, ps), np.sqrt(abs(fdotf)), norm))

    _drive([np.asarray(x0, dtype=float).copy(), np.asarray(p0, dtype=float).copy()],
           advance, s_max, step, record_stride, record, model.guard)
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
        # d[j, i] = d_j w_i over the spatial axes, time held at x[0]
        d = central_difference(lambda y: field.one_form(np.r_[x[0], y])[1:], x[1:], step)
        hess = 0.5 * (d + d.T)
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
    dim = metric.dim
    x = np.asarray(x0, dtype=float).copy()
    p_low = metric.matrix(x) @ np.asarray(p0_upper, dtype=float)

    def dginv_at(xs):
        ginv = np.linalg.inv(metric.matrix(xs))
        dg = _metric_partials(metric, xs)
        return ginv, np.array([-ginv @ dg[lam] @ ginv for lam in range(dim)])

    def flow(ginv, dginv, pl):
        """(dx/ds, dp_mu/ds); dx/ds = g^{-1} p is also p^mu."""
        return ginv @ pl, -0.5 * np.array([pl @ dginv[mu] @ pl for mu in range(dim)])

    def rhs(xs, pl):
        return flow(*dginv_at(xs), pl)

    samples = []

    def record(i, xs, pl):
        ginv, dginv = dginv_at(xs)
        up, pdot_low = flow(ginv, dginv, pl)
        k = 0.5 * float(pl @ ginv @ pl)
        dup = np.tensordot(dginv, up, axes=(0, 0)) @ pl + ginv @ pdot_low
        gamma = christoffel_at(metric, xs)  # the residual's independent route
        resid = dup + np.einsum("mnl,n,l->m", gamma, up, up)
        samples.append((i * step, xs.copy(), up, k, float(np.abs(resid).max())))

    _drive([x, p_low], lambda state: rk4_step(rhs, state, step),
           s_max, step, record_stride, record)

    s, xs, ups, ks, resids = zip(*samples)
    return CovariantTrajectory(s, np.asarray(xs), np.asarray(ups), ks, resids)
