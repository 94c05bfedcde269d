"""Flight-path optimization for the weighted secret/covert rate.

The air-side gains depend on the drone's horizontal position only through
the squared distances to the two ground users, so the slot rate becomes a
smooth function R(mu_ba, mu_ca) of those slacks. The slot model and its
partials in the log air gains come from `kernels`; here they are chained
to the slacks. Each refinement round
linearizes R at the current path (analytic partial derivatives), solves a
concave quadratic subproblem over the acceleration profile — discrete
kinematics, speed and acceleration caps as second-order cones, linearized
minimum-speed bound, endpoint pins — then blends the step until the true
objective does not decrease. The subproblem is solved by a self-contained
primal-dual interior-point method with Nesterov-Todd scaling and Mehrotra
predictor-corrector steps (Vandenberghe, "The CVXOPT linear and quadratic
cone program solvers", 2010; Domahidi, Chu & Boyd, "ECOS: An SOCP solver
for embedded systems", ECC 2013). It runs over the stacked per-slot states
(position, velocity, acceleration) with the kinematics as equality rows, so
its KKT system is banded and one iteration costs one O(N) band
factorization (the layout of Wang & Boyd, "Fast Model Predictive Control
Using Online Optimization", IEEE TCST 2010). The method starts from the
reference plan's own states, feasible or not: the kinematic, pin and cone
residuals ride in its right-hand side, and it stops only once the duality
gap is closed and the states fly the kinematics onto the landing pins.

Conventions: a plan holds N+1 nodes (0..N). Node 0 is the launch point,
node N the landing point; the drone communicates during slot n from node n
for n = 0..N-1. Accelerations are the controls, one per slot (stored at
nodes 1..N; node 0 carries a zero placeholder).
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import channel, kernels
from ._csvio import write_atomic_csv

__all__ = [
    "TrajectoryError", "TrajectoryPlan", "rebuild_from_accels",
    "initial_plan", "rate_of_mu", "trajectory_objective",
    "LinearizedObjective", "linearize", "solve_subproblem",
    "ScaResult", "sca_trajectory", "write_plan_csv",
]

_BOX_TOL = 1e-9


class TrajectoryError(ValueError):
    """A flight plan or subproblem is infeasible; the message says why."""


@dataclass(frozen=True)
class TrajectoryPlan:
    """Discrete flight plan: nodes 0..N with per-slot controls.

    The slack fields mirror the squared horizontal distances to the two
    ground users at every node; they are stored tight (equal to the actual
    squared distances of the plan's positions).
    """

    positions: np.ndarray       # (N+1, 2) m
    velocities: np.ndarray      # (N+1, 2) m/s
    accelerations: np.ndarray   # (N+1, 2) m/s^2; row 0 is zero
    mu_ba: np.ndarray           # (N+1,) m^2
    mu_ca: np.ndarray           # (N+1,) m^2

    def __post_init__(self):
        for nm in ("positions", "velocities", "accelerations", "mu_ba", "mu_ca"):
            arr = np.asarray(getattr(self, nm), dtype=float)
            object.__setattr__(self, nm, arr)
            arr.setflags(write=False)
        n = self.positions.shape[0]
        if self.positions.shape != (n, 2) or self.velocities.shape != (n, 2) \
                or self.accelerations.shape != (n, 2):
            raise TrajectoryError("plan arrays must all have shape (N+1, 2)")
        if self.mu_ba.shape != (n,) or self.mu_ca.shape != (n,):
            raise TrajectoryError("plan slacks must have shape (N+1,)")

    @property
    def n_slots(self):
        return self.positions.shape[0] - 1

    @property
    def comm_positions(self):
        """Positions the drone transmits-receives from (nodes 0..N-1)."""
        return self.positions[:-1]

    def speeds(self):
        return np.linalg.norm(self.velocities, axis=1)

    def accel_norms(self):
        return np.linalg.norm(self.accelerations, axis=1)

    def dynamics_residual(self, cfg):
        """Largest kinematic mismatch (m and m/s) across all slots."""
        p, v, a = self.positions, self.velocities, self.accelerations
        res = _kinematic_residual(p[1:], v[1:], a[1:], p[0], v[0],
                                  cfg.delta_t)
        return float(np.abs(res).max(initial=0.0))

    def check_feasible(self, cfg, tol=1e-6):
        """Raise TrajectoryError on any violated plan invariant."""
        sp = self.speeds()
        an = self.accel_norms()
        if np.linalg.norm(self.positions[0] - np.asarray(cfg.l_start)) > tol:
            raise TrajectoryError("plan does not start at l_start")
        if np.linalg.norm(self.positions[-1] - np.asarray(cfg.l_end)) > tol:
            raise TrajectoryError("plan does not end at l_end")
        if self.dynamics_residual(cfg) > tol:
            raise TrajectoryError("kinematics residual exceeds tolerance")
        if np.any(sp > cfg.v_max + tol) or np.any(sp < cfg.v_min - tol):
            raise TrajectoryError("speed leaves the [v_min, v_max] box")
        if np.any(an[1:] > cfg.a_max + tol):
            raise TrajectoryError("acceleration exceeds a_max")
        mu_b = channel.squared_horizontal_distance(self.positions, cfg.l_b)
        mu_c = channel.squared_horizontal_distance(self.positions, cfg.l_c)
        if np.any(self.mu_ba < mu_b - 1e-6) or np.any(self.mu_ca < mu_c - 1e-6):
            raise TrajectoryError("slack below the squared distance it relaxes")


def _kinematic_residual(p, v, a, l0, v0, dt):
    """Rollout minus nodes, (N, 4): the position then the velocity mismatch
    of the states (p, v, a) of nodes 1..N flown from node 0 at (l0, v0)."""
    p_prev = np.vstack([l0, p[:-1]])
    v_prev = np.vstack([v0, v[:-1]])
    return np.hstack([p_prev + dt * v_prev + 0.5 * dt * dt * a - p,
                      v_prev + dt * a - v])


def rebuild_from_accels(cfg, accels, v0, l0):
    """Exact kinematic rollout of per-slot accelerations (N, 2) flown from
    l0 at v0."""
    a = np.asarray(accels, dtype=float).reshape(-1, 2)
    dt = cfg.delta_t
    v = np.cumsum(np.vstack([v0, a * dt]), axis=0)
    p = np.cumsum(np.vstack([l0, v[:-1] * dt + 0.5 * a * dt * dt]), axis=0)
    acc = np.vstack([np.zeros(2), a])
    return TrajectoryPlan(
        positions=p, velocities=v, accelerations=acc,
        mu_ba=channel.squared_horizontal_distance(p, cfg.l_b),
        mu_ca=channel.squared_horizontal_distance(p, cfg.l_c))


def initial_plan(cfg):
    """Straight ferry line with a smooth speed profile.

    The profile interpolates v_start to the terminal speed and adds a
    parabolic bump solved in closed form against the discrete trapezoid sum
    so the landing point is hit exactly. Raises TrajectoryError naming the
    minimal horizon when the ferry distance is unreachable, and one naming
    the profile's peak speed and the failed `TrajectoryPlan.check_feasible`
    invariant when the rolled-out profile leaves the speed or acceleration
    box or misses l_end.
    """
    n = cfg.n_slots
    dt = cfg.delta_t
    dist = cfg.ferry_distance
    if dist > cfg.v_max * cfg.t_s * (1 + 1e-12):
        raise TrajectoryError(
            f"trajectory infeasible: ferry distance {dist:.6g} m exceeds "
            f"v_max*T; minimum horizon T = {dist / cfg.v_max:.6g} s")
    v_end = cfg.v_start if cfg.v_end is None else cfg.v_end
    start = np.asarray(cfg.l_start, dtype=float)
    end = np.asarray(cfg.l_end, dtype=float)
    d_hat = (end - start) / dist
    idx = np.arange(n + 1)
    s_lin = cfg.v_start + (v_end - cfg.v_start) * idx / n
    bump = idx * (n - idx)
    p_lin = dt * (0.5 * (s_lin[0] + s_lin[-1]) + s_lin[1:-1].sum())
    denom = dt * bump[1:-1].sum()
    beta = 0.0 if denom == 0 else (dist - p_lin) / denom
    s = s_lin + beta * bump
    acc = np.diff(s)[:, None] / dt * d_hat
    plan = rebuild_from_accels(cfg, acc, cfg.v_start * d_hat, start)
    try:
        plan.check_feasible(cfg, tol=_BOX_TOL)
    except TrajectoryError as exc:
        raise TrajectoryError(
            f"trajectory infeasible: the straight-line starting profile "
            f"(peak speed {s.max():.6g} m/s) fails: {exc}") from None
    return plan


# ---------------------------------------------------------------------------
# slot rate as a function of the slack distances

def _slot_model(mu_ba, mu_ca, q_c, cfg, h0, grad):
    """Slot rates at the slacks (`kernels.h1_slot`, or `kernels.h0_slot`
    with h0) and, with grad, their partials in the slacks."""
    gains = channel.gains_for_slacks(cfg, mu_ba, mu_ca)
    env = kernels.slot_env(cfg, gains)
    chain = None
    if grad:
        # the air gains go as (H^2 + mu)^(xi/2): d ln g / d mu = xi/(2(H^2 + mu))
        h2 = cfg.h_m ** 2
        chain = (cfg.xi_ba / (2.0 * (h2 + gains.mu_ba)),
                 cfg.xi_ca / (2.0 * (h2 + gains.mu_ca)))
    if h0:
        t = kernels.h0_slot(env.q_b_max, env,
                            chain=chain[0] if grad else None)
        return t.rate, t.d_ba, (np.zeros_like(t.rate) if grad else None)
    t = kernels.h1_slot(q_c, env, chain=chain)
    return t.rate, t.d_ba, t.d_ca


def rate_of_mu(mu_ba, mu_ca, q_c, cfg):
    """Weighted slot rate at slack distances (mu_ba, mu_ca) and power q_c.

    Broadcasts over array arguments; scalars in give a scalar out.
    """
    if np.any(np.asarray(mu_ba) < 0) or np.any(np.asarray(mu_ca) < 0):
        raise ValueError("slack distances must be >= 0")
    rate, _, _ = _slot_model(mu_ba, mu_ca, q_c, cfg, h0=False, grad=False)
    return rate if rate.ndim else float(rate)


def trajectory_objective(plan, q_c, cfg, h0=False):
    """Mean weighted rate over the plan's communication slots."""
    q = np.broadcast_to(np.asarray(q_c, dtype=float), (plan.n_slots,))
    rate, _, _ = _slot_model(plan.mu_ba[:-1], plan.mu_ca[:-1], q, cfg, h0,
                             grad=False)
    return float(np.mean(rate))


@dataclass(frozen=True)
class LinearizedObjective:
    """First-order model of the mean rate in the slack distances.

    value(mu) = const + mean over slots of [d_ba*(mu_ba - ref) +
    d_ca*(mu_ca - ref)]; the d arrays hold raw per-slot partial derivatives.
    """

    mu_ba_ref: np.ndarray
    mu_ca_ref: np.ndarray
    d_ba: np.ndarray
    d_ca: np.ndarray
    const: float

    def __post_init__(self):
        for nm in ("mu_ba_ref", "mu_ca_ref", "d_ba", "d_ca"):
            arr = np.asarray(getattr(self, nm), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"linearized objective has non-finite {nm}")
            object.__setattr__(self, nm, arr)
            arr.setflags(write=False)

    def value(self, mu_ba, mu_ca):
        return self.const + float(
            np.mean(self.d_ba * (np.asarray(mu_ba) - self.mu_ba_ref)
                    + self.d_ca * (np.asarray(mu_ca) - self.mu_ca_ref)))


def linearize(plan_ref, q_c, cfg, h0=False):
    """Analytic first-order model of the mean rate at a reference plan."""
    mu_b = plan_ref.mu_ba[:-1]
    mu_c = plan_ref.mu_ca[:-1]
    q = np.broadcast_to(np.asarray(q_c, dtype=float), (plan_ref.n_slots,))
    rate, d_ba, d_ca = _slot_model(mu_b, mu_c, q, cfg, h0, grad=True)
    return LinearizedObjective(mu_ba_ref=mu_b.copy(), mu_ca_ref=mu_c.copy(),
                               d_ba=d_ba, d_ca=d_ca,
                               const=float(np.mean(rate)))


# ---------------------------------------------------------------------------
# convex subproblem: concave quadratic objective over stacked per-slot states

def _kkt_band(n, n_pin, dt):
    """Band layout of the stacked-state KKT matrix.

    Node k = 1..N owns rows 10(k-1) + 0..3, the multipliers of its
    kinematic rows p_k = p_{k-1} + dt v_{k-1} + dt^2/2 a_k and
    v_k = v_{k-1} + dt a_k, then rows 10(k-1) + 4..9, its state
    (p_k, v_k, a_k); the n_pin rows pinning node N come last. Returns the
    half-bandwidth h, the band storage holding the equality entries in
    LAPACK's `dgbtrf` layout (entry (i, j) at row 2h + i - j; the top h
    rows are room for the factor's fill) and the (row, col) band indices
    of the three 2x2 Hessian blocks per node.
    """
    node = 10 * np.arange(n)
    rows, cols, vals = [], [], []

    def put(r, c, val):
        rows.append(r)
        cols.append(c)
        vals.append(np.full(np.shape(r), val))

    for d in (0, 1):
        rp, rv = node + d, node + 2 + d
        put(rp, node + 4 + d, 1.0)
        put(rp, node + 8 + d, -0.5 * dt * dt)
        put(rp[1:], node[:-1] + 4 + d, -1.0)
        put(rp[1:], node[:-1] + 6 + d, -dt)
        put(rv, node + 6 + d, 1.0)
        put(rv, node + 8 + d, -dt)
        put(rv[1:], node[:-1] + 6 + d, -1.0)
        for pin in range(d, n_pin, 2):    # landing position, then speed
            put(np.array([10 * n + pin]),
                np.array([10 * (n - 1) + 4 + 2 * (pin // 2) + d]), 1.0)
    r, c, val = (np.concatenate(x) for x in (rows, cols, vals))
    half = int(np.max(np.abs(r - c)))
    band = np.zeros((3 * half + 1, 10 * n + n_pin))
    band[2 * half + r - c, c] = val
    band[2 * half + c - r, r] = val
    d1 = np.array([[0, 0], [1, 1]])
    h_rows = 2 * half + d1 - d1.T
    h_cols = node[:, None, None, None] + 4 + 2 * np.arange(3)[:, None, None] \
        + d1.T
    return half, band, (np.broadcast_to(h_rows, h_cols.shape), h_cols)


# second-order cone algebra on rows u = (u0, u1) of (m, 3) arrays, for the
# cones {u0 >= |u1|}: Jordan product u o v = (u.v, u0 v1 + v0 u1), identity
# e = (1, 0, 0)

def _soc_det(u):
    """u0^2 - |u1|^2, factored to keep its digits near the boundary."""
    r = np.sqrt(np.sum(u[:, 1:] ** 2, axis=1))
    return (u[:, 0] - r) * (u[:, 0] + r)


def _soc_mul(u, v):
    out = u[:, :1] * v + v[:, :1] * u
    out[:, 0] = np.sum(u * v, axis=1)
    return out


def _soc_div(lam, v):
    """The u with lam o u = v."""
    u0 = (lam[:, 0] * v[:, 0] - np.sum(lam[:, 1:] * v[:, 1:], axis=1)) \
        / _soc_det(lam)
    return np.column_stack([u0, (v[:, 1:] - u0[:, None] * lam[:, 1:])
                            / lam[:, :1]])


def _apply(mat, u):
    """Row-wise products of (m, 3, 3) matrices and (m, 3) vectors."""
    return np.einsum("kij,kj->ki", mat, u)


def _nt_scaling(s, z):
    """Nesterov-Todd scaling of interior pairs (s, z): the matrices W and
    W^-1 with W z = W^-1 s, and the lower right 2x2 block of W^-2.
    W = eta [[w0, w1'], [w1, I + w1 w1'/(1 + w0)]] with w0^2 - |w1|^2 = 1,
    W^-1 = J W J / eta^2 with J = diag(1, -1, -1), and the block of W^-2 is
    (I + 2 w1 w1') / eta^2."""
    s_norm = np.sqrt(_soc_det(s))
    z_norm = np.sqrt(_soc_det(z))
    s_bar = s / s_norm[:, None]
    z_bar = z / z_norm[:, None]
    gamma = np.sqrt(0.5 * (1.0 + np.sum(s_bar * z_bar, axis=1)))
    w = s_bar - z_bar
    w[:, 0] = s_bar[:, 0] + z_bar[:, 0]
    w /= 2.0 * gamma[:, None]
    w1 = w[:, 1:]
    mat = np.empty((len(w), 3, 3))
    mat[:, 0] = w
    mat[:, 1:, 0] = w1
    mat[:, 1:, 1:] = np.eye(2) + w1[:, :, None] * w1[:, None, :] \
        / (1.0 + w[:, 0])[:, None, None]
    eta = np.sqrt(s_norm / z_norm)[:, None, None]
    w_mat = eta * mat
    mat[:, 0, 1:] *= -1.0
    mat[:, 1:, 0] *= -1.0
    block = (np.eye(2) + 2.0 * w1[:, :, None] * w1[:, None, :]) / eta ** 2
    return w_mat, mat / eta, block


def _soc_step(u, du):
    """Largest t with u + t du in the cone, for interior rows u: the first
    positive root of (u0 + t du0)^2 - |u1 + t du1|^2, or inf."""
    qa = du[:, 0] ** 2 - np.sum(du[:, 1:] ** 2, axis=1)
    qb = 2.0 * (u[:, 0] * du[:, 0] - np.sum(u[:, 1:] * du[:, 1:], axis=1))
    qc = _soc_det(u)
    disc = qb * qb - 4.0 * qa * qc
    real = disc >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
        roots = np.concatenate([(q / qa)[real], (qc / q)[real]])
    return float(np.min(roots[roots > 0], initial=np.inf))


def _ray_step(u, du):
    """Largest t with u + t du >= 0, for positive u."""
    neg = du < 0
    return float(np.min(-u[neg] / du[neg], initial=np.inf))


# iteration cap of the interior-point method, about three times the most
# any subproblem of the bundled scenarios, the benchmark workloads or a
# 1000-slot horizon has needed (21)
_IP_MAX_ITERS = 60


def solve_subproblem(lin, plan_ref, cfg):
    """Maximize the linearized mean rate over feasible acceleration profiles.

    Slacks are eliminated by sign: slots whose rate improves when the slack
    shrinks (negative derivative) contribute their exact concave quadratic
    d*||L - L_user||^2; slots with positive derivative contribute the affine
    minorant of that quadratic anchored at the reference positions, which
    keeps the program concave while preserving the fixed-point condition.
    Constraints: discrete kinematics, endpoint pin, terminal-speed pin
    (direction taken from the reference plan), the speed cap and the
    acceleration cap as second-order cones (v_max, v_k) and (a_max, a_k),
    and the minimum-speed bound linearized at the reference velocities as a
    nonnegative slack.

    Solved by a primal-dual interior-point method with Nesterov-Todd
    scaling and Mehrotra predictor-corrector steps, the cone method of
    Vandenberghe, "The CVXOPT linear and quadratic cone program solvers"
    (2010) and Domahidi, Chu & Boyd, "ECOS: An SOCP solver for embedded
    systems" (ECC 2013). It runs over the stacked per-slot states
    (p_k, v_k, a_k) with the kinematics as equality rows, so the KKT matrix
    is banded: each iteration factors it once in O(N) and reuses the factor
    for the predictor and the corrector solve. The primal start is the
    reference plan's own states and the slacks start a tenth inside the
    cones; the kinematic, pin and cone residuals ride in the right-hand
    side, so the start need be neither feasible nor interior. Converged
    once the duality gap is <= 1e-7 relative, the cone residuals are
    closed and the kinematic and pin residuals are <= 1e-9 (m, m/s).
    Raises TrajectoryError when the iteration cap is reached. The returned
    plan is the exact rollout of the solution's accelerations.
    """
    # imported here, so that only planning runs pay for scipy.linalg
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    n = plan_ref.n_slots
    dt = cfg.delta_t
    l0 = plan_ref.positions[0]
    v0 = plan_ref.velocities[0]
    l_end = np.asarray(cfg.l_end, dtype=float)
    base_l = l0 + np.arange(1, n + 1)[:, None] * dt * v0

    pin_speed = cfg.v_end is not None
    vr = plan_ref.velocities[1:]                     # (N, 2) reference speeds
    if pin_speed:
        d_term = vr[-1] / np.linalg.norm(vr[-1])
        v_target = cfg.v_end * d_term

    # objective: node k = 1..N-1 carries slot k's two ground terms, weight d/N;
    # negative weights keep the exact quadratic, positive ones the affine
    # minorant with slope 2w(Lr - P) at the reference positions
    points = np.array([cfg.l_b, cfg.l_c], dtype=float)
    w = np.zeros((2, n))
    w[0, :-1] = lin.d_ba[1:] / n
    w[1, :-1] = lin.d_ca[1:] / n
    w_neg = np.minimum(w, 0.0)
    w_pos = np.maximum(w, 0.0)
    ref_l = plan_ref.positions[1:]
    slope = 2.0 * (w_pos[0, :, None] * (ref_l - points[0])
                   + w_pos[1, :, None] * (ref_l - points[1]))
    hess_p = 2.0 * (w_neg[0] + w_neg[1])             # f's curvature on p_k

    def f_obj(p):
        return float(np.sum(slope * (p - base_l))
                     + w_neg[0] @ np.sum((p - points[0]) ** 2, axis=1)
                     + w_neg[1] @ np.sum((p - points[1]) ** 2, axis=1))

    def grad_f(p):
        return slope + 2.0 * (w_neg[0, :, None] * (p - points[0])
                              + w_neg[1, :, None] * (p - points[1]))

    # primal start: the reference plan's states, feasible or not
    state = np.hstack([plan_ref.positions[1:], plan_ref.velocities[1:],
                       plan_ref.accelerations[1:]])  # (N, 6): p, v, a
    # the terminal node skips the speed cone when its speed is pinned
    box = n - 1 if pin_speed else n
    vr_box = vr[:box]
    vr_sq = np.sum(vr_box ** 2, axis=1)

    # the cone rows s = h - G x over the states x: second-order rows
    # 0..box-1 are (v_max, v_k), rows box.. are (a_max, a_k); the slack rows
    # are 2 vr.v_k - |vr|^2 - v_min^2, with cone multipliers z
    h_soc = np.zeros((box + n, 3))
    h_soc[:box, 0] = cfg.v_max
    h_soc[box:, 0] = cfg.a_max
    h_lin = -vr_sq - cfg.v_min ** 2

    def lift(st):
        """-G st: the states' image on the cone rows."""
        soc = np.zeros((box + n, 3))
        soc[:box, 1:] = st[:box, 2:4]
        soc[box:, 1:] = st[:, 4:]
        return soc, 2.0 * np.sum(vr_box * st[:box, 2:4], axis=1)

    def lift_t(soc, lin_rows):
        """-G^T of cone-row values, as (N, 6) state rows."""
        out = np.zeros((n, 6))
        out[:box, 2:4] = soc[:box, 1:] + 2.0 * vr_box * lin_rows[:, None]
        out[:, 4:] = soc[box:, 1:]
        return out

    n_pin = 4 if pin_speed else 2
    half, band0, h_index = _kkt_band(n, n_pin, dt)
    dim = 10 * n + n_pin
    scale_pad = np.ones(dim + 2 * half)
    # band entry (k, j) below the fill rows sits in matrix row j + k - half:
    # its row's scale
    row_scale = sliding_window_view(scale_pad, dim)

    def factor(hess):
        band = band0.copy()
        band[h_index] = hess
        # symmetric scaling by the Hessian diagonal keeps the kinematic and
        # pin rows exact to roundoff once the cone curvature grows large
        scale = 1.0 / np.sqrt(np.maximum(np.abs(band[2 * half]), 1.0))
        scale_pad[half:half + dim] = scale
        band[half:] *= scale * row_scale
        lu, piv, info = dgbtrf(band, half, half, overwrite_ab=True)
        return (lu, piv, scale) if info == 0 else None

    rhs = np.empty(dim)
    rhs_nodes = rhs[:10 * n].reshape(n, 10)
    pin_rhs = rhs[10 * n:]
    eye = np.eye(2)

    # the slacks start a tenth of their offset h inside the cones: the
    # states may start on a cap the reference plan touches, and the cone
    # residual this opens closes with every step
    s_soc, s_lin = lift(state)
    s_soc += h_soc
    s_lin += h_lin
    s_soc[:, 0] = np.maximum(s_soc[:, 0], np.sqrt(np.sum(s_soc[:, 1:] ** 2,
                                                         axis=1))
                             + 0.1 * h_soc[:, 0])
    s_lin = np.maximum(s_lin, -0.1 * h_lin)
    # dual start on the central path, z = mu0 s^-1, with the initial gap
    # m mu0 = max(1, |f0|) / 10 capped at m
    m_cone = 2 * box + n
    mu0 = min(1.0, 0.1 * max(1.0, abs(f_obj(state[:, :2]))) / m_cone)
    z_soc = mu0 * s_soc / _soc_det(s_soc)[:, None]
    z_soc[:, 1:] *= -1.0
    z_lin = mu0 / s_lin

    for it in range(_IP_MAX_ITERS + 1):
        p, v, a = state[:, :2], state[:, 2:4], state[:, 4:]
        # the kinematic and pin residuals ride along in the right-hand side
        # (infeasible-start Newton), so solve errors cannot accumulate into
        # a missed landing point; the cone rows carry theirs likewise
        rhs_nodes[:, :4] = _kinematic_residual(p, v, a, l0, v0, dt)
        pin_rhs[:2] = l_end - p[-1]
        if pin_speed:
            pin_rhs[2:] = v_target - v[-1]
        g_soc, g_lin = lift(state)
        r_soc = s_soc - h_soc - g_soc
        r_lin = s_lin - h_lin - g_lin
        gap = float(np.sum(s_soc * z_soc) + s_lin @ z_lin)
        # converged once the gap is closed, the cone rows hold, and the
        # states fly the kinematics and land on the pins (m, m/s)
        if gap <= 1e-7 * max(1.0, abs(f_obj(p))) \
                and np.all(np.abs(r_soc) <= 1e-12 * h_soc[:, :1]) \
                and np.all(np.abs(r_lin) <= -1e-12 * h_lin) \
                and np.all(np.abs(rhs_nodes[:, :4]) <= 1e-9) \
                and np.all(np.abs(pin_rhs) <= 1e-9):
            break
        if it == _IP_MAX_ITERS:
            raise TrajectoryError(
                f"subproblem stopped at its iteration cap: {it} "
                f"interior-point iterations left a duality gap of {gap:.3g}")

        w_mat, w_inv, block = _nt_scaling(s_soc, z_soc)
        lam_soc = _apply(w_mat, z_soc)
        d_lin = z_lin / s_lin                        # W^-2 on the slack rows

        def w_inv2(u):
            # W^-1 twice: the product matrix W^-2 loses the digits of
            # vectors that W^-1 shrinks once the cones get thin
            return _apply(w_inv, _apply(w_inv, u))

        # H = P + G^T W^-2 G: the scaled cone term (I + 2 w1 w1')/eta^2 on
        # each v and a block, the slack's 4 (z/s) vr vr' on v
        hess = np.zeros((n, 3, 2, 2))
        hess[:, 0] = (-hess_p)[:, None, None] * eye
        hess[:box, 1] = block[:box] + 4.0 * d_lin[:, None, None] \
            * vr_box[:, :, None] * vr_box[:, None, :]
        hess[:, 2] = block[box:]
        lu = factor(hess)
        if lu is None:
            diag = hess[:, :, [0, 1], [0, 1]]
            hess[:, :, [0, 1], [0, 1]] += 1e-10 * diag.sum() / (6 * n)
            lu = factor(hess)
            if lu is None:
                raise np.linalg.LinAlgError(
                    "singular KKT matrix in the trajectory subproblem")
        lu, piv, scale = lu

        grad = grad_f(p)

        def direction(t_soc, t_lin):
            """Newton step (dx, ds_soc, ds_lin, dz_soc, dz_lin) whose cone
            rows read G dx - W^T W dz = q = -r - t. The equality
            multipliers are solved for whole, not as a step, so the method
            needs no iterate of them."""
            q_soc, q_lin = -r_soc - t_soc, -r_lin - t_lin
            rhs_nodes[:, 4:] = lift_t(z_soc - w_inv2(q_soc),
                                      z_lin - d_lin * q_lin)
            rhs_nodes[:, 4:6] += grad
            sol = scale * dgbtrs(lu, half, half, scale * rhs, piv)[0]
            dx = sol[:10 * n].reshape(n, 10)[:, 4:]
            g_soc, g_lin = lift(dx)
            return (dx, g_soc - r_soc, g_lin - r_lin,
                    w_inv2(-g_soc - q_soc), d_lin * (-g_lin - q_lin))

        sz_soc = np.concatenate([s_soc, z_soc])
        sz_lin = np.concatenate([s_lin, z_lin])

        def max_step(d):
            return min(_soc_step(sz_soc, np.concatenate([d[1], d[3]])),
                       _ray_step(sz_lin, np.concatenate([d[2], d[4]])))

        # predictor: the affine-scaling direction (t = -s); its reach sets
        # the centring weight sigma
        aff = direction(-s_soc, -s_lin)
        sigma = (1.0 - min(1.0, max_step(aff))) ** 3
        mu = gap / m_cone
        # corrector: t = W^T (lam \ (lam o lam + W^-T ds_aff o W dz_aff
        # - sigma mu e)), the slack rows likewise
        cor_soc = _soc_mul(lam_soc, lam_soc) + _soc_mul(
            _apply(w_inv, aff[1]), _apply(w_mat, aff[3]))
        cor_soc[:, 0] -= sigma * mu
        cor_lin = s_lin * z_lin + aff[2] * aff[4] - sigma * mu
        d = direction(-_apply(w_mat, _soc_div(lam_soc, cor_soc)),
                      -cor_lin / z_lin)
        step = min(1.0, 0.99 * max_step(d))
        state, s_soc, s_lin, z_soc, z_lin = (
            u + step * du for u, du in
            zip((state, s_soc, s_lin, z_soc, z_lin), d))

    return rebuild_from_accels(cfg, state[:, 4:], v0, l0)


# ---------------------------------------------------------------------------
# successive refinement loop

@dataclass(frozen=True)
class ScaResult:
    """Refined plan plus the accepted true-objective trace."""

    plan: TrajectoryPlan
    objectives: list
    converged: bool
    iterations: int


def sca_trajectory(plan0, q_c, cfg, h0=False, tol=None, max_iters=60):
    """Iteratively linearize and re-solve until the mean rate stalls.

    Each accepted step blends the subproblem's acceleration profile toward
    the current plan until the true objective does not decrease (halving
    blend weights), so the recorded objective trace is nondecreasing. A
    blend is accepted only if it passes `TrajectoryPlan.check_feasible` at
    tolerance 1e-9, so every plan it accepts flies the kinematics from
    l_start onto l_end inside the speed and acceleration boxes.
    """
    if tol is None:
        tol = cfg.bcd_tol
    q = np.broadcast_to(np.asarray(q_c, dtype=float), (plan0.n_slots,))
    ref = plan0
    obj = trajectory_objective(ref, q, cfg, h0=h0)
    trace = [obj]
    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        lin = linearize(ref, q, cfg, h0=h0)
        cand = solve_subproblem(lin, ref, cfg)
        accepted = None
        for alpha in 2.0 ** -np.arange(9):
            acc = ((1 - alpha) * ref.accelerations[1:]
                   + alpha * cand.accelerations[1:])
            blend = rebuild_from_accels(cfg, acc, ref.velocities[0],
                                        ref.positions[0])
            try:
                blend.check_feasible(cfg, tol=_BOX_TOL)
            except TrajectoryError:
                continue
            val = trajectory_objective(blend, q, cfg, h0=h0)
            if val >= obj:
                accepted = (blend, val)
                break
        if accepted is None:
            converged = True
            break
        ref, new_obj = accepted
        trace.append(new_obj)
        if new_obj - obj < tol:
            obj = new_obj
            converged = True
            break
        obj = new_obj
    return ScaResult(plan=ref, objectives=trace, converged=converged,
                     iterations=iterations)


_PLAN_COLUMNS = ("slot", "x", "y", "speed", "accel")


def write_plan_csv(path, plan):
    """One row per plan node: position, speed, acceleration magnitude."""
    sp = plan.speeds()
    an = plan.accel_norms()
    write_atomic_csv(path, _PLAN_COLUMNS, [
        [k, plan.positions[k, 0], plan.positions[k, 1], sp[k], an[k]]
        for k in range(plan.positions.shape[0])])
