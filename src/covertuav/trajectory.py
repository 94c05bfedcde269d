"""Flight-path optimization for the weighted secret/covert rate.

The air-side gains depend on the drone's horizontal position only through
the squared distances to the two ground users, so the slot rate becomes a
smooth function R(mu_ba, mu_ca) of those slacks. The slot model and its
partials in the log air gains come from `kernels`; here they are chained
to the slacks. Each refinement round
linearizes R at the current path (analytic partial derivatives), solves a
concave quadratic subproblem over the acceleration profile — discrete
kinematics, speed box, linearized minimum-speed bound, endpoint pins — with
a self-contained log-barrier Newton method, then blends the step until the
true objective does not decrease. The Newton method runs over the stacked
per-slot states (position, velocity, acceleration) with the kinematics as
equality rows, so its KKT system is banded and each step costs O(N)
(the interior-point layout of Wang & Boyd, "Fast Model Predictive Control
Using Online Optimization", IEEE TCST 2010).

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
        dt = cfg.delta_t
        p, v, a = self.positions, self.velocities, self.accelerations
        rp = p[1:] - (p[:-1] + v[:-1] * dt + 0.5 * a[1:] * dt * dt)
        rv = v[1:] - (v[:-1] + a[1:] * dt)
        return float(max(np.abs(rp).max(initial=0.0), np.abs(rv).max(initial=0.0)))

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


def _rollout(accels, v0, l0, dt):
    """Positions and velocities at nodes 0..N of per-slot accelerations
    (N, 2) flown from l0 at v0."""
    v = np.cumsum(np.vstack([v0, accels * dt]), axis=0)
    p = np.cumsum(np.vstack([l0, v[:-1] * dt + 0.5 * accels * dt * dt]),
                  axis=0)
    return p, v


def rebuild_from_accels(cfg, accels, v0, l0):
    """Exact kinematic rollout of per-slot accelerations (N, 2)."""
    a = np.asarray(accels, dtype=float).reshape(-1, 2)
    p, v = _rollout(a, v0, l0, cfg.delta_t)
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
    minimal horizon when the ferry distance is unreachable.
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
    if np.any(s > cfg.v_max + 1e-9) or np.any(s < cfg.v_min - 1e-9):
        raise TrajectoryError(
            f"trajectory infeasible: straight-line speed profile leaves "
            f"[v_min, v_max]; minimum horizon T = {dist / cfg.v_max:.6g} s")
    acc = np.diff(s)[:, None] / dt * d_hat
    if np.any(np.linalg.norm(acc, axis=1) > cfg.a_max + 1e-9):
        raise TrajectoryError(
            "trajectory infeasible: straight-line profile needs more than "
            "a_max acceleration")
    plan = rebuild_from_accels(cfg, acc, cfg.v_start * d_hat, start)
    if np.linalg.norm(plan.positions[-1] - end) > 1e-6:
        raise TrajectoryError("straight-line profile failed to land on l_end")
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

def _equality_restore(x, a_mat, b_vec):
    """Minimal-norm correction putting x back on the equality manifold."""
    at = a_mat.T
    gram = a_mat @ at
    return x + at @ np.linalg.solve(gram, b_vec - a_mat @ x)


def _strictly_feasible_start(x0, a_mat, b_vec, g_fn):
    """Equality-correct x0, blended toward the min-norm anchor until the
    inequality margins are strictly positive."""
    x = _equality_restore(x0, a_mat, b_vec)
    if np.min(g_fn(x)) > 0:
        return x
    anchor = a_mat.T @ np.linalg.solve(a_mat @ a_mat.T, b_vec)
    for tau in np.linspace(0.05, 1.0, 20):
        cand = (1 - tau) * x + tau * anchor
        if np.min(g_fn(cand)) > 0:
            return cand
    raise TrajectoryError(
        "subproblem initialization infeasible: no strictly interior start")


def _kkt_band(n, n_pin, dt):
    """Band layout of the stacked-state KKT matrix.

    Node k = 1..N owns rows 10(k-1) + 0..3, the multipliers of its
    kinematic rows p_k = p_{k-1} + dt v_{k-1} + dt^2/2 a_k and
    v_k = v_{k-1} + dt a_k, then rows 10(k-1) + 4..9, its state
    (p_k, v_k, a_k); the n_pin rows pinning node N come last. Returns the
    half-bandwidth, the band storage holding the equality entries and the
    (row, col) band indices of the three 2x2 Hessian blocks per node.
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
    band = np.zeros((2 * half + 1, 10 * n + n_pin))
    band[half + r - c, c] = val
    band[half + c - r, r] = val
    d1 = np.array([[0, 0], [1, 1]])
    h_rows = half + d1 - d1.T
    h_cols = node[:, None, None, None] + 4 + 2 * np.arange(3)[:, None, None] \
        + d1.T
    return half, band, (np.broadcast_to(h_rows, h_cols.shape), h_cols)


def solve_subproblem(lin, plan_ref, cfg):
    """Maximize the linearized mean rate over feasible acceleration profiles.

    Slacks are eliminated by sign: slots whose rate improves when the slack
    shrinks (negative derivative) contribute their exact concave quadratic
    d*||L - L_user||^2; slots with positive derivative contribute the affine
    minorant of that quadratic anchored at the reference positions, which
    keeps the program concave while preserving the fixed-point condition.
    Constraints: discrete kinematics, endpoint pin, terminal-speed pin
    (direction taken from the reference plan), speed box with the
    minimum-speed bound linearized at the reference velocities, and the
    acceleration cap. Solved by a log-barrier Newton method (relative gap
    <= 1e-7) over the stacked per-slot states (p_k, v_k, a_k), with the
    kinematics as equality rows; the KKT system is then banded and each
    Newton step costs O(N). The returned plan is the exact rollout of the
    solution's accelerations.
    """
    from scipy.linalg import solve_banded   # only planning runs pay its import

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

    # inequality margins; terminal node skips the speed box when pinned
    box = n - 1 if pin_speed else n
    vr_box = vr[:box]
    vr_sq = np.sum(vr_box ** 2, axis=1)

    def g_margins(v, a):
        vb = v[:box]
        return np.concatenate([
            cfg.v_max ** 2 - np.sum(vb ** 2, axis=1),
            2.0 * np.sum(vr_box * vb, axis=1) - vr_sq - cfg.v_min ** 2,
            cfg.a_max ** 2 - np.sum(a ** 2, axis=1)])

    # the pins on the acceleration vector x = (a_x, a_y): the last rows of
    # the kinematic maps, p_N = L0 + N dt v0 + sum_k dt^2 (N - k + 1/2) a_k
    # and v_N = v0 + sum_k dt a_k
    k = np.arange(1, n + 1)
    pin_rows = [dt * dt * (n - k + 0.5)] + ([np.full(n, dt)] if pin_speed
                                            else [])
    zero = np.zeros(n)
    a_mat = np.vstack([np.concatenate(pair) for row in pin_rows
                       for pair in ((row, zero), (zero, row))])
    b_vec = np.concatenate([l_end - base_l[-1]]
                           + ([v_target - v0] if pin_speed else []))

    def accels_of(x):
        return x.reshape(2, n).T

    def g_of_accels(x):
        a = accels_of(x)
        return g_margins(_rollout(a, v0, l0, dt)[1][1:], a)

    x = _strictly_feasible_start(plan_ref.accelerations[1:].T.ravel(),
                                 a_mat, b_vec, g_of_accels)
    a = accels_of(x)
    p, v = _rollout(a, v0, l0, dt)
    z = np.hstack([p[1:], v[1:], a])                 # (N, 6): p, v, a

    n_pin = a_mat.shape[0]
    half, band0, h_index = _kkt_band(n, n_pin, dt)
    dim = 10 * n + n_pin
    scale_pad = np.ones(dim + 2 * half)
    # band entry (k, j) sits in matrix row j + k - half: its row's scale
    row_scale = sliding_window_view(scale_pad, dim)

    def newton_solve(hess, rhs):
        band = band0.copy()
        band[h_index] = hess
        # symmetric scaling by the Hessian diagonal keeps the kinematic and
        # pin rows exact to roundoff once the barrier curvature reaches 1e12
        scale = 1.0 / np.sqrt(np.maximum(np.abs(band[half]), 1.0))
        scale_pad[half:half + dim] = scale
        band *= scale * row_scale
        return scale * solve_banded((half, half), band, scale * rhs,
                                    overwrite_ab=True, check_finite=False)

    rhs = np.empty(dim)
    rhs_nodes = rhs[:10 * n].reshape(n, 10)
    eye = np.eye(2)

    m_ineq = 2 * box + n
    f0 = f_obj(z[:, :2])
    t = max(1.0, m_ineq / (0.1 * max(1.0, abs(f0))))

    for _ in range(64):
        for _ in range(60):
            p, v, a = z[:, :2], z[:, 2:4], z[:, 4:]
            g = g_margins(v, a)
            inv_vmax = 1.0 / g[:box, None]
            inv_vmin = 1.0 / g[box:2 * box, None]
            inv_amax = 1.0 / g[2 * box:, None]
            grad = np.zeros((n, 6))
            hess = np.zeros((n, 3, 2, 2))            # p, v, a blocks per node
            grad[:, :2] = -t * grad_f(p)
            grad[:box, 2:4] = (2.0 * v[:box] * inv_vmax
                               - 2.0 * vr_box * inv_vmin)
            grad[:, 4:] = 2.0 * a * inv_amax
            hess[:, 0] = (-t * hess_p)[:, None, None] * eye
            hess[:box, 1] = (4.0 * (v[:box, :, None] * v[:box, None, :])
                             * inv_vmax[:, :, None] ** 2
                             + 2.0 * inv_vmax[:, :, None] * eye
                             + 4.0 * (vr_box[:, :, None] * vr_box[:, None, :])
                             * inv_vmin[:, :, None] ** 2)
            hess[:, 2] = (4.0 * (a[:, :, None] * a[:, None, :])
                          * inv_amax[:, :, None] ** 2
                          + 2.0 * inv_amax[:, :, None] * eye)

            rhs_nodes[:, 4:] = -grad
            # the kinematic and pin residuals ride along (infeasible-start
            # Newton), so solve errors of the ill-conditioned late barrier
            # stages cannot accumulate into a missed landing point
            p_prev = np.vstack([l0, p[:-1]])
            v_prev = np.vstack([v0, v[:-1]])
            rhs_nodes[:, :2] = p_prev + dt * v_prev + 0.5 * dt * dt * a - p
            rhs_nodes[:, 2:4] = v_prev + dt * a - v
            rhs[10 * n:10 * n + 2] = l_end - p[-1]
            if pin_speed:
                rhs[10 * n + 2:] = v_target - v[-1]

            try:
                sol = newton_solve(hess, rhs)
            except np.linalg.LinAlgError:
                diag = hess[:, :, [0, 1], [0, 1]]
                hess[:, :, [0, 1], [0, 1]] += 1e-10 * diag.sum() / (6 * n)
                sol = newton_solve(hess, rhs)
            dz = sol[:10 * n].reshape(n, 10)[:, 4:]
            decrement2 = float(-np.sum(grad * dz))
            if decrement2 <= 1e-12 * max(1.0, abs(t * f0)):
                break
            step = 1.0
            for _ in range(80):
                zn = z + step * dz
                if np.min(g_margins(zn[:, 2:4], zn[:, 4:])) > 0:
                    break
                step *= 0.7
            else:
                break
            psi = -t * f_obj(p) - float(np.sum(np.log(g)))
            for _ in range(60):
                zn = z + step * dz
                gn = g_margins(zn[:, 2:4], zn[:, 4:])
                psin = -t * f_obj(zn[:, :2]) - float(np.sum(np.log(gn)))
                if psin <= psi - 0.25 * step * decrement2:
                    break
                step *= 0.5
            z = z + step * dz
        if m_ineq / t <= 1e-7 * max(1.0, abs(f_obj(z[:, :2]))):
            break
        t *= 20.0

    # squeeze out linear-algebra drift so endpoint pins hold to roundoff
    x = z[:, 4:].T.ravel()
    x_snap = _equality_restore(x, a_mat, b_vec)
    if np.min(g_of_accels(x_snap)) > 0:
        x = x_snap
    return rebuild_from_accels(cfg, accels_of(x), v0, l0)


# ---------------------------------------------------------------------------
# successive refinement loop

@dataclass(frozen=True)
class ScaResult:
    """Refined plan plus the accepted true-objective trace."""

    plan: TrajectoryPlan
    objectives: list
    converged: bool
    iterations: int


def _box_feasible(plan, cfg):
    sp = plan.speeds()
    if np.any(sp > cfg.v_max + _BOX_TOL) or np.any(sp < cfg.v_min - _BOX_TOL):
        return False
    return not np.any(plan.accel_norms()[1:] > cfg.a_max + _BOX_TOL)


def sca_trajectory(plan0, q_c, cfg, h0=False, tol=None, max_iters=60):
    """Iteratively linearize and re-solve until the mean rate stalls.

    Each accepted step blends the subproblem's acceleration profile toward
    the current plan until the true objective does not decrease (halving
    blend weights), so the recorded objective trace is nondecreasing.
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
            if not _box_feasible(blend, cfg):
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
