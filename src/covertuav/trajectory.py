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
true objective does not decrease.

Conventions: a plan holds N+1 nodes (0..N). Node 0 is the launch point,
node N the landing point; the drone communicates during slot n from node n
for n = 0..N-1. Accelerations are the controls, one per slot (stored at
nodes 1..N; node 0 carries a zero placeholder).
"""

from dataclasses import dataclass

import numpy as np

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


def rebuild_from_accels(cfg, accels, v0, l0):
    """Exact kinematic rollout of per-slot accelerations (N, 2)."""
    a = np.asarray(accels, dtype=float).reshape(-1, 2)
    n = a.shape[0]
    dt = cfg.delta_t
    v = np.empty((n + 1, 2))
    p = np.empty((n + 1, 2))
    v[0] = v0
    p[0] = l0
    for k in range(n):
        p[k + 1] = p[k] + v[k] * dt + 0.5 * a[k] * dt * dt
        v[k + 1] = v[k] + a[k] * dt
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
    mu_ba = np.asarray(mu_ba, dtype=float)
    mu_ca = np.asarray(mu_ca, dtype=float)
    chain = None
    if grad:
        # the air gains go as (H^2 + mu)^(xi/2): d ln g / d mu = xi/(2(H^2 + mu))
        h2 = cfg.h_m ** 2
        chain = (cfg.xi_ba / (2.0 * (h2 + mu_ba)),
                 cfg.xi_ca / (2.0 * (h2 + mu_ca)))
    a2_bw, a2_cw = channel.ground_gains(cfg)
    g_bw = cfg.n_b * a2_bw
    g_ba = cfg.n_b * channel.air_large_scale(cfg, mu_ba, cfg.xi_ba)
    if h0:
        t = kernels.h0_slot(cfg.q_b_max_w * g_ba, cfg.q_b_max_w * g_bw,
                            cfg.sigma_a2_w, cfg.sigma_w2_w, cfg.gamma_t,
                            cfg.eta_s, cfg.r_t,
                            chain=chain[0] if grad else None)
        return t.rate, t.d_ba, (np.zeros_like(t.rate) if grad else None)
    g_ca = cfg.n_c * channel.air_large_scale(cfg, mu_ca, cfg.xi_ca)
    t = kernels.h1_slot(q_c, g_ba, g_ca, cfg.n_c * a2_cw, g_bw,
                        cfg.q_b_max_w, cfg.sigma_a2_w, cfg.sigma_w2_w,
                        cfg.gamma_t, cfg.gamma_c, cfg.eta_s, cfg.kappa,
                        cfg.r_t, cfg.r_c, chain=chain)
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
# convex subproblem: concave quadratic objective over acceleration profiles

def _kinematic_maps(cfg, n):
    """Per-axis linear maps from the accel vector a[1..N] to v and L.

    v[n] = v0 + (DV @ a)[n];  L[n] = L0 + n*dt*v0 + (DP @ a)[n], n = 1..N.
    """
    dt = cfg.delta_t
    nn = np.arange(1, n + 1)[:, None]
    kk = np.arange(1, n + 1)[None, :]
    dv = dt * (kk <= nn).astype(float)
    dp = dt * dt * np.where(kk < nn, nn - kk + 0.5,
                            np.where(kk == nn, 0.5, 0.0))
    return dv, dp


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


def solve_subproblem(lin, plan_ref, cfg):
    """Maximize the linearized mean rate over feasible acceleration profiles.

    Slacks are eliminated by sign: slots whose rate improves when the slack
    shrinks (negative derivative) contribute their exact concave quadratic
    d*||L - L_user||^2; slots with positive derivative contribute the affine
    minorant of that quadratic anchored at the reference positions, which
    keeps the program concave while preserving the fixed-point condition.
    Constraints: discrete kinematics (exact, by construction), endpoint pin,
    terminal-speed pin (direction taken from the reference plan), speed box
    with the minimum-speed bound linearized at the reference velocities, and
    the acceleration cap. Solved by a log-barrier Newton method (KKT
    residual <= 1e-6 scaled, relative gap <= 1e-7).
    """
    n = plan_ref.n_slots
    dt = cfg.delta_t
    l0 = plan_ref.positions[0]
    v0 = plan_ref.velocities[0]
    dv, dp = _kinematic_maps(cfg, n)
    base_l = l0[None, :] + np.arange(1, n + 1)[:, None] * dt * v0[None, :]

    pin_speed = cfg.v_end is not None
    vr = plan_ref.velocities[1:]                     # (N, 2) reference speeds
    if pin_speed:
        d_term = vr[-1] / np.linalg.norm(vr[-1])
        v_target = cfg.v_end * d_term

    # objective pieces: two ground terms per communication slot n = 1..N-1
    rows, weights, points, exact = [], [], [], []
    for d_arr, pnt in ((lin.d_ba, np.asarray(cfg.l_b, float)),
                       (lin.d_ca, np.asarray(cfg.l_c, float))):
        for slot in range(1, n):
            d = float(d_arr[slot])
            if d == 0.0:
                continue
            rows.append(slot - 1)     # row index into dp (maps node slot)
            weights.append(d / n)
            points.append(pnt)
            exact.append(d <= 0.0)
    rows = np.asarray(rows, dtype=int)
    weights = np.asarray(weights, dtype=float)
    points = (np.asarray(points, dtype=float)
              if points else np.zeros((0, 2)))
    exact = np.asarray(exact, dtype=bool)
    dp_rows = dp[rows] if rows.size else np.zeros((0, n))
    base_rows = base_l[rows] if rows.size else np.zeros((0, 2))
    ref_l = plan_ref.positions[1:][rows] if rows.size else np.zeros((0, 2))

    neg = exact
    pos = ~exact
    w_neg = weights[neg]
    dp_neg = dp_rows[neg]
    pts_neg = points[neg]
    base_neg = base_rows[neg]
    # affine minorant slope for positive-derivative terms: 2w(Lr - P)
    if np.any(pos):
        slope = 2.0 * weights[pos, None] * (ref_l[pos] - points[pos])
        c_aff = dp_rows[pos].T @ slope          # (N, 2) per-axis linear term
    else:
        c_aff = np.zeros((n, 2))

    h_axis = 2.0 * (dp_neg.T * w_neg) @ dp_neg if w_neg.size else np.zeros((n, n))

    def split(x):
        return x[:n], x[n:]

    def f_obj(x):
        ax, ay = split(x)
        val = float(c_aff[:, 0] @ ax + c_aff[:, 1] @ ay)
        if w_neg.size:
            lx = base_neg[:, 0] + dp_neg @ ax
            ly = base_neg[:, 1] + dp_neg @ ay
            val += float(w_neg @ ((lx - pts_neg[:, 0]) ** 2
                                  + (ly - pts_neg[:, 1]) ** 2))
        return val

    def grad_f(x):
        ax, ay = split(x)
        gx = c_aff[:, 0].copy()
        gy = c_aff[:, 1].copy()
        if w_neg.size:
            lx = base_neg[:, 0] + dp_neg @ ax
            ly = base_neg[:, 1] + dp_neg @ ay
            gx += 2.0 * dp_neg.T @ (w_neg * (lx - pts_neg[:, 0]))
            gy += 2.0 * dp_neg.T @ (w_neg * (ly - pts_neg[:, 1]))
        return np.concatenate([gx, gy])

    hess_f = np.zeros((2 * n, 2 * n))
    hess_f[:n, :n] = h_axis
    hess_f[n:, n:] = h_axis

    # equality rows: landing position, optional terminal velocity
    a_rows = [np.concatenate([dp[-1], np.zeros(n)]),
              np.concatenate([np.zeros(n), dp[-1]])]
    b_vals = [cfg.l_end[0] - base_l[-1, 0], cfg.l_end[1] - base_l[-1, 1]]
    if pin_speed:
        a_rows.append(np.concatenate([dv[-1], np.zeros(n)]))
        a_rows.append(np.concatenate([np.zeros(n), dv[-1]]))
        b_vals.extend([v_target[0] - v0[0], v_target[1] - v0[1]])
    a_mat = np.vstack(a_rows)
    b_vec = np.asarray(b_vals, dtype=float)

    # inequality margins; terminal node skips the speed box when pinned
    box = n - 1 if pin_speed else n

    def velocities_of(x):
        ax, ay = split(x)
        return np.stack([v0[0] + dv @ ax, v0[1] + dv @ ay], axis=1)

    def g_margins(x):
        ax, ay = split(x)
        v = velocities_of(x)
        g_vmax = cfg.v_max ** 2 - np.sum(v[:box] ** 2, axis=1)
        g_vmin = (2.0 * np.sum(vr[:box] * v[:box], axis=1)
                  - np.sum(vr[:box] ** 2, axis=1) - cfg.v_min ** 2)
        g_amax = cfg.a_max ** 2 - ax ** 2 - ay ** 2
        return np.concatenate([g_vmax, g_vmin, g_amax])

    def g_jacobian(x):
        ax, ay = split(x)
        v = velocities_of(x)
        jac = np.zeros((2 * box + n, 2 * n))
        jac[:box, :n] = -2.0 * v[:box, 0:1] * dv[:box]
        jac[:box, n:] = -2.0 * v[:box, 1:2] * dv[:box]
        jac[box:2 * box, :n] = 2.0 * vr[:box, 0:1] * dv[:box]
        jac[box:2 * box, n:] = 2.0 * vr[:box, 1:2] * dv[:box]
        idx = np.arange(n)
        jac[2 * box + idx, idx] = -2.0 * ax
        jac[2 * box + idx, n + idx] = -2.0 * ay
        return jac

    dv_box = dv[:box]
    vmax_curv = 2.0 * dv_box.T  # reused in the Hessian assembly

    x0 = np.concatenate([plan_ref.accelerations[1:, 0],
                         plan_ref.accelerations[1:, 1]])
    x = _strictly_feasible_start(x0, a_mat, b_vec, g_margins)

    m_ineq = 2 * box + n
    f0 = f_obj(x)
    t = max(1.0, m_ineq / (0.1 * max(1.0, abs(f0))))

    for _ in range(64):
        for _ in range(60):
            g = g_margins(x)
            jac = g_jacobian(x)
            inv_g = 1.0 / g
            grad = -t * grad_f(x) - jac.T @ inv_g
            hess = -t * hess_f + (jac.T * inv_g ** 2) @ jac
            curv = vmax_curv @ (inv_g[:box, None] * dv_box)
            hess[:n, :n] += curv
            hess[n:, n:] += curv
            diag = 2.0 * inv_g[2 * box:]
            hess[np.arange(n), np.arange(n)] += diag
            hess[np.arange(n, 2 * n), np.arange(n, 2 * n)] += diag

            kkt = np.block([[hess, a_mat.T],
                            [a_mat, np.zeros((a_mat.shape[0],) * 2)]])
            # the equality residual rides along (infeasible-start Newton),
            # so solve errors of the ill-conditioned late barrier stages
            # cannot accumulate into a missed landing point
            rhs = np.concatenate([-grad, b_vec - a_mat @ x])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                hess[np.arange(2 * n), np.arange(2 * n)] += 1e-10 * np.trace(hess) / (2 * n)
                kkt = np.block([[hess, a_mat.T],
                                [a_mat, np.zeros((a_mat.shape[0],) * 2)]])
                sol = np.linalg.solve(kkt, rhs)
            dx = sol[:2 * n]
            decrement2 = float(-grad @ dx)
            if decrement2 <= 1e-12 * max(1.0, abs(t * f0)):
                break
            step = 1.0
            for _ in range(80):
                if np.min(g_margins(x + step * dx)) > 0:
                    break
                step *= 0.7
            else:
                break
            psi = -t * f_obj(x) - float(np.sum(np.log(g)))
            for _ in range(60):
                xn = x + step * dx
                gn = g_margins(xn)
                psin = -t * f_obj(xn) - float(np.sum(np.log(gn)))
                if psin <= psi - 0.25 * step * decrement2:
                    break
                step *= 0.5
            x = x + step * dx
        if m_ineq / t <= 1e-7 * max(1.0, abs(f_obj(x))):
            break
        t *= 20.0

    # squeeze out linear-algebra drift so endpoint pins hold to roundoff
    x_snap = _equality_restore(x, a_mat, b_vec)
    if np.min(g_margins(x_snap)) > 0:
        x = x_snap
    accels = np.stack(split(x), axis=1)
    return rebuild_from_accels(cfg, accels, v0, l0)


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
