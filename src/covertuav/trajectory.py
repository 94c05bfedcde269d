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
Using Online Optimization", IEEE TCST 2010). As in ECOS, the band's pattern
is built once per shape (slots, pins, slot length) and each iteration only
refills its values, into one column-major buffer that LAPACK factors in
place; the cone slacks and multipliers are stacked in one array, so the
Nesterov-Todd scaling and the step-length searches run once over both. The
method starts from the reference plan's own states, feasible or not: the
kinematic, pin and cone residuals ride in its right-hand side, and it stops
only once the duality gap is closed and the states fly the kinematics onto
the landing pins.

Conventions: a plan holds N+1 nodes (0..N). Node 0 is the launch point,
node N the landing point; the drone communicates during slot n from node n
for n = 0..N-1. Accelerations are the controls, one per slot (stored at
nodes 1..N; node 0 carries a zero placeholder).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import beamform, channel, kernels
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
        res = _kinematic_residual(p, v, a, cfg.delta_t)
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
        if np.any(self.mu_ba < mu_b - tol) or np.any(self.mu_ca < mu_c - tol):
            raise TrajectoryError("slack below the squared distance it relaxes")


def _kinematic_residual(p, v, a, dt):
    """Rollout minus nodes, (N, 4): the position then the velocity mismatch
    of nodes 1..N, for the states (p, v, a) of nodes 0..N (a[0] is unused)."""
    out = np.empty((len(p) - 1, 4))
    pos, vel = out[:, :2], out[:, 2:]
    np.multiply(v[:-1], dt, out=pos)
    pos += p[:-1]
    pos += 0.5 * dt * dt * a[1:]
    pos -= p[1:]
    np.multiply(a[1:], dt, out=vel)
    vel += v[:-1]
    vel -= v[1:]
    return out


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
    env = kernels.slot_env(cfg, channel.gains_for_slacks(cfg, mu_ba, mu_ca))
    chain = None
    if grad:
        # the air gains go as (H^2 + mu)^(xi/2): d ln g / d mu = xi/(2(H^2 + mu))
        h2 = cfg.h_m ** 2
        chain = (cfg.xi_ba / (2.0 * (h2 + mu_ba)),
                 cfg.xi_ca / (2.0 * (h2 + mu_ca)))
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

@functools.lru_cache(maxsize=4)
def _kkt_band(n, n_pin, dt):
    """Band layout of the stacked-state KKT matrix, built once per shape.

    Node k = 1..N owns rows 10(k-1) + 0..3, the multipliers of its
    kinematic rows p_k = p_{k-1} + dt v_{k-1} + dt^2/2 a_k and
    v_k = v_{k-1} + dt a_k, then rows 10(k-1) + 4..9, its state
    (p_k, v_k, a_k); the n_pin rows pinning node N come last. The band is
    stored for LAPACK's `dgbtrf` column-major: entry (i, j) at row
    2h + i - j of column j, in a (3h + 1)-row storage whose top h rows are
    room for the factor's fill. Returns the half-bandwidth h, the flat
    positions of the equality entries in that storage with their values
    and the state row or column each one touches, and the flat positions
    of the three 2x2 Hessian blocks per node, (N, 3, 2, 2); all read-only.
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
    ldab = 3 * half + 1
    # each equality entry (r, c), state column c, and its mirror (c, r)
    eq_flat = np.concatenate([2 * half + r - c + c * ldab,
                              2 * half + c - r + r * ldab])
    eq_val = np.concatenate([val, val])
    eq_state = np.concatenate([c, c])
    d1 = np.array([[0, 0], [1, 1]])
    h_rows = 2 * half + d1 - d1.T
    h_cols = node[:, None, None, None] + 4 + 2 * np.arange(3)[:, None, None] \
        + d1.T
    h_flat = h_rows + h_cols * ldab
    for arr in (eq_flat, eq_val, eq_state, h_flat):
        arr.setflags(write=False)
    return half, (eq_flat, eq_val, eq_state), h_flat


# second-order cone algebra on rows u = (u0, u1) of (m, 3) arrays, for the
# cones {u0 >= |u1|}: Jordan product u o v = (u.v, u0 v1 + v0 u1), identity
# e = (1, 0, 0). Row sums are written as column sums, ((a0 + a1) + a2):
# np.sum(..., axis=1) adds a row of two or three in that order, at many
# times the cost.

def _soc_det(u):
    """u0^2 - |u1|^2, factored to keep its digits near the boundary."""
    sq = u[:, 1:] * u[:, 1:]
    r = np.sqrt(sq[:, 0] + sq[:, 1])
    return (u[:, 0] - r) * (u[:, 0] + r)


def _soc_mul(u, v):
    prod = u * v
    out = np.empty_like(prod)
    out[:, 0] = prod[:, 0] + prod[:, 1] + prod[:, 2]
    out[:, 1:] = u[:, :1] * v[:, 1:] + v[:, :1] * u[:, 1:]
    return out


def _soc_div(lam, v):
    """The u with lam o u = v."""
    prod = lam * v
    out = np.empty_like(prod)
    u0 = out[:, 0]
    np.divide(prod[:, 0] - (prod[:, 1] + prod[:, 2]), _soc_det(lam), out=u0)
    out[:, 1:] = (v[:, 1:] - u0[:, None] * lam[:, 1:]) / lam[:, :1]
    return out


def _apply(mat, u):
    """Row-wise products of (m, 3, 3) matrices and (m, 3) vectors."""
    return np.einsum("kij,kj->ki", mat, u)


def _nt_scaling(sz, det, ws):
    """Nesterov-Todd scaling of the interior pairs (s, z), stacked as s
    above z in sz with det = `_soc_det(sz)`: writes W^-1 above W into ws,
    with W z = W^-1 s, and returns the lower right 2x2 block of W^-2.
    W = eta [[w0, w1'], [w1, I + w1 w1'/(1 + w0)]] with w0^2 - |w1|^2 = 1,
    W^-1 = J W J / eta^2 with J = diag(1, -1, -1), and the block of W^-2 is
    (I + 2 w1 w1') / eta^2."""
    m = len(sz) // 2
    norm = np.sqrt(det)
    bar = sz / norm[:, None]
    s_bar, z_bar = bar[:m], bar[m:]
    prod = s_bar * z_bar
    gamma = np.sqrt(0.5 * (1.0 + (prod[:, 0] + prod[:, 1] + prod[:, 2])))
    w = s_bar - z_bar
    w[:, 0] = s_bar[:, 0] + z_bar[:, 0]
    w /= 2.0 * gamma[:, None]
    w1, x0, x1 = w[:, 1:], w[:, 1], w[:, 2]
    # W / eta into the W^-1 slot, entry by entry, the identity's zeros too
    mat = ws[:m]
    mat[:, 0] = w
    mat[:, 1:, 0] = w1
    d = 1.0 + w[:, 0]
    mat[:, 1, 1] = 1.0 + x0 * x0 / d
    mat[:, 1, 2] = mat[:, 2, 1] = 0.0 + x0 * x1 / d
    mat[:, 2, 2] = 1.0 + x1 * x1 / d
    eta = np.sqrt(norm[:m] / norm[m:])
    np.multiply(eta[:, None, None], mat, out=ws[m:])
    mat[:, 0, 1:] *= -1.0
    mat[:, 1:, 0] *= -1.0
    mat /= eta[:, None, None]
    eta2 = eta * eta
    block = np.empty((m, 2, 2))
    block[:, 0, 0] = (1.0 + 2.0 * x0 * x0) / eta2
    block[:, 0, 1] = (0.0 + 2.0 * x0 * x1) / eta2
    block[:, 1, 0] = (0.0 + 2.0 * x1 * x0) / eta2
    block[:, 1, 1] = (1.0 + 2.0 * x1 * x1) / eta2
    return block


def _soc_step(u, du, det):
    """Largest t with u + t du in the cone, for interior rows u with
    det = `_soc_det(u)`: the first positive root of
    (u0 + t du0)^2 - |u1 + t du1|^2, or inf."""
    sq = du * du
    qa = sq[:, 0] - (sq[:, 1] + sq[:, 2])
    prod = u * du
    qb = 2.0 * (prod[:, 0] - (prod[:, 1] + prod[:, 2]))
    disc = qb * qb - 4.0 * qa * det
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
        roots = np.stack([q / qa, det / q])
        ahead = (disc >= 0) & (roots > 0)
    return float(np.min(roots, where=ahead, initial=np.inf))


def _ray_step(u, du):
    """Largest t with u + t du >= 0, for positive u."""
    with np.errstate(divide="ignore"):
        roots = -u / du
    return float(np.min(roots, where=du < 0, initial=np.inf))


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
    for the predictor and the corrector solve. As in ECOS, the pattern is
    fixed and only the values change: the band layout is built once per
    (N, pins, dt), and each iteration refills one column-major band buffer,
    which LAPACK factors in place. The cone slacks s and multipliers z are
    kept stacked, s above z, so that the Nesterov-Todd scaling and both
    step-length searches share one cone determinant per iteration. The
    primal start is the reference plan's own states and the slacks start a
    tenth inside the cones; the kinematic, pin and cone residuals ride in
    the right-hand side, so the start need be neither feasible nor
    interior. Converged once the duality gap is <= 1e-7 relative, the cone
    residuals are closed and the kinematic and pin residuals are <= 1e-9
    (m, m/s). Raises TrajectoryError when the iteration cap is reached. The
    returned plan is the exact rollout of the solution's accelerations.
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

    def objective(p):
        """The objective f at positions p and its gradient in p."""
        off = p - points[:, None]                    # (2, N, 2): to l_b, l_c
        sq = off * off
        dist = sq[:, :, 0] + sq[:, :, 1]
        f = float(np.sum(slope * (p - base_l)) + w_neg[0] @ dist[0]
                  + w_neg[1] @ dist[1])
        wo = w_neg[:, :, None] * off
        return f, slope + 2.0 * (wo[0] + wo[1])

    # primal start: the reference plan's states, feasible or not, one row
    # per node; row 0 holds the launch state (a placeholder acceleration)
    nodes = np.hstack([plan_ref.positions, plan_ref.velocities,
                       plan_ref.accelerations])
    state = nodes[1:]                                # (N, 6): p, v, a
    p, v = state[:, :2], state[:, 2:4]
    # the terminal node skips the speed cone when its speed is pinned
    box = n - 1 if pin_speed else n
    vr_box = vr[:box]
    vr_sq = vr_box[:, 0] ** 2 + vr_box[:, 1] ** 2
    vr2 = 2.0 * vr_box

    # the cone rows s = h - G x over the states x: second-order rows
    # 0..box-1 are (v_max, v_k), rows box.. are (a_max, a_k); the slack rows
    # are 2 vr.v_k - |vr|^2 - v_min^2, with cone multipliers z
    m = box + n
    h_soc = np.zeros((m, 3))
    h_soc[:box, 0] = cfg.v_max
    h_soc[box:, 0] = cfg.a_max
    h_lin = -vr_sq - cfg.v_min ** 2
    g_soc = np.zeros((m, 3))
    g_lin = np.empty(box)

    def lift(st):
        """-G st, into (g_soc, g_lin): the states' image on the cone rows."""
        g_soc[:box, 1:] = st[:box, 2:4]
        g_soc[box:, 1:] = st[:, 4:]
        prod = vr_box * st[:box, 2:4]
        np.multiply(prod[:, 0] + prod[:, 1], 2.0, out=g_lin)

    n_pin = 4 if pin_speed else 2
    half, (eq_flat, eq_val, eq_state), h_flat = _kkt_band(n, n_pin, dt)
    dim = 10 * n + n_pin
    # the band in column-major order is the row-major kkt, which LAPACK
    # factors in place
    kkt = np.empty((dim, 3 * half + 1))
    band = kkt.T
    kkt_flat = kkt.reshape(-1)
    # symmetric scaling by the Hessian diagonal keeps the kinematic and pin
    # rows exact to roundoff once the cone curvature grows large; the
    # multiplier rows, whose diagonal is zero, keep scale 1
    scale = np.ones(dim)
    state_scale = scale[:10 * n].reshape(n, 10)[:, 4:].reshape(n, 3, 2)

    def factor(hess):
        np.abs(np.diagonal(hess, axis1=2, axis2=3), out=state_scale)
        np.maximum(state_scale, 1.0, out=state_scale)
        np.sqrt(state_scale, out=state_scale)
        np.divide(1.0, state_scale, out=state_scale)
        kkt.fill(0.0)
        kkt_flat[eq_flat] = eq_val * scale[eq_state]
        kkt_flat[h_flat] = hess * (state_scale[:, :, :, None]
                                   * state_scale[:, :, None, :])
        lu, piv, info = dgbtrf(band, half, half, overwrite_ab=True)
        return (lu, piv) if info == 0 else None

    rhs = np.zeros(dim)
    rhs_nodes = rhs[:10 * n].reshape(n, 10)
    pin_rhs = rhs[10 * n:]
    rhs_v, rhs_a = rhs_nodes[:box, 6:8], rhs_nodes[:, 8:]

    # the slacks s and the multipliers z, stacked: s above z
    sz = np.empty((2 * m, 3))
    lz = np.empty(2 * box)
    s_soc, z_soc = sz[:m], sz[m:]
    s_lin, z_lin = lz[:box], lz[box:]
    # the slacks start a tenth of their offset h inside the cones: the
    # states may start on a cap the reference plan touches, and the cone
    # residual this opens closes with every step
    lift(state)
    np.add(g_soc, h_soc, out=s_soc)
    np.add(g_lin, h_lin, out=s_lin)
    sq = s_soc[:, 1:] ** 2
    s_soc[:, 0] = np.maximum(s_soc[:, 0], np.sqrt(sq[:, 0] + sq[:, 1])
                             + 0.1 * h_soc[:, 0])
    np.maximum(s_lin, -0.1 * h_lin, out=s_lin)
    # dual start on the central path, z = mu0 s^-1, with the initial gap
    # m mu0 = max(1, |f0|) / 10 capped at m
    m_cone = 2 * box + n
    mu0 = min(1.0, 0.1 * max(1.0, abs(objective(p)[0])) / m_cone)
    np.divide(mu0 * s_soc, _soc_det(s_soc)[:, None], out=z_soc)
    z_soc[:, 1:] *= -1.0
    np.divide(mu0, s_lin, out=z_lin)

    # per-iteration work arrays: the Newton step's (ds, dz) stacked like
    # (s, z), W^-1 above W, the Hessian blocks
    dsz = np.empty((2 * m, 3))
    dlz = np.empty(2 * box)
    ws = np.empty((2 * m, 3, 3))
    w_inv, w_mat = ws[:m], ws[m:]
    hess = np.zeros((n, 3, 2, 2))
    hess[:, 0] = (-hess_p)[:, None, None] * np.eye(2)

    def w_inv2(u):
        # W^-1 twice: the product matrix W^-2 loses the digits of vectors
        # that W^-1 shrinks once the cones get thin
        return _apply(w_inv, _apply(w_inv, u))

    for it in range(_IP_MAX_ITERS + 1):
        # the kinematic and pin residuals ride along in the right-hand side
        # (infeasible-start Newton), so solve errors cannot accumulate into
        # a missed landing point; the cone rows carry theirs likewise
        rhs_nodes[:, :4] = _kinematic_residual(nodes[:, :2], nodes[:, 2:4],
                                               nodes[:, 4:], dt)
        pin_rhs[:2] = l_end - p[-1]
        if pin_speed:
            pin_rhs[2:] = v_target - v[-1]
        lift(state)
        r_soc = s_soc - h_soc - g_soc
        r_lin = s_lin - h_lin - g_lin
        gap = float(np.sum(s_soc * z_soc) + s_lin @ z_lin)
        f, grad = objective(p)
        # converged once the gap is closed, the cone rows hold, and the
        # states fly the kinematics and land on the pins (m, m/s)
        if gap <= 1e-7 * max(1.0, abs(f)) \
                and np.all(np.abs(r_soc) <= 1e-12 * h_soc[:, :1]) \
                and np.all(np.abs(r_lin) <= -1e-12 * h_lin) \
                and np.all(np.abs(rhs_nodes[:, :4]) <= 1e-9) \
                and np.all(np.abs(pin_rhs) <= 1e-9):
            break
        if it == _IP_MAX_ITERS:
            raise TrajectoryError(
                f"subproblem stopped at its iteration cap: {it} "
                f"interior-point iterations left a duality gap of {gap:.3g}")

        det = _soc_det(sz)
        block = _nt_scaling(sz, det, ws)
        lam_soc = _apply(w_mat, z_soc)
        d_lin = z_lin / s_lin                        # W^-2 on the slack rows

        # H = P + G^T W^-2 G: the scaled cone term (I + 2 w1 w1')/eta^2 on
        # each v and a block, the slack's 4 (z/s) vr vr' on v
        hess[:box, 1] = block[:box] + 4.0 * d_lin[:, None, None] \
            * vr_box[:, :, None] * vr_box[:, None, :]
        hess[:, 2] = block[box:]
        lu = factor(hess)
        if lu is None:
            # regularize a copy: the next iteration refills only the cone
            # blocks of hess
            hess_reg = hess.copy()
            diag = hess_reg[:, :, [0, 1], [0, 1]]
            hess_reg[:, :, [0, 1], [0, 1]] += 1e-10 * diag.sum() / (6 * n)
            lu = factor(hess_reg)
            if lu is None:
                raise np.linalg.LinAlgError(
                    "singular KKT matrix in the trajectory subproblem")
        lu, piv = lu

        # the p rows of the right-hand side hold 0.0 + grad: a zero gradient
        # entry enters the solve as +0.0 whatever its sign
        rhs_nodes[:, 4:6] = 0.0
        rhs_nodes[:, 4:6] += grad

        def direction(u_soc, u_lin):
            """Newton step whose cone rows read G dx - W^T W dz = q = u - r:
            writes (ds, dz) into dsz and dlz and returns dx. The equality
            multipliers are solved for whole, not as a step, so the method
            needs no iterate of them."""
            q_soc, q_lin = u_soc - r_soc, u_lin - r_lin
            # -G^T (z - W^-2 q) on the v and a rows
            t_soc = z_soc - w_inv2(q_soc)
            t_lin = z_lin - d_lin * q_lin
            rhs_v[...] = t_soc[:box, 1:] + vr2 * t_lin[:, None]
            rhs_a[...] = t_soc[box:, 1:]
            x = dgbtrs(lu, half, half, scale * rhs, piv, overwrite_b=True)[0]
            x *= scale
            dx = x[:10 * n].reshape(n, 10)[:, 4:]
            lift(dx)
            dsz[:m] = g_soc - r_soc
            dsz[m:] = w_inv2(-g_soc - q_soc)
            dlz[:box] = g_lin - r_lin
            dlz[box:] = d_lin * (-g_lin - q_lin)
            return dx

        def max_step():
            return min(_soc_step(sz, dsz, det), _ray_step(lz, dlz))

        # predictor: the affine-scaling direction (u = s); its reach sets
        # the centring weight sigma
        direction(s_soc, s_lin)
        sigma = (1.0 - min(1.0, max_step())) ** 3
        mu = gap / m_cone
        # corrector: u = W (lam \ (lam o lam + W^-T ds_aff o W dz_aff
        # - sigma mu e)), the slack rows likewise
        scaled = _apply(ws, dsz)                     # W^-1 ds over W dz
        cor_soc = _soc_mul(lam_soc, lam_soc) + _soc_mul(scaled[:m],
                                                        scaled[m:])
        cor_soc[:, 0] -= sigma * mu
        cor_lin = s_lin * z_lin + dlz[:box] * dlz[box:] - sigma * mu
        dx = direction(_apply(w_mat, _soc_div(lam_soc, cor_soc)),
                       cor_lin / z_lin)
        step = min(1.0, 0.99 * max_step())
        for u, du in ((state, dx), (sz, dsz), (lz, dlz)):
            du *= step
            u += du

    return rebuild_from_accels(cfg, state[:, 4:], v0, l0)


# ---------------------------------------------------------------------------
# successive refinement loop

@dataclass(frozen=True)
class ScaResult:
    """One planner run: the refined plan, its per-slot design table
    (`beamform.SlotDecisions`) and the accepted true-objective trace, which
    starts at plan0's value and gains one entry per accepted step.

    error is None unless a call failed; the result then holds the last
    accepted plan and names the iteration and the call ("round 3,
    trajectory block: ..." or "round 3, power search: ...").
    """

    plan: TrajectoryPlan
    decisions: beamform.SlotDecisions
    objectives: list
    converged: bool
    iterations: int
    error: str = None

    @property
    def q_c(self):
        """Per-slot covert powers (the decision table's q_c column)."""
        return self.decisions.q_c

    @property
    def objective(self):
        return self.objectives[-1]


def sca_trajectory(plan0, q_c, cfg, h0=False, max_iters=60, power=None):
    """Iteratively linearize and re-solve until the mean rate stalls.

    q_c holds the slot powers of plan0. power, when given, maps a plan to
    its slot powers, and every plan, plan0 included, is valued at them (q_c
    stands if the rule fails at plan0). If power returns each slot's rate
    maximizer, the loop maximizes V(plan) = mean over slots of max_q R_s,
    whose slack gradient, where the maximizer is unique, is the rate's
    partial there (Danskin's theorem): `linearize` at (plan, power(plan)).
    That is block-coordinate SCA with the exact power block solved at
    every trial plan.

    Each accepted step blends the subproblem's acceleration profile toward
    the current plan until the true objective does not decrease (halving
    blend weights), so the recorded objective trace is nondecreasing. A
    blend is accepted only if it passes `TrajectoryPlan.check_feasible` at
    tolerance 1e-9, so every plan it accepts flies the kinematics from
    l_start onto l_end inside the speed and acceleration boxes. The loop
    stops once a step gains less than `cfg.bcd_tol`, and tabulates the
    final plan at its powers (`beamform.decision_at`, or with h0
    `beamform.h0_decision`).
    """
    q = np.broadcast_to(np.asarray(q_c, dtype=float), (plan0.n_slots,))
    if power is None:
        def power(plan):
            return q
    ref = plan0
    trace = []
    converged = False
    iterations = 0
    call, error = "power search", None
    try:
        q = power(ref)
        obj = trajectory_objective(ref, q, cfg, h0=h0)
        trace.append(obj)
        for iterations in range(1, max_iters + 1):
            call = "trajectory block"
            lin = linearize(ref, q, cfg, h0=h0)
            cand = solve_subproblem(lin, ref, cfg)
            call = "power search"
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
                q_blend = power(blend)
                val = trajectory_objective(blend, q_blend, cfg, h0=h0)
                if val >= obj:
                    accepted = (blend, q_blend, val)
                    break
            if accepted is None:
                converged = True
                break
            ref, q, new_obj = accepted
            trace.append(new_obj)
            if new_obj - obj < cfg.bcd_tol:
                converged = True
                break
            obj = new_obj
    except (kernels.CovertBudgetError, TrajectoryError,
            np.linalg.LinAlgError) as exc:
        error = (f"round {max(iterations, 1)}, {call}: "
                 f"{type(exc).__name__}: {exc}")
        if not trace:
            trace.append(trajectory_objective(ref, q, cfg, h0=h0))
    env = kernels.slot_env(
        cfg, channel.gains_for_positions(cfg, ref.comm_positions))
    decisions = (beamform.h0_decision(env) if h0
                 else beamform.decision_at(env, q))
    return ScaResult(plan=ref, decisions=decisions, objectives=trace,
                     converged=converged, iterations=iterations, error=error)


_PLAN_COLUMNS = ("slot", "x", "y", "speed", "accel")


def write_plan_csv(path, plan):
    """One row per plan node: position, speed, acceleration magnitude."""
    sp = plan.speeds()
    an = plan.accel_norms()
    write_atomic_csv(path, _PLAN_COLUMNS, [
        [k, plan.positions[k, 0], plan.positions[k, 1], sp[k], an[k]]
        for k in range(plan.positions.shape[0])])
