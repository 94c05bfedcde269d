"""Per-slot transmit design for the secret and covert uplinks.

The covert user's transmit power q_c is the only scalar degree of freedom
once the received-power coupling at the adversary is enforced: the cover
power carved out at the adversary fixes the secret user's power, the
redundancy rate and both connection probabilities, so the slot reduces to a
one-dimensional rise-then-decay curve searched by derivative-sign
bisection, run over all slots (or candidate beams) at once. Beam
directions enter through the received-power coefficients: the default
isotropic mode uses the full-trace antenna gains, while the
direction-aware mode projects explicit channel vectors onto a rank-one
beam family mixing the covert user's own link with the leakage direction.
The slot model itself (rate, redundancy, connection probabilities, and
the covert-silent rule) lives in `kernels`; this module only chooses the
powers and beams it is evaluated at.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels, secmetrics
from ._csvio import write_atomic_csv

__all__ = ["CovertBudgetError", "SlotEnv", "slot_env", "env_from_vectors",
           "slot_objective", "BsaResult", "bsa_optimize",
           "BsaBatch", "bsa_slots",
           "BeamformDecision", "decision_at", "decide_slot",
           "h0_decision", "H0Decision",
           "DirectionDecision", "choose_directions",
           "Oracle2dResult", "oracle_2d", "write_decisions_csv"]


class CovertBudgetError(ValueError):
    """Covert cover at the adversary exceeds the secret user's budget."""


@dataclass(frozen=True)
class SlotEnv:
    """Scalar slot environment: received-power coefficients per unit
    transmit power plus the rates and weights of the sum objective."""

    c_ba: float      # secret air gain multiplying q_b
    c_ca: float      # covert air gain multiplying q_c
    c_cw: float      # covert adversary-side gain multiplying q_c
    g_bw: float      # secret adversary-side gain multiplying q_b
    q_b_max: float
    q_c_max: float
    sigma_a2: float
    sigma_w2: float
    gamma_t: float
    gamma_c: float
    neg_ln_eta: float
    kappa: float
    r_t: float
    r_c: float

    @property
    def budget(self):
        """Adversary-side received budget of the secret user at full power."""
        return self.q_b_max * self.g_bw

    @property
    def q_c_feasible(self):
        """Largest covert power honoring both the transmit cap and the
        received-power coupling."""
        if self.c_cw <= 0:
            return self.q_c_max
        return min(self.q_c_max, self.budget / self.c_cw)

    def rate(self, q_c):
        """Weighted slot rate at covert power(s) q_c (vectorized)."""
        return kernels.slot_rate_curve(
            q_c, self.c_ba, self.c_ca, self.c_cw, self.g_bw, self.q_b_max,
            self.sigma_a2, self.sigma_w2, self.gamma_t, self.gamma_c,
            self.neg_ln_eta, self.kappa, self.r_t, self.r_c)

    def split_powers(self, q_c):
        """(q_b, p_ba, p_ca, p_cw) at covert power q_c."""
        p_cw = self.c_cw * q_c
        if p_cw > self.budget * (1.0 + 1e-12):
            raise CovertBudgetError(
                f"covert cover {p_cw:.6g} W exceeds the adversary-side budget "
                f"{self.budget:.6g} W (q_c must stay <= {self.q_c_feasible:.6g} W)")
        q_b = max(self.q_b_max - p_cw / self.g_bw, 0.0)
        return q_b, self.c_ba * q_b, self.c_ca * q_c, p_cw


def slot_env(cfg, gains, slot=0):
    """Isotropic-mode environment: full-trace antenna gains at one slot."""
    return SlotEnv(
        c_ba=float(gains.g_ba[slot]), c_ca=float(gains.g_ca[slot]),
        c_cw=float(gains.g_cw), g_bw=float(gains.g_bw),
        q_b_max=cfg.q_b_max_w, q_c_max=cfg.q_c_max_w,
        sigma_a2=cfg.sigma_a2_w, sigma_w2=cfg.sigma_w2_w,
        gamma_t=cfg.gamma_t, gamma_c=cfg.gamma_c,
        neg_ln_eta=-math.log(cfg.eta_s), kappa=cfg.kappa,
        r_t=float(cfg.r_t), r_c=float(cfg.r_c))


def _mixing_basis(h_ca, h_cw):
    """Orthonormal pair spanning the covert beam family, with the phase
    folded so the leakage amplitude is |alpha| cos(theta) - beta sin(theta).

    Returns (e1, e2, |alpha|, beta); e2 is None when the leakage vector has
    no component off the covert user's own direction (single antenna, or
    parallel channels), in which case only theta = 0 is meaningful.
    """
    n1 = float(np.linalg.norm(h_ca))
    e1 = h_ca / n1
    alpha = complex(np.vdot(e1, h_cw))
    resid = h_cw - alpha * e1
    beta = float(np.linalg.norm(resid))
    if beta < 1e-12 * max(1.0, float(np.linalg.norm(h_cw))):
        return e1, None, abs(alpha), 0.0
    e2 = resid / beta
    if abs(alpha) > 0:
        e2 = e2 * np.exp(1j * np.angle(alpha))
    return e1, e2, abs(alpha), beta


def _beam(e1, e2, theta):
    if e2 is None or theta == 0.0:
        return e1
    return math.cos(theta) * e1 - math.sin(theta) * e2


def env_from_vectors(cfg, gains, h_ba, h_ca, h_cw, theta=0.0):
    """Direction-aware environment for explicit channel vectors.

    The secret beam is maximum-ratio toward the receiver; the covert beam is
    the family member at mixing angle theta. The secret user's adversary-side
    coupling stays at the full-trace gain so the carved-power bookkeeping
    remains feasible for every beam choice.
    """
    h_ba = np.asarray(h_ba, dtype=complex)
    h_ca = np.asarray(h_ca, dtype=complex)
    h_cw = np.asarray(h_cw, dtype=complex)
    for name, h in (("h_ba", h_ba), ("h_ca", h_ca), ("h_cw", h_cw)):
        if np.linalg.norm(h) == 0:
            raise ValueError(f"channel vector {name} is zero")
    e1, e2, alpha_abs, beta = _mixing_basis(h_ca, h_cw)
    u_c = _beam(e1, e2, theta)
    return SlotEnv(
        c_ba=float(np.linalg.norm(h_ba) ** 2),
        c_ca=float(np.abs(np.vdot(u_c, h_ca)) ** 2),
        c_cw=float(np.abs(np.vdot(u_c, h_cw)) ** 2),
        g_bw=float(gains.g_bw),
        q_b_max=cfg.q_b_max_w, q_c_max=cfg.q_c_max_w,
        sigma_a2=cfg.sigma_a2_w, sigma_w2=cfg.sigma_w2_w,
        gamma_t=cfg.gamma_t, gamma_c=cfg.gamma_c,
        neg_ln_eta=-math.log(cfg.eta_s), kappa=cfg.kappa,
        r_t=float(cfg.r_t), r_c=float(cfg.r_c))


def slot_objective(q_c, cfg, gains, slot=0, env=None):
    """Weighted slot rate at covert power q_c.

    Raises CovertBudgetError when the cover received by the adversary
    exceeds the secret user's full-power budget, and ValueError for powers
    outside [0, q_c_max].
    """
    env = slot_env(cfg, gains, slot) if env is None else env
    q = float(q_c)
    if not 0.0 <= q <= env.q_c_max * (1.0 + 1e-12):
        raise ValueError(f"q_c must lie in [0, {env.q_c_max:.6g}] W, got {q:.6g}")
    env.split_powers(q)  # budget check with the named-bound error
    return env.rate(q)


@dataclass(frozen=True)
class BsaResult:
    """Outcome of the per-slot power search."""

    q_c: float
    objective: float
    unimodal: bool     # False when the pre-scan saw multiple humps
    evaluations: int
    iterations: int    # bisection steps (bracket halvings)


class BsaBatch(NamedTuple):
    """Outcome of the power search over many slots: the `BsaResult`
    fields as arrays with one entry per slot."""

    q_c: np.ndarray
    objective: np.ndarray
    unimodal: np.ndarray
    evaluations: np.ndarray
    iterations: np.ndarray


def _bsa_rows(rate, hi, zeta1, q_c_max, prescan=129):
    """Derivative-sign bisection for the best covert power of many rows
    at once.

    rate(q, rows) gives the rate of the rows with indices `rows` at the
    powers q, one row of q per index. Row r is searched over [0, hi[r]].
    Every step of the search makes one rate call for all rows still
    active, and each row takes exactly the steps, and gets exactly the
    result, of a search of that row alone. A coarse pre-scan checks the
    single-hump assumption; rows where it sees several interior rises get
    their bracket from a dense grid and are flagged. Unimodal rows whose
    slope does not change sign stop at an end point. The others bisect on
    the sign of the numerical derivative until the bracket is within
    zeta1.
    """
    hi = np.asarray(hi, dtype=float)
    if (hi <= 0).any():
        raise CovertBudgetError("no feasible covert power interval")
    step = max(1e-6 * q_c_max, 1e-12)
    every = np.arange(hi.size)

    def slope(q, rows):
        if not rows.size:
            return np.empty(0)
        f = rate(np.stack([np.maximum(q - step, 0.0),
                           np.minimum(q + step, hi[rows])], axis=1), rows)
        return f[:, 1] - f[:, 0]

    # pre-scan for the single-hump assumption (rises below noise are ignored)
    vals = rate(np.linspace(0.0, hi, prescan, axis=-1), every)
    evals = np.full(hi.size, prescan)
    diffs = np.diff(vals, axis=1)
    noise = 1e-12 * np.fmax(1.0, np.max(np.abs(vals), axis=1))
    unimodal = ~((diffs[:, :-1] <= 0)
                 & (diffs[:, 1:] > noise[:, None])).any(axis=1)

    lo, up = np.zeros(hi.size), hi.copy()
    multi = np.flatnonzero(~unimodal)
    if multi.size:
        dense = np.linspace(0.0, hi[multi], 10_001, axis=-1)
        best = np.argmax(rate(dense, multi), axis=1)
        pick = np.arange(multi.size)
        lo[multi] = dense[pick, np.maximum(best - 1, 0)]
        up[multi] = dense[pick, np.minimum(best + 1, dense.shape[1] - 1)]
        evals[multi] += dense.shape[1]

    # unimodal rows still rising at hi, or already falling at 0, stop there;
    # each end-point slope test costs two evaluations
    q_c = np.empty(hi.size)
    bisect = ~unimodal
    uni = np.flatnonzero(unimodal)
    top = slope(hi[uni], uni) >= 0
    q_c[uni[top]] = hi[uni[top]]
    evals[uni] += 2
    rest = uni[~top]
    bottom = slope(np.zeros(rest.size), rest) <= 0
    q_c[rest[bottom]] = 0.0
    evals[rest] += 2
    bisect[rest[~bottom]] = True

    iters = np.zeros(hi.size, dtype=int)
    active = np.flatnonzero(bisect & (up - lo > zeta1))
    while active.size:
        mid = 0.5 * (lo[active] + up[active])
        rising = slope(mid, active) > 0
        lo[active[rising]] = mid[rising]
        up[active[~rising]] = mid[~rising]
        iters[active] += 1
        active = active[up[active] - lo[active] > zeta1]
    q_c[bisect] = 0.5 * (lo[bisect] + up[bisect])
    objective = rate(q_c[:, None], every)[:, 0]
    return BsaBatch(q_c=q_c, objective=objective, unimodal=unimodal,
                    evaluations=evals + 2 * iters + 1, iterations=iters)


def _bsa_envs(envs, zeta1):
    """`_bsa_rows` over slot environments that differ only in their gains
    c_ba, c_ca and c_cw (one scenario, many slots or beams)."""
    e = envs[0]
    c_ba, c_ca, c_cw = np.array([[v.c_ba, v.c_ca, v.c_cw]
                                 for v in envs]).T[:, :, None]

    def rate(q, rows):
        return kernels.slot_rate_curve(
            q, c_ba[rows], c_ca[rows], c_cw[rows], e.g_bw, e.q_b_max,
            e.sigma_a2, e.sigma_w2, e.gamma_t, e.gamma_c, e.neg_ln_eta,
            e.kappa, e.r_t, e.r_c)

    return _bsa_rows(rate, [v.q_c_feasible for v in envs], zeta1, e.q_c_max)


def bsa_optimize(cfg=None, gains=None, zeta1=None, slot=0, env=None,
                 prescan=129):
    """Derivative-sign bisection for the best covert power in one slot.

    Searches [0, q_c_feasible]. A coarse pre-scan checks the single-hump
    assumption; when it sees several interior rises the search falls back to
    a dense grid plus local bisection refinement and flags the result.
    The returned power is within zeta1 (default: the scenario tolerance)
    of the true argmax. This is the batched search of `bsa_slots` run on
    one slot, evaluated through `env.rate`.
    """
    env = slot_env(cfg, gains, slot) if env is None else env
    if zeta1 is None:
        zeta1 = (cfg.zeta1_w if cfg is not None else 1e-4 * env.q_c_max)

    def rate(q, rows):
        return np.reshape(env.rate(q.ravel()), q.shape)

    res = _bsa_rows(rate, [env.q_c_feasible], zeta1, env.q_c_max, prescan)
    return BsaResult(q_c=float(res.q_c[0]),
                     objective=float(res.objective[0]),
                     unimodal=bool(res.unimodal[0]),
                     evaluations=int(res.evaluations[0]),
                     iterations=int(res.iterations[0]))


def bsa_slots(cfg, gains):
    """`bsa_optimize` of every slot of `gains` at once (isotropic mode),
    to the scenario tolerance `cfg.zeta1_w`.

    Returns a `BsaBatch` whose entries equal the one-slot searches.
    """
    envs = [slot_env(cfg, gains, s) for s in range(len(gains.g_ba))]
    return _bsa_envs(envs, cfg.zeta1_w)


@dataclass(frozen=True)
class BeamformDecision:
    """One slot's transmit design and its achieved metrics."""

    q_c: float
    q_b: float
    u_b: np.ndarray
    u_c: np.ndarray
    theta: float
    r_w: float
    r_s: float
    scp_h1: float
    ccp: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "u_b", np.asarray(self.u_b, dtype=complex))
        object.__setattr__(self, "u_c", np.asarray(self.u_c, dtype=complex))
        self.u_b.setflags(write=False)
        self.u_c.setflags(write=False)

    @property
    def w_b(self):
        return math.sqrt(self.q_b) * self.u_b

    @property
    def w_c(self):
        return math.sqrt(self.q_c) * self.u_c

    def covertness_residual(self, env):
        """|budget - (p_bw + p_cw)| relative to the budget."""
        p_bw = self.q_b * env.g_bw
        p_cw = self.q_c * env.c_cw
        return abs(env.budget - (p_bw + p_cw)) / env.budget


def _decision_from_env(env, q_c, u_b, u_c, theta):
    env.split_powers(q_c)  # budget check with the named-bound error
    t = kernels.h1_slot(q_c, env.c_ba, env.c_ca, env.c_cw, env.g_bw,
                        env.q_b_max, env.sigma_a2, env.sigma_w2, env.gamma_t,
                        env.gamma_c, math.exp(-env.neg_ln_eta), env.kappa,
                        env.r_t, env.r_c)
    return BeamformDecision(q_c=q_c, q_b=float(t.q_b), u_b=u_b, u_c=u_c,
                            theta=theta, r_w=float(t.r_w), r_s=float(t.r_s),
                            scp_h1=float(t.scp), ccp=float(t.scp * t.tail),
                            rate=float(t.rate))


def decision_at(cfg, gains, q_c, slot=0, env=None):
    """Package the achieved per-slot metrics at a given covert power.

    Unit directions are the uniform surrogate (the isotropic model tracks
    powers, not phases).
    """
    env = slot_env(cfg, gains, slot) if env is None else env
    u_b = np.ones(cfg.n_b, dtype=complex) / math.sqrt(cfg.n_b)
    u_c = np.ones(cfg.n_c, dtype=complex) / math.sqrt(cfg.n_c)
    return _decision_from_env(env, float(q_c), u_b, u_c, theta=0.0)


def decide_slot(cfg, gains, slot=0, zeta1=None, env=None):
    """Isotropic-mode decision for one slot: run the power search and
    package the achieved metrics."""
    env = slot_env(cfg, gains, slot) if env is None else env
    res = bsa_optimize(cfg, gains, zeta1=zeta1, slot=slot, env=env)
    return decision_at(cfg, gains, res.q_c, slot=slot, env=env)


@dataclass(frozen=True)
class H0Decision:
    """Covert-user-silent design: the secret user transmits at full power
    with redundancy high enough to honor the outage cap."""

    q_b: float
    r_w: float
    r_s: float
    scp_h0: float
    sop_h0: float
    rate: float


def h0_decision(cfg, gains, slot=0):
    """Full-power maximum-ratio design with the covert user silent
    (`kernels.h0_slot`), with its secrecy outage."""
    p_bw = cfg.q_b_max_w * float(gains.g_bw)
    p_ba = cfg.q_b_max_w * float(gains.g_ba[slot])
    t = kernels.h0_slot(p_ba, p_bw, cfg.sigma_a2_w, cfg.sigma_w2_w,
                        cfg.gamma_t, cfg.eta_s, cfg.r_t)
    sop0 = secmetrics.sop_h0(p_bw, cfg.sigma_w2_w, t.r_w)
    return H0Decision(q_b=cfg.q_b_max_w, r_w=float(t.r_w),
                      r_s=float(t.r_s), scp_h0=float(t.scp), sop_h0=sop0,
                      rate=float(t.rate))


@dataclass(frozen=True)
class DirectionDecision:
    """Joint (theta, q_c) choice over the rank-one beam family."""

    u_b: np.ndarray
    u_c: np.ndarray
    theta: float
    decision: BeamformDecision
    env: SlotEnv


def choose_directions(cfg, gains, h_ba, h_ca, h_cw, zeta1=None, thetas=33):
    """Pick beam directions from explicit channel vectors.

    The secret beam is maximum-ratio toward the receiver. The covert beam
    is selected from the two-dimensional mixing family by a coarse angle
    scan, each angle scored by its own power search; theta = 0 reproduces
    the pure maximum-ratio beam, so the scan never does worse than it.
    Returns the directions and the winning power decision; beamformers are
    exactly rank one (w = sqrt(power) * direction).
    """
    h_ba = np.asarray(h_ba, dtype=complex)
    h_ca = np.asarray(h_ca, dtype=complex)
    h_cw = np.asarray(h_cw, dtype=complex)
    for name, h in (("h_ba", h_ba), ("h_ca", h_ca), ("h_cw", h_cw)):
        if np.linalg.norm(h) == 0:
            raise ValueError(f"channel vector {name} is zero")
    u_b = h_ba / np.linalg.norm(h_ba)
    e1, e2, alpha_abs, beta = _mixing_basis(h_ca, h_cw)
    if e2 is None:
        angles = np.array([0.0])
    else:
        angles = np.linspace(0.0, 0.5 * math.pi, thetas)
        if beta > 0:
            null_theta = math.atan2(alpha_abs, beta)
            angles = np.unique(np.append(angles, null_theta))

    zeta1 = cfg.zeta1_w if zeta1 is None else zeta1

    def score(cands):
        """(theta, q_c, objective, env) of the best of the angles, the
        first one on ties; one batched power search scores them all."""
        envs = [env_from_vectors(cfg, gains, h_ba, h_ca, h_cw, theta=float(t))
                for t in cands]
        res = _bsa_envs(envs, zeta1)
        i = int(np.argmax(res.objective))
        return float(cands[i]), float(res.q_c[i]), res.objective[i], envs[i]

    best = score(angles)
    if angles.size > 1:
        # refine around the coarse winner: two shrinking local passes
        span = float(np.max(np.diff(angles)))
        for _ in range(2):
            center = best[0]
            local = score(np.linspace(max(center - span, 0.0),
                                      min(center + span, 0.5 * math.pi), 9))
            if local[2] > best[2]:
                best = local
            span /= 4.0
    theta, q_c, _, env = best
    u_c = _beam(e1, e2, theta)
    decision = _decision_from_env(env, q_c, u_b, u_c, theta)
    return DirectionDecision(u_b=u_b, u_c=u_c, theta=theta,
                             decision=decision, env=env)


@dataclass(frozen=True)
class Oracle2dResult:
    """Exhaustive search outcome over (covert power, mixing angle)."""

    q_c: float
    theta: float
    objective: float


def oracle_2d(cfg, gains, h_ba, h_ca, h_cw, grid=(64, 64)):
    """Brute-force search of the (q_c, theta) rectangle.

    Used by tests to bound the suboptimality of the bisection plus angle
    scan; grid resolution must be at least 64 x 64.
    """
    n_q, n_theta = grid
    if n_q < 64 or n_theta < 64:
        raise ValueError("oracle grid must be at least 64 x 64")
    _, e2, _, _ = _mixing_basis(np.asarray(h_ca, dtype=complex),
                                np.asarray(h_cw, dtype=complex))
    angles = (np.array([0.0]) if e2 is None
              else np.linspace(0.0, 0.5 * math.pi, n_theta))
    best = None
    q_grid = np.linspace(0.0, cfg.q_c_max_w, n_q)
    for theta in angles:
        env = env_from_vectors(cfg, gains, h_ba, h_ca, h_cw, theta=float(theta))
        vals = env.rate(q_grid)
        ix = int(np.argmax(vals))
        if best is None or vals[ix] > best.objective:
            best = Oracle2dResult(q_c=float(q_grid[ix]), theta=float(theta),
                                  objective=float(vals[ix]))
    return best


_DECISION_COLUMNS = ("slot", "q_b", "q_c", "theta", "r_w", "r_s",
                     "scp_h1", "ccp", "rate")


def write_decisions_csv(path, decisions):
    """One row per slot decision (atomic temp-plus-rename).

    A covert-silent `H0Decision` row carries 0 in the covert columns (q_c,
    theta, ccp) and its scp_h0 in the scp_h1 column.
    """
    write_atomic_csv(path, _DECISION_COLUMNS, [
        [slot, d.q_b, 0.0, 0.0, d.r_w, d.r_s, d.scp_h0, 0.0, d.rate]
        if isinstance(d, H0Decision) else
        [slot, d.q_b, d.q_c, d.theta, d.r_w, d.r_s, d.scp_h1, d.ccp, d.rate]
        for slot, d in enumerate(decisions)])
