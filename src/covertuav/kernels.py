"""The slot model and the radiometer kernel, in numpy.

Every planner path evaluates the per-slot rate here: the power search
(`slot_rate_curve`, one row of powers per slot), the per-slot decision
table, the trajectory rate and its linearization, and the
covert-silent benchmark. `h1_slot` is the covert-active model and
`h0_slot` the covert-silent one; both broadcast over arrays of slots.
Their one input is a `SlotEnv` record, which also holds the
received-power coupling; `slot_env` builds it from a scenario and a gain
table. The connection probabilities and the covert-link tail are the
closed forms of `secmetrics` (`scp_h1`, `ccp`, `scp_h0`), evaluated
through their unchecked cores, so the formulas that `validate` and the
Monte Carlo oracle check are the ones the planner runs.

`radiometer_statistic` is the per-trial statistic of the detection Monte
Carlo; random draws happen outside it.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import secmetrics

__all__ = ["active_backend", "CovertBudgetError", "SlotEnv", "slot_env",
           "H1Terms", "h1_slot", "H0Terms", "h0_slot",
           "radiometer_statistic", "slot_rate_curve"]


def active_backend():
    """Name of the array backend (numpy is the only one)."""
    return "numpy"


class CovertBudgetError(ValueError):
    """Covert cover at the adversary exceeds the secret user's budget."""


@dataclass(frozen=True)
class SlotEnv:
    """Slot environment: received-power gains per unit transmit power plus
    the powers, noise, thresholds and weights of the sum objective. The
    gains c_ba, c_ca and c_cw are scalars for one slot, or arrays with one
    entry per slot (or beam) that broadcast together."""

    c_ba: float      # secret air gain multiplying q_b
    c_ca: float      # covert air gain multiplying q_c
    c_cw: float      # covert adversary-side gain multiplying q_c
    g_bw: float      # secret adversary-side gain multiplying q_b
    q_b_max: float
    q_c_max: float
    sigma_a2: float
    sigma_w2: float
    eta_s: float     # secrecy outage cap
    kappa: float
    r_t: float
    r_c: float

    @property
    def gamma_t(self):
        """SNR threshold 2^r_t - 1 of the secret stream."""
        return 2.0 ** self.r_t - 1.0

    @property
    def gamma_c(self):
        """SNR threshold 2^r_c - 1 of the covert stream."""
        return 2.0 ** self.r_c - 1.0

    @property
    def budget(self):
        """Adversary-side received budget of the secret user at full power."""
        return self.q_b_max * self.g_bw

    @property
    def q_c_feasible(self):
        """Largest covert power honoring both the transmit cap and the
        received-power coupling, per slot when c_cw is an array."""
        with np.errstate(divide="ignore"):   # no cover: only the cap binds
            cap = np.minimum(self.q_c_max,
                             self.budget / np.asarray(self.c_cw, dtype=float))
        return cap if cap.ndim else float(cap)

    def rate(self, q_c):
        """Weighted slot rate at covert power(s) q_c (`slot_rate_curve`)."""
        return slot_rate_curve(q_c, self)

    def split_powers(self, q_c):
        """(q_b, p_ba, p_ca, p_cw) of one slot at covert power q_c
        (`_coupled_powers`); cover beyond the budget raises
        CovertBudgetError naming the bound."""
        q_b, p_ba, p_ca, p_cw = map(float, _coupled_powers(q_c, self))
        self.check_cover(p_cw)
        return q_b, p_ba, p_ca, p_cw

    def check_cover(self, p_cw):
        """Raise CovertBudgetError naming the bound when the cover p_cw at
        the adversary (a scalar, or one entry per slot) exceeds the
        budget."""
        over = np.flatnonzero(np.asarray(p_cw) > self.budget * (1.0 + 1e-12))
        if over.size:
            s = over[0]
            cap = np.broadcast_to(self.q_c_feasible, np.shape(p_cw)).ravel()[s]
            where = f"slot {s}: " if np.ndim(p_cw) else ""
            raise CovertBudgetError(
                f"{where}covert cover {np.ravel(p_cw)[s]:.6g} W exceeds the "
                f"adversary-side budget {self.budget:.6g} W "
                f"(q_c must stay <= {cap:.6g} W)")


def _coupled_powers(q_c, env):
    """The power split at covert power(s) q_c: the cover p_cw = c_cw*q_c at
    the adversary is carved out of the secret user's budget q_b_max*g_bw,
    which leaves the secret power q_b; returns (q_b, p_ba, p_ca, p_cw)."""
    p_cw = env.c_cw * q_c
    q_b = np.maximum(env.q_b_max - p_cw / env.g_bw, 0.0)
    return q_b, env.c_ba * q_b, env.c_ca * q_c, p_cw


def slot_env(cfg, gains, slot=None):
    """Isotropic slot environment of scenario cfg on the per-antenna gain
    table `gains` (`channel.ChannelGains`), per slot or, with a slot index,
    that slot's scalars. Every link carries its full-trace gain N·a²: the
    one place the antenna counts enter the slot model."""
    c_ba, c_ca = cfg.n_b * gains.a2_ba, cfg.n_c * gains.a2_ca
    if slot is not None:
        c_ba, c_ca = float(c_ba[slot]), float(c_ca[slot])
    return SlotEnv(
        c_ba=c_ba, c_ca=c_ca, c_cw=float(cfg.n_c * gains.a2_cw),
        g_bw=float(cfg.n_b * gains.a2_bw),
        q_b_max=cfg.q_b_max_w, q_c_max=cfg.q_c_max_w,
        sigma_a2=cfg.sigma_a2_w, sigma_w2=cfg.sigma_w2_w, eta_s=cfg.eta_s,
        kappa=cfg.kappa, r_t=float(cfg.r_t), r_c=float(cfg.r_c))


class H1Terms(NamedTuple):
    """Covert-active slot model at given covert powers (arrays per slot).

    d_ba and d_ca are the rate's partials along the requested chain
    factors (`h1_slot`), present only when requested.
    """

    q_b: np.ndarray
    p_ba: np.ndarray
    p_ca: np.ndarray
    p_cw: np.ndarray
    r_w: np.ndarray
    r_s: np.ndarray
    scp: np.ndarray      # secret connection probability under cover
    tail: np.ndarray     # covert-link tail; the covert connection is scp*tail
    rate: np.ndarray
    d_ba: np.ndarray = None
    d_ca: np.ndarray = None


def h1_slot(q_c, env, chain=None):
    """Weighted secret/covert slot rate with the covert user transmitting.

    The cover c_cw*q_c received by the adversary is carved out of the secret
    user's budget q_b_max*g_bw, which fixes the secret power q_b and the
    redundancy rate holding the secrecy outage at eta_s
    (`secmetrics.secrecy_redundancy`). The secret stream connects with
    probability scp over the faded covert interference (`secmetrics.scp_h1`);
    the covert stream also needs its own link to clear gamma_c, so it
    connects with scp*tail (`secmetrics.ccp`). The rate is
    kappa*scp*r_s + (1-kappa)*scp*tail*r_c. q_c may be a per-slot array
    that broadcasts with the gains of the `SlotEnv` env. Cover beyond the
    budget is not masked here (`slot_rate_curve` does that).

    With chain = (s_ba, s_ca), the per-slot derivatives of ln c_ba and
    ln c_ca in some variables x_ba and x_ca, the rate's partials in x_ba and
    x_ca are returned as well; chain = (1, 1) gives the partials in the log
    gains. The factors enter before the terms are summed, so a partial that
    nearly cancels keeps the rounding of a direct evaluation.
    """
    q_c = np.asarray(q_c, dtype=float)
    sigma_a2, gamma_t, gamma_c = env.sigma_a2, env.gamma_t, env.gamma_c
    kappa, budget = env.kappa, env.budget
    q_b, p_ba, p_ca, p_cw = _coupled_powers(q_c, env)
    r_w = secmetrics.secrecy_redundancy(budget, np.minimum(p_cw, budget),
                                        env.sigma_w2, env.eta_s)
    r_s = np.maximum(env.r_t - r_w, 0.0)
    ratio, scp = secmetrics._scp_interference(p_ba, p_ca, sigma_a2, gamma_t)
    tail = secmetrics._exceed_prob(p_ca, gamma_c * sigma_a2)
    rate = kappa * scp * r_s + (1.0 - kappa) * scp * tail * env.r_c
    if chain is None:
        return H1Terms(q_b, p_ba, p_ca, p_cw, r_w, r_s, scp, tail, rate)
    s_ba, s_ca = chain
    # scp = 1 - exp(-ratio) with ratio = (p_ba - gamma_t sigma)/(gamma_t p_ca):
    # d ratio / d ln c_ba = p_ba/(gamma_t p_ca), d ratio / d ln c_ca = -ratio;
    # the ratio is 0 wherever the interference vanishes
    interior = (ratio > 0) & np.isfinite(ratio)
    live = p_ca > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        damp = np.where(interior, np.exp(-np.where(interior, ratio, 0.0)), 0.0)
        dscp_ba = damp * np.where(interior, s_ba * p_ba / (gamma_t * p_ca), 0.0)
        dtail_ca = np.where(live, tail * (gamma_c * sigma_a2
                                          / np.where(live, p_ca, 1.0)) * s_ca,
                            0.0)
        dscp_ca = damp * np.where(interior, -ratio * s_ca, 0.0)
    w_cov = (1.0 - kappa) * env.r_c
    d_ba = (kappa * r_s + w_cov * tail) * dscp_ba
    d_ca = kappa * r_s * dscp_ca + w_cov * (tail * dscp_ca + scp * dtail_ca)
    return H1Terms(q_b, p_ba, p_ca, p_cw, r_w, r_s, scp, tail, rate, d_ba, d_ca)


class H0Terms(NamedTuple):
    """Covert-silent slot model; d_ba is the rate's partial along the
    requested chain factor (`h0_slot`)."""

    r_w: np.ndarray
    r_s: np.ndarray
    scp: np.ndarray
    rate: np.ndarray
    d_ba: np.ndarray = None


def h0_slot(q_b, env, chain=None):
    """Secret-only slot rate with the covert user silent.

    The secret user transmits q_b, which broadcasts with env's gains. The
    redundancy rate holds the secrecy outage at eta_s by the rule the
    covert-active model uses at zero cover (`secmetrics.secrecy_redundancy`,
    which then inverts `secmetrics.sop_h0`); the secret stream connects
    with the Rayleigh tail exp(-gamma_t sigma_a2 / p_ba)
    (`secmetrics.scp_h0`). With chain, the per-slot derivative of ln c_ba
    in some x, the rate's partial in x is returned as well.
    """
    p_ba = env.c_ba * q_b
    r_w = secmetrics.secrecy_redundancy(env.g_bw * q_b, 0.0, env.sigma_w2,
                                        env.eta_s)
    r_s = np.maximum(env.r_t - r_w, 0.0)
    scp = secmetrics._exceed_prob(p_ba, env.gamma_t * env.sigma_a2)
    rate = scp * r_s
    if chain is None:
        return H0Terms(r_w, r_s, scp, rate)
    return H0Terms(r_w, r_s, scp, rate,
                   rate * (env.gamma_t * env.sigma_a2 / p_ba) * chain)


def radiometer_statistic(draws, scale):
    """Per-trial average received power from standard-normal draws.

    `draws` has one row per trial and 2m columns (real/imag parts of m
    symbols, unit variance); `scale` is the per-symbol complex variance.
    Returns the length-trials vector of block-averaged powers.
    """
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] < 2:
        raise ValueError("draws must be (trials, 2m) with m >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    return (draws * draws).sum(axis=1) * (float(scale) / draws.shape[1])


def slot_rate_curve(q_c, env):
    """Weighted slot rate (`h1_slot`) of the `SlotEnv` env over an array of
    covert transmit powers.

    Infeasible powers (cover exceeding the budget) map to -inf so grid
    argmax skips them. The gains of env may be per-slot columns (shape
    (k, 1)) that broadcast against a (k, m) q_c, one row of powers per
    slot; otherwise q_c is scalar or one-dimensional. Scalar q_c with
    scalar gains returns a scalar.
    """
    q = np.ascontiguousarray(np.atleast_1d(q_c), dtype=np.float64)
    if q.ndim > max(1, *(np.ndim(c) for c in (env.c_ba, env.c_ca, env.c_cw))):
        raise ValueError("q_c must be scalar or one-dimensional, "
                         "or have one row per slot of the gains")
    if env.g_bw <= 0:
        raise ValueError("g_bw must be positive")
    if (q < 0).any():
        raise ValueError("q_c must be nonnegative")
    t = h1_slot(q, env)
    out = np.where(t.p_cw <= env.budget, t.rate, -np.inf)
    return float(out[0]) if np.ndim(q_c) == 0 and out.size == 1 else out
