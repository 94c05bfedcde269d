"""The slot model and the radiometer kernel, in numpy.

Every planner path evaluates the per-slot rate here: the power search
(`slot_rate_curve`, one row of powers per slot), the per-slot
decisions, the trajectory rate and its linearization, and the
covert-silent benchmark. `h1_slot` is the covert-active model and
`h0_slot` the covert-silent one; both broadcast over arrays of slots.
The closed forms in `secmetrics` (`scp_h1`, `ccp`, ...) stay the reference
the Monte Carlo oracle and the tests compare against.

`radiometer_statistic` is the per-trial statistic of the detection Monte
Carlo; random draws happen outside it.
"""

import math
from typing import NamedTuple

import numpy as np

from . import secmetrics

__all__ = ["active_backend", "H1Terms", "h1_slot", "H0Terms", "h0_slot",
           "radiometer_statistic", "slot_rate_curve"]


def active_backend():
    """Name of the array backend (numpy is the only one)."""
    return "numpy"


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


def h1_slot(q_c, c_ba, c_ca, c_cw, g_bw, q_b_max, sigma_a2, sigma_w2,
            gamma_t, gamma_c, eta_s, kappa, r_t, r_c, chain=None):
    """Weighted secret/covert slot rate with the covert user transmitting.

    The cover c_cw*q_c received by the adversary is carved out of the secret
    user's budget q_b_max*g_bw, which fixes the secret power q_b and the
    redundancy rate holding the secrecy outage at eta_s
    (`secmetrics.secrecy_redundancy`). The secret stream connects with
    probability scp over the faded covert interference; the covert stream
    also needs its own link to clear gamma_c. The rate is
    kappa*scp*r_s + (1-kappa)*scp*tail*r_c. q_c, c_ba, c_ca and c_cw may
    be per-slot arrays that broadcast together; the rest are scalars. Cover
    beyond the budget is not masked here (`slot_rate_curve` does that).

    With chain = (s_ba, s_ca), the per-slot derivatives of ln c_ba and
    ln c_ca in some variables x_ba and x_ca, the rate's partials in x_ba and
    x_ca are returned as well; chain = (1, 1) gives the partials in the log
    gains. The factors enter before the terms are summed, so a partial that
    nearly cancels keeps the rounding of a direct evaluation.
    """
    q_c = np.asarray(q_c, dtype=float)
    budget = q_b_max * g_bw
    p_cw = c_cw * q_c
    q_b = np.maximum(q_b_max - p_cw / g_bw, 0.0)
    p_ba = c_ba * q_b
    p_ca = c_ca * q_c
    r_w = secmetrics.secrecy_redundancy(budget, np.minimum(p_cw, budget),
                                        sigma_w2, eta_s)
    r_s = np.maximum(r_t - r_w, 0.0)
    num = p_ba - gamma_t * sigma_a2
    live = p_ca > 0
    # a vanishing interference sends the ratio to +inf (scp -> 1), the limit
    # that is meant; gamma_t = 0 divides by zero and is settled below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(live, num / np.where(live, gamma_t * p_ca, 1.0), 0.0)
        tail = np.where(live,
                        np.exp(-gamma_c * sigma_a2 / np.where(live, p_ca, 1.0)),
                        0.0)
    scp = np.where(live,
                   np.where(ratio > 0, -np.expm1(-np.maximum(ratio, 0.0)), 0.0),
                   (num >= 0) * 1.0)
    if gamma_t <= 0:
        scp = np.ones_like(scp)
    rate = kappa * scp * r_s + (1.0 - kappa) * scp * tail * r_c
    if chain is None:
        return H1Terms(q_b, p_ba, p_ca, p_cw, r_w, r_s, scp, tail, rate)
    s_ba, s_ca = chain
    # scp = 1 - exp(-ratio) with ratio = (p_ba - gamma_t sigma)/(gamma_t p_ca):
    # d ratio / d ln c_ba = p_ba/(gamma_t p_ca), d ratio / d ln c_ca = -ratio
    interior = live & (ratio > 0) & np.isfinite(ratio)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        damp = np.where(interior, np.exp(-np.where(interior, ratio, 0.0)), 0.0)
        dscp_ba = damp * np.where(interior, s_ba * p_ba / (gamma_t * p_ca), 0.0)
        dtail_ca = np.where(live, tail * (gamma_c * sigma_a2
                                          / np.where(live, p_ca, 1.0)) * s_ca,
                            0.0)
        dscp_ca = damp * np.where(interior, -ratio * s_ca, 0.0)
    w_cov = (1.0 - kappa) * r_c
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


def h0_slot(p_ba, p_bw, sigma_a2, sigma_w2, gamma_t, eta_s, r_t, chain=None):
    """Secret-only slot rate with the covert user silent.

    The redundancy rate is the adversary's full-leakage capacity
    log2(1 + p_bw/sigma_w2), raised to the outage-cap boundary whenever that
    cap binds; the secret stream connects with the Rayleigh tail
    exp(-gamma_t sigma_a2 / p_ba). p_ba and p_bw may be arrays that
    broadcast together. With chain, the per-slot derivative of ln p_ba in
    some x, the rate's partial in x is returned as well.
    """
    r_w = np.maximum(np.log2(1.0 + p_bw / sigma_w2),
                     secmetrics.redundancy_for_outage_cap(p_bw, sigma_w2,
                                                          eta_s))
    r_s = np.maximum(r_t - r_w, 0.0)
    scp = np.exp(-gamma_t * sigma_a2 / p_ba)
    rate = scp * r_s
    if chain is None:
        return H0Terms(r_w, r_s, scp, rate)
    return H0Terms(r_w, r_s, scp, rate,
                   rate * (gamma_t * sigma_a2 / p_ba) * chain)


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


def slot_rate_curve(q_c, c_ba, c_ca, c_cw, g_bw, q_b_max, sigma_a2, sigma_w2,
                    gamma_t, gamma_c, neg_ln_eta, kappa, r_t, r_c):
    """Weighted slot rate (`h1_slot`) over an array of covert transmit powers.

    The outage cap is eta_s = exp(-neg_ln_eta). Infeasible powers (cover
    exceeding the budget) map to -inf so grid argmax skips them. The gains
    c_ba, c_ca and c_cw may be per-slot columns (shape (k, 1)) that
    broadcast against a (k, m) q_c, one row of powers per slot; otherwise
    q_c is scalar or one-dimensional. Scalar q_c with scalar gains returns
    a scalar.
    """
    q = np.ascontiguousarray(np.atleast_1d(q_c), dtype=np.float64)
    gains = [np.asarray(c, dtype=np.float64) for c in (c_ba, c_ca, c_cw)]
    if q.ndim > max(1, *(c.ndim for c in gains)):
        raise ValueError("q_c must be scalar or one-dimensional, "
                         "or have one row per slot of the gains")
    if g_bw <= 0:
        raise ValueError("g_bw must be positive")
    if (q < 0).any():
        raise ValueError("q_c must be nonnegative")
    t = h1_slot(q, *gains, float(g_bw),
                float(q_b_max), float(sigma_a2), float(sigma_w2),
                float(gamma_t), float(gamma_c), math.exp(-float(neg_ln_eta)),
                float(kappa), float(r_t), float(r_c))
    out = np.where(t.p_cw <= float(q_b_max) * float(g_bw), t.rate, -np.inf)
    return float(out[0]) if np.ndim(q_c) == 0 and out.size == 1 else out
