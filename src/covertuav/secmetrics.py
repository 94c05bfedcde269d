"""Closed-form security metrics.

Connection/outage probabilities for the secret and covert streams, the
adversary's radiometer statistics, and the wiretap-code redundancy rules.
Everything here is deterministic given received powers; the Monte Carlo
counterparts in `mc_oracle` rebuild the same events from raw draws.

Conventions: powers in watts, rates in bits per channel use, probabilities
clamped to [0, 1]. Functions broadcast over numpy arrays.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._csvio import write_atomic_csv

__all__ = [
    "scp_h0", "scp_h1", "sop_h0", "sop_h1", "ccp",
    "DetectionStats", "optimal_threshold", "false_alarm",
    "missed_detection", "dep", "detection_stats",
    "secrecy_redundancy", "redundancy_for_outage_cap", "secret_rate",
    "SecurityReport", "security_report", "write_security_csv",
]


def _check_nonneg(name, x):
    if (np.asarray(x) < 0).any():
        raise ValueError(f"{name} must be >= 0")


def _check_pos(name, x):
    if (np.asarray(x) <= 0).any():
        raise ValueError(f"{name} must be positive")


def _exceed_prob(power, threshold_power):
    """Pr{X >= threshold_power} for X exponential with mean `power`."""
    power = np.asarray(power, dtype=float)
    threshold_power = np.asarray(threshold_power, dtype=float)
    # a threshold far above a tiny mean power overflows the ratio to +inf,
    # which is the right limit: exp(-inf) = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.exp(-np.divide(threshold_power, power,
                                out=np.full(np.broadcast(power, threshold_power).shape, np.inf),
                                where=power > 0))
    # zero power: certain only for a zero threshold
    out = np.where((power <= 0) & (threshold_power <= 0), 1.0, out)
    return out if out.ndim else float(out)


def scp_h0(p_ba, sigma_a2, r_t):
    """Secret connection probability with no covert interference.

    Pr{ p|h|²/sigma² >= 2^r_t - 1 } over Rayleigh fading of the secret
    user's air link, with mean beamformed power p_ba.
    """
    _check_nonneg("p_ba", p_ba)
    _check_pos("sigma_a2", sigma_a2)
    gamma = 2.0 ** np.asarray(r_t, dtype=float) - 1.0
    return _exceed_prob(p_ba, gamma * np.asarray(sigma_a2, dtype=float))


def scp_h1(p_ba, p_ca, sigma_a2, r_t):
    """Secret connection probability under covert interference.

    The secret beamformed power p_ba is treated as fixed; the covert
    interference power is exponential with mean p_ca. Clamped to [0, 1];
    a non-positive interference margin means certain outage, and the
    p_ca -> 0 limit is the indicator of p_ba exceeding the threshold.
    """
    _check_nonneg("p_ba", p_ba)
    _check_nonneg("p_ca", p_ca)
    _check_pos("sigma_a2", sigma_a2)
    p_ba = np.asarray(p_ba, dtype=float)
    p_ca = np.asarray(p_ca, dtype=float)
    gamma = 2.0 ** np.asarray(r_t, dtype=float) - 1.0
    num = p_ba - gamma * np.asarray(sigma_a2, dtype=float)
    shape = np.broadcast(num, p_ca, gamma).shape
    num_b = np.broadcast_to(num, shape)
    den_b = np.broadcast_to(gamma * p_ca, shape)
    # a margin far above a tiny interference overflows the ratio to +inf,
    # which is the right limit: -expm1(-inf) = 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.divide(num_b, den_b, out=np.full(shape, np.inf), where=den_b > 0)
    # den == 0 (no interference or gamma == 0): step indicator in num
    ratio = np.where(den_b > 0, ratio, np.where(num_b > 0, np.inf, -np.inf))
    ratio = np.where((den_b == 0) & (num_b == 0), np.inf, ratio)  # gamma == 0: certain
    out = np.where(ratio > 0, -np.expm1(-np.maximum(ratio, 0.0)), 0.0)
    return out if out.ndim else float(out)


def sop_h0(p_bw, sigma_w2, r_w):
    """Secrecy outage probability with no covert cover.

    Pr{ adversary SNR >= 2^r_w - 1 } over Rayleigh fading of the secret
    user's ground link, with mean received power p_bw.
    """
    _check_nonneg("p_bw", p_bw)
    _check_pos("sigma_w2", sigma_w2)
    gamma = 2.0 ** np.asarray(r_w, dtype=float) - 1.0
    return _exceed_prob(p_bw, gamma * np.asarray(sigma_w2, dtype=float))


def sop_h1(p_bw, p_cw, sigma_w2, r_w):
    """Secrecy outage probability with covert cover interference.

    Pr{ X_b >= (2^r_w - 1) (sigma_w2 + X_c) } with the secret leakage X_b
    and the covert cover X_c independently Rayleigh-faded (exponential
    powers with means p_bw and p_cw). Averaging the leakage tail over the
    cover gives exp(-gamma sigma_w2 / p_bw) * p_bw / (p_bw + gamma p_cw),
    gamma = 2^r_w - 1, which is sop_h0 at p_cw = 0.
    """
    _check_nonneg("p_bw", p_bw)
    _check_nonneg("p_cw", p_cw)
    _check_pos("sigma_w2", sigma_w2)
    p_bw = np.asarray(p_bw, dtype=float)
    p_cw = np.asarray(p_cw, dtype=float)
    gamma = 2.0 ** np.asarray(r_w, dtype=float) - 1.0
    tail = _exceed_prob(p_bw, gamma * np.asarray(sigma_w2, dtype=float))
    den = p_bw + gamma * p_cw
    # den == 0 only with no leakage and no effective cover: the tail decides
    share = np.divide(p_bw, den, out=np.ones(den.shape), where=den > 0)
    out = np.asarray(tail) * share
    return out if out.ndim else float(out)


def ccp(p_ba, p_ca, sigma_a2, r_t, r_c):
    """Covert connection probability.

    Joint probability that the secret stream decodes (so interference
    cancellation happens) and the residual covert SNR clears 2^r_c - 1:
    scp_h1 times the exponential tail of the covert air link.
    """
    scp = scp_h1(p_ba, p_ca, sigma_a2, r_t)
    gamma_c = 2.0 ** np.asarray(r_c, dtype=float) - 1.0
    tail = _exceed_prob(p_ca, gamma_c * np.asarray(sigma_a2, dtype=float))
    out = np.asarray(scp) * np.asarray(tail)
    return out if out.ndim else float(out)


# -- radiometer detection ----------------------------------------------------


def optimal_threshold(sigma0, sigma1):
    """Detection-error-minimizing radiometer threshold.

    q* = sigma0*sigma1/(sigma1-sigma0) * ln(sigma1/sigma0), continuous at
    sigma1 == sigma0 where the limit is the shared value. Computed via
    log1p of the relative difference so near-equal inputs stay stable.
    """
    _check_pos("sigma0", sigma0)
    _check_pos("sigma1", sigma1)
    s0 = np.asarray(sigma0, dtype=float)
    s1 = np.asarray(sigma1, dtype=float)
    d = s1 - s0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(d != 0, np.log1p(np.where(d != 0, d, 1.0) / s0) / np.where(d != 0, d, 1.0), 1.0 / s0)
    out = s0 * s1 * slope
    return out if out.ndim else float(out)


def false_alarm(m, q_th, sigma0):
    """Radiometer false-alarm probability for an m-sample average.

    The test statistic under quiet is Gamma(m, sigma0/m); the tail is the
    regularized upper incomplete gamma Q(m, m*q_th/sigma0), which for
    integer m equals exp(-psi) * sum_{k<m} psi^k/k!.
    """
    m = _check_block(m)
    _check_nonneg("q_th", q_th)
    _check_pos("sigma0", sigma0)
    psi = m * np.asarray(q_th, dtype=float) / np.asarray(sigma0, dtype=float)
    out = special.gammaincc(m, psi)
    return out if np.ndim(out) else float(out)


def missed_detection(m, q_th, sigma1):
    """Radiometer missed-detection probability (lower gamma tail)."""
    m = _check_block(m)
    _check_nonneg("q_th", q_th)
    _check_pos("sigma1", sigma1)
    psi = m * np.asarray(q_th, dtype=float) / np.asarray(sigma1, dtype=float)
    out = special.gammainc(m, psi)
    return out if np.ndim(out) else float(out)


def _check_block(m):
    arr = np.asarray(m)
    if np.any(arr < 1) or not np.issubdtype(arr.dtype, np.integer) and np.any(arr != np.floor(arr)):
        raise ValueError("block length m must be a positive integer")
    return arr.astype(float) if arr.ndim else float(arr)


@dataclass(frozen=True)
class DetectionStats:
    """Adversary's radiometer picture for one slot.

    sigma0/sigma1 are the per-symbol received variances with the covert
    user silent/talking, q_th is the operating threshold (by default the
    error-minimizing one) and m the averaging block length.
    """

    sigma0: float
    sigma1: float
    q_th: float
    m: int

    def __post_init__(self):
        if self.sigma0 <= 0 or self.sigma1 <= 0:
            raise ValueError("received variances must be positive")
        _check_block(self.m)

    @property
    def psi0(self):
        return self.m * self.q_th / self.sigma0

    @property
    def psi1(self):
        return self.m * self.q_th / self.sigma1


def dep(stats: DetectionStats, q_th=None):
    """Radiometer error rates (P_F, P_M, P_e) at a threshold.

    Uses the stats' own operating threshold when q_th is omitted; a grid of
    thresholds broadcasts. The threshold must be positive.
    """
    q = stats.q_th if q_th is None else q_th
    if np.any(np.asarray(q) <= 0):
        raise ValueError("threshold q_th must be positive")
    pf = false_alarm(stats.m, q, stats.sigma0)
    pm = missed_detection(stats.m, q, stats.sigma1)
    out = np.asarray(pf) + np.asarray(pm)
    return pf, pm, (out if out.ndim else float(out))


def detection_stats(p_bw0, p_bw1, p_cw, sigma_w2, m) -> DetectionStats:
    """Assemble the radiometer picture from adversary-side received powers,
    operating at the error-minimizing threshold."""
    _check_nonneg("p_bw0", p_bw0)
    _check_nonneg("p_bw1", p_bw1)
    _check_nonneg("p_cw", p_cw)
    _check_pos("sigma_w2", sigma_w2)
    s0 = float(p_bw0) + float(sigma_w2)
    s1 = float(p_bw1) + float(p_cw) + float(sigma_w2)
    return DetectionStats(sigma0=s0, sigma1=s1, q_th=optimal_threshold(s0, s1), m=int(m))


# -- redundancy rules --------------------------------------------------------


def secrecy_redundancy(p_bw_budget, p_cw_tr, sigma_w2, eta_s):
    """Wiretap redundancy rate holding sop_h1 exactly at the outage cap.

    `p_bw_budget` is the adversary-side power budget of the secret user at
    full power; the covert cover c = p_cw_tr is carved out of it by the
    equal-received-power coupling, leaving the leakage p = budget - c.
    Solving sop_h1(p, c, sigma_w2, r_w) = eta_s for gamma = 2^r_w - 1 gives

        gamma = (p / sigma_w2) * ln(sigma_w2 / (c * eta_s * omega)),
        omega = wrightomega(ln(sigma_w2 / (c * eta_s)) + sigma_w2 / c),

    the Wright omega function solving omega + ln(omega) = z. The log term
    equals omega - sigma_w2/c, which is used instead once the cover exceeds
    the noise, so neither form cancels. As c -> 0 the rule tends to the
    covert-silent one, gamma = -ln(eta_s) * p / sigma_w2
    (`redundancy_for_outage_cap`), returned exactly for a vanishing cover.
    A cover that consumes the budget leaves no leakage and r_w = 0; a
    larger one warns and clamps to 0.
    """
    _check_nonneg("p_bw_budget", p_bw_budget)
    _check_nonneg("p_cw_tr", p_cw_tr)
    _check_pos("sigma_w2", sigma_w2)
    if not 0 < eta_s < 1:
        raise ValueError("eta_s must lie in (0, 1)")
    budget = np.asarray(p_bw_budget, dtype=float)
    cover = np.asarray(p_cw_tr, dtype=float)
    if (cover > budget).any():
        warnings.warn("covert cover p_cw_tr exceeds the adversary-side budget; "
                      "redundancy clamped to 0", RuntimeWarning, stacklevel=2)
    sigma = np.asarray(sigma_w2, dtype=float)
    leak = np.maximum(budget - cover, 0.0)
    ln_eta = math.log(eta_s)
    # covers this far below the noise leave the H0 rule exact in float
    covered = cover > 1e-200 * sigma
    snr = sigma / np.where(covered, cover, 1.0)
    omega = special.wrightomega(np.log(snr) - ln_eta + snr).real
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(snr < 1.0, omega - snr,
                            np.log(snr / omega) - ln_eta)
    log_term = np.where(covered, log_term, -ln_eta)
    gamma = np.maximum(log_term, 0.0) * leak / sigma
    out = np.log2(1.0 + gamma)
    return out if out.ndim else float(out)


def redundancy_for_outage_cap(p_bw, sigma_w2, eta_s):
    """Smallest redundancy rate keeping sop_h0(p_bw, ., r_w) <= eta_s.

    Inverts the Rayleigh tail: r_w = log2(1 - ln(eta_s) * p_bw / sigma_w2).
    """
    _check_nonneg("p_bw", p_bw)
    _check_pos("sigma_w2", sigma_w2)
    if not 0 < eta_s < 1:
        raise ValueError("eta_s must lie in (0, 1)")
    out = np.log2(1.0 - math.log(eta_s) * np.asarray(p_bw, dtype=float)
                  / np.asarray(sigma_w2, dtype=float))
    return out if np.ndim(out) else float(out)


def secret_rate(r_t, r_w):
    """Usable secret rate max(r_t - r_w, 0)."""
    out = np.maximum(np.asarray(r_t, dtype=float) - np.asarray(r_w, dtype=float), 0.0)
    return out if out.ndim else float(out)


# -- combined report ---------------------------------------------------------


@dataclass(frozen=True)
class SecurityReport:
    """All closed-form metrics for one slot's power allocation."""

    scp_h0: float
    scp_h1: float
    sop_h0: float
    sop_h1: float
    ccp: float
    p_f: float
    p_m: float
    p_e: float
    r_w: float
    r_s: float
    weighted_rate: float
    detection: DetectionStats


def security_report(*, p_ba0, p_ba1, p_ca, p_bw0, p_bw1, p_cw,
                    sigma_a2, sigma_w2, r_t, r_c, r_w, m, kappa=0.5) -> SecurityReport:
    """Evaluate every metric for explicit per-slot received powers."""
    det = detection_stats(p_bw0, p_bw1, p_cw, sigma_w2, m)
    p_f, p_m, p_e = dep(det)
    scp1 = scp_h1(p_ba1, p_ca, sigma_a2, r_t)
    cc = ccp(p_ba1, p_ca, sigma_a2, r_t, r_c)
    r_s = secret_rate(r_t, r_w)
    return SecurityReport(
        scp_h0=scp_h0(p_ba0, sigma_a2, r_t),
        scp_h1=scp1,
        sop_h0=sop_h0(p_bw0, sigma_w2, r_w),
        sop_h1=sop_h1(p_bw1, p_cw, sigma_w2, r_w),
        ccp=cc,
        p_f=p_f,
        p_m=p_m,
        p_e=p_e,
        r_w=float(r_w),
        r_s=r_s,
        weighted_rate=kappa * scp1 * r_s + (1.0 - kappa) * cc * float(r_c),
        detection=det,
    )


_REPORT_COLUMNS = ("slot", "scp_h0", "scp_h1", "sop_h0", "sop_h1", "ccp",
                   "p_f", "p_m", "p_e", "r_w", "r_s", "rate")


def write_security_csv(path, reports):
    """Write one SecurityReport row per slot (atomic temp-plus-rename)."""
    write_atomic_csv(path, _REPORT_COLUMNS, [
        [slot, rep.scp_h0, rep.scp_h1, rep.sop_h0, rep.sop_h1, rep.ccp,
         rep.p_f, rep.p_m, rep.p_e, rep.r_w, rep.r_s, rep.weighted_rate]
        for slot, rep in enumerate(reports)])
