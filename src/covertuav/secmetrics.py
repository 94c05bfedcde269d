"""Closed-form security metrics.

Connection/outage probabilities for the secret and covert streams, the
adversary's radiometer statistics, and the wiretap-code redundancy rule.
Everything here is deterministic given received powers; the Monte Carlo
counterparts in `mc_oracle` rebuild the same events from raw draws.

Each closed form lives here once. The two unchecked cores, `_exceed_prob`
(an exponential tail) and `_scp_interference` (the interference-limited
connection probability), are what the public metrics evaluate after their
argument checks, and what the slot model in `kernels` evaluates on every
planner path, so the formulas `validate` checks are the ones the planner
runs.

The two special functions the closed forms need are computed here with
numpy alone, so that no command but planning loads scipy: the radiometer's
regularized incomplete gamma tails at an integer block length m
(`_gamma_tails`), as Poisson tail sums anchored at Loader's saddle-point
pmf (C. Loader, "Fast and accurate computation of binomial probabilities",
2000), and the Wright omega function of the redundancy rule
(`_wright_omega`), a port of the real branch of Lawrence, Corless &
Jeffrey, "Algorithm 917: Complex double-precision evaluation of the Wright
omega function", ACM TOMS 38(3), 2012, the algorithm scipy.special uses.

Conventions: powers in watts, rates in bits per channel use, probabilities
clamped to [0, 1]. Functions broadcast over numpy arrays.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "scp_h0", "scp_h1", "sop_h0", "sop_h1", "ccp",
    "DetectionStats", "optimal_threshold", "false_alarm",
    "missed_detection", "dep", "secrecy_redundancy",
]


def _check_nonneg(name, x):
    if (np.asarray(x) < 0).any():
        raise ValueError(f"{name} must be >= 0")


def _check_pos(name, x):
    if (np.asarray(x) <= 0).any():
        raise ValueError(f"{name} must be positive")


def _scalar(out):
    return out if out.ndim else float(out)


def _exceed_prob(power, threshold_power):
    """Pr{X >= threshold_power} for X exponential with mean `power`
    (arrays, unchecked): exp(-threshold_power / power), certain at a zero
    threshold whatever the power."""
    # zero power, or a threshold far above a tiny one, sends the exponent
    # to -inf, which is the right limit: exp(-inf) = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(threshold_power <= 0, 1.0,
                        np.exp(-threshold_power / np.abs(power)))


def _scp_interference(p_ba, p_ca, sigma_a2, gamma):
    """Pr{p_ba >= gamma (sigma_a2 + X)} for X exponential with mean p_ca
    (arrays, unchecked); returns (ratio, scp).

    With the margin num = p_ba - gamma sigma_a2 and den = gamma p_ca > 0,
    ratio = num / den and scp = 1 - exp(-ratio), 0 for a non-positive
    margin. Where den = 0 (no interference or gamma = 0) the ratio is 0
    and scp is the step num >= 0.
    """
    num = p_ba - gamma * sigma_a2
    den = gamma * p_ca
    live = den > 0
    # a margin far above a tiny interference overflows the ratio to +inf,
    # which is the right limit: -expm1(-inf) = 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(live, num / np.where(live, den, 1.0), 0.0)
    scp = np.where(live,
                   np.where(ratio > 0, -np.expm1(-np.maximum(ratio, 0.0)), 0.0),
                   num >= 0)
    return ratio, scp


def scp_h0(p_ba, sigma_a2, r_t):
    """Secret connection probability with no covert interference.

    Pr{ p|h|²/sigma² >= 2^r_t - 1 } over Rayleigh fading of the secret
    user's air link, with mean beamformed power p_ba.
    """
    _check_nonneg("p_ba", p_ba)
    _check_pos("sigma_a2", sigma_a2)
    gamma = 2.0 ** np.asarray(r_t, dtype=float) - 1.0
    return _scalar(_exceed_prob(np.asarray(p_ba, dtype=float),
                                gamma * np.asarray(sigma_a2, dtype=float)))


def scp_h1(p_ba, p_ca, sigma_a2, r_t):
    """Secret connection probability under covert interference.

    The secret beamformed power p_ba is treated as fixed; the covert
    interference power is exponential with mean p_ca. Clamped to [0, 1];
    a non-positive interference margin means certain outage, and the
    p_ca -> 0 limit is the indicator of p_ba reaching the threshold.
    """
    _check_nonneg("p_ba", p_ba)
    _check_nonneg("p_ca", p_ca)
    _check_pos("sigma_a2", sigma_a2)
    gamma = 2.0 ** np.asarray(r_t, dtype=float) - 1.0
    return _scalar(_scp_interference(
        np.asarray(p_ba, dtype=float), np.asarray(p_ca, dtype=float),
        np.asarray(sigma_a2, dtype=float), gamma)[1])


def sop_h0(p_bw, sigma_w2, r_w):
    """Secrecy outage probability with no covert cover.

    Pr{ adversary SNR >= 2^r_w - 1 } over Rayleigh fading of the secret
    user's ground link, with mean received power p_bw.
    """
    _check_nonneg("p_bw", p_bw)
    _check_pos("sigma_w2", sigma_w2)
    gamma = 2.0 ** np.asarray(r_w, dtype=float) - 1.0
    return _scalar(_exceed_prob(np.asarray(p_bw, dtype=float),
                                gamma * np.asarray(sigma_w2, dtype=float)))


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
    return _scalar(tail * share)


def ccp(p_ba, p_ca, sigma_a2, r_t, r_c):
    """Covert connection probability.

    Joint probability that the secret stream decodes (so interference
    cancellation happens) and the residual covert SNR clears 2^r_c - 1:
    scp_h1 times the exponential tail of the covert air link.
    """
    scp = scp_h1(p_ba, p_ca, sigma_a2, r_t)
    gamma_c = 2.0 ** np.asarray(r_c, dtype=float) - 1.0
    tail = _exceed_prob(np.asarray(p_ca, dtype=float),
                        gamma_c * np.asarray(sigma_a2, dtype=float))
    return _scalar(scp * tail)


# -- special functions -------------------------------------------------------


# Loader's stirlerr(n) = ln(n!) - ln(sqrt(2 pi n) (n/e)^n) at n = 1..15
_STIRLERR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
_LOG_TOL = -55.0 * math.log(2.0)   # remainder left off a tail sum, relative
_EPS = np.finfo(float).eps


def _stirlerr(n):
    """Stirling's error ln(n!) - ln(sqrt(2 pi n) (n/e)^n) at an integer
    n >= 1: tabulated to 15, then the asymptotic series in 1/n, cut as in
    Loader (2000)."""
    if n <= 15:
        return _STIRLERR[int(n) - 1]
    nn = n * n
    s0, s1, s2, s3, s4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
    if n > 500:
        return (s0 - s1 / nn) / n
    if n > 80:
        return (s0 - (s1 - s2 / nn) / nn) / n
    if n > 35:
        return (s0 - (s1 - (s2 - s3 / nn) / nn) / nn) / n
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n


@functools.lru_cache(maxsize=256)
def _series_coefficients(m):
    """`_poisson_tails`' series coefficients at one m.

    Returns j = 1..K and two (2, K) tables indexed by [lower tail?, j-1]:
    the coefficients prod_{i<j} (1 - i/m) of the upper tail (0 from
    j = m + 1 on) and prod_{i<=j} m/(m + i) of the lower, and their logs
    plus ln(m/j) and ln(m/(j + 1)), which bound the log of what each series
    adds after its term at index j over that term. K is where no x needs
    more terms; both products fall below exp(-j (j - 1) / (2 (m + j))),
    so 12 sqrt(m) + 60 terms reach it for any m below 1e30. The nonzero
    coefficients kept stay above e^-100 (the least is e^-96, at m = 99).
    """
    n = int(12.0 * math.sqrt(m)) + 60
    j = np.arange(1.0, n + 2.0)
    logc = np.empty((2, n))
    logc[0, 0] = 0.0
    with np.errstate(divide="ignore"):
        np.cumsum(np.log1p(-np.minimum(j[:n - 1] / m, 1.0)), out=logc[0, 1:])
    np.negative(np.cumsum(np.log1p(j[:n] / m)), out=logc[1])
    log_room = np.log(m / j)
    cut = logc + np.stack((log_room[:n], log_room[1:]))
    done = np.maximum(cut[0], cut[1]) < _LOG_TOL
    k = int(np.argmax(done)) + 1 if done.any() else n
    j, coef, cut = j[:k], np.exp(logc[:, :k]), cut[:, :k]
    for table in (j, coef, cut):
        table.setflags(write=False)
    return j, coef, cut


def _poisson_tails(m, x):
    """(P(m, x), Q(m, x)) at one integer m >= 1 over an array x >= 0.

    For integer m, Q(m, x) = Pr{N < m} and P(m, x) = Pr{N >= m} with N
    Poisson(x). Both are sums of the pmf, anchored at Pr{N = m}, which
    Loader's saddle-point form exp(-stirlerr(m) - bd0(m, x)) / sqrt(2 pi m)
    gets to a few ulps; the deviance bd0(m, x) = m ln(m/x) + x - m is taken
    as d - m log1p(d/m), d = x - m, where it is small, so it cannot cancel.
    Below x = m the lower tail is the smaller one, summed upward as
    Pr{N = m} (1 + x/(m+1) + x^2/((m+1)(m+2)) + ...); from x = m on the
    upper tail is, downward as Pr{N = m} (m/x + m(m-1)/x^2 + ... + m!/x^m).
    The j-th term of either is exp(-j |ln(x/m)|) times a coefficient of m
    alone (`_series_coefficients`), so a pass over a run of terms is one
    exp and one matrix product; a row stops once the bound on its
    remainder falls below 2^-55. The terms are positive and shrinking, and
    the larger tail is 1 minus the smaller, which keeps P + Q = 1 and loses
    nothing, the smaller being below 1 - 1/e.
    """
    shape = x.shape
    x = np.minimum(x.reshape(-1), 1e300)   # x = inf: the pmf underflows to 0
    lower = x < m
    with np.errstate(divide="ignore", invalid="ignore"):
        d = x - m
        log_ratio = np.log1p(d / m)        # ln(x/m)
        # d/m rounds away the last bits of x/m far below 1
        far = x < 0.5 * m
        if np.count_nonzero(far):
            log_ratio = np.where(far, np.log(x / m), log_ratio)
        scale = -_stirlerr(m) - 0.5 * math.log(2.0 * math.pi * m)
        pmf = np.exp(scale - (d - m * log_ratio))
    j, coef, cut = _series_coefficients(m)
    rate = -np.abs(log_ratio)
    total = lower.astype(float)
    rows = np.arange(x.size)
    # few rows take every term in one pass; many start with 32 terms
    start, end = 0, max(32, 8192 // max(x.size, 1))
    while True:
        r, low = rate[rows], lower[rows]
        # powers below e^-550 are raised to it, far below any sum's last
        # bit, so that no exp or product with a coefficient (above e^-100)
        # works on a subnormal number
        powers = j[start:end, None] * r
        np.maximum(powers, -550.0, out=powers)
        sums = coef[:, start:end] @ np.exp(powers, out=powers)
        total[rows] += np.where(low, sums[1], sums[0])
        if end >= j.size:
            break
        bound = r * end + np.where(low, cut[1, end - 1], cut[0, end - 1])
        rows = rows[bound > _LOG_TOL]
        if not rows.size:
            break
        start, end = end, 2 * end
    small = pmf * total
    large = 1.0 - small
    return (np.where(lower, small, large).reshape(shape),
            np.where(lower, large, small).reshape(shape))


def _gamma_tails(m, x):
    """Regularized lower and upper incomplete gamma P(m, x), Q(m, x) for
    integer m >= 1 and x >= 0 (unchecked), broadcasting, one distinct m
    at a time (`_poisson_tails`)."""
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if m.ndim == 0:
        return _poisson_tails(float(m), x)
    m, x = np.broadcast_arrays(m, x)
    p, q = np.empty(x.shape), np.empty(x.shape)
    for k in np.unique(m):
        at = m == k
        p[at], q[at] = _poisson_tails(float(k), x[at])
    return p, q


def _fsc_step(x, w):
    """One Fritsch-Shafer-Crowley step towards w + ln(w) = x; returns the
    new w with the step's residual r and w + 1."""
    r = x - w - np.log(w)
    wp1 = w + 1.0
    t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + r / wp1 * (t - r) / (t - 2.0 * r)), r, wp1


def _wright_omega(x):
    """Wright omega of real x, the w solving w + ln(w) = x (array).

    The real-argument branch of Lawrence, Corless & Jeffrey, "Algorithm
    917: Complex double-precision evaluation of the Wright omega function",
    ACM TOMS 38(3), 2012, as scipy.special.wrightomega runs it: a start of
    exp(x) below -2, exp(2(x - 1)/3) below 1 and x - ln(x) + ln(x)/x above,
    one FSC step, and a second where the first step's error estimate
    |2 w^2 - 8 w - 1| r^4 / (72 (1 + w)^6) reaches eps (its powers taken as
    products here); exp(x) below -50 and x above 1e20, where those are
    exact in double precision.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        lx = np.log(x)
        start = x - lx + lx / x
        low = x < 1.0
        any_low = np.count_nonzero(low)
        if any_low:
            start = np.where(
                low, np.exp(np.where(x < -2.0, x, 2.0 * (x - 1.0) / 3.0)), start)
        w, r, wp1 = _fsc_step(x, start)
        r2, wp2 = r * r, wp1 * wp1
        again = (np.abs((2.0 * w * w - 8.0 * w - 1.0) * (r2 * r2))
                 >= _EPS * 72.0 * (wp2 * wp2 * wp2))
        if np.count_nonzero(again):
            w = np.where(again, _fsc_step(x, w)[0], w)
        if any_low:
            w = np.where(x < -50.0, start, w)
        if np.count_nonzero(x > 1e20):
            w = np.where(x > 1e20, x, w)
    return w


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
    return _scalar(out)


def false_alarm(m, q_th, sigma0):
    """Radiometer false-alarm probability for an m-sample average.

    The test statistic under quiet is Gamma(m, sigma0/m); the tail is the
    regularized upper incomplete gamma Q(m, psi), psi = m*q_th/sigma0,
    which for integer m equals exp(-psi) * sum_{k<m} psi^k/k!, the
    Poisson(psi) probability of fewer than m events. `_gamma_tails` sums
    the smaller of that and its complement from Loader's saddle-point pmf
    (C. Loader, 2000) to about 1e-13 relative at m = 1000.
    """
    m = _check_block(m)
    _check_nonneg("q_th", q_th)
    _check_pos("sigma0", sigma0)
    psi = m * np.asarray(q_th, dtype=float) / np.asarray(sigma0, dtype=float)
    return _scalar(_gamma_tails(m, psi)[1])


def missed_detection(m, q_th, sigma1):
    """Radiometer missed-detection probability: the lower tail
    P(m, m*q_th/sigma1) of the statistic under Gamma(m, sigma1/m)
    (`_gamma_tails`)."""
    m = _check_block(m)
    _check_nonneg("q_th", q_th)
    _check_pos("sigma1", sigma1)
    psi = m * np.asarray(q_th, dtype=float) / np.asarray(sigma1, dtype=float)
    return _scalar(_gamma_tails(m, psi)[0])


def _check_block(m):
    arr = np.asarray(m)
    if arr.dtype == bool or not np.all(
            np.isfinite(arr) & (arr >= 1) & (arr == np.floor(arr))):
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


def dep(stats: DetectionStats, q_th=None):
    """Radiometer error rates (P_F, P_M, P_e) at a threshold.

    Uses the stats' own operating threshold when q_th is omitted; a grid of
    thresholds broadcasts. The threshold must be positive.
    """
    q = np.asarray(stats.q_th if q_th is None else q_th, dtype=float)
    if (q <= 0).any():
        raise ValueError("threshold q_th must be positive")
    # one tail evaluation for both hypotheses: `false_alarm`'s psi in row
    # 0, `missed_detection`'s in row 1
    sigma = np.array([stats.sigma0, stats.sigma1]).reshape((2,) + (1,) * q.ndim)
    lower, upper = _gamma_tails(stats.m, stats.m * q / sigma)
    pf, pm = upper[0], lower[1]
    return _scalar(pf), _scalar(pm), _scalar(pf + pm)


# -- redundancy rule ---------------------------------------------------------


def secrecy_redundancy(p_bw_budget, p_cw_tr, sigma_w2, eta_s):
    """Wiretap redundancy rate holding sop_h1 exactly at the outage cap.

    `p_bw_budget` is the adversary-side power budget of the secret user at
    full power; the covert cover c = p_cw_tr is carved out of it by the
    equal-received-power coupling, leaving the leakage p = budget - c.
    Solving sop_h1(p, c, sigma_w2, r_w) = eta_s for gamma = 2^r_w - 1 gives

        gamma = (p / sigma_w2) * ln(sigma_w2 / (c * eta_s * omega)),
        omega = wrightomega(ln(sigma_w2 / (c * eta_s)) + sigma_w2 / c),

    the Wright omega function solving omega + ln(omega) = z, evaluated by
    `_wright_omega` (Lawrence, Corless & Jeffrey, ACM TOMS Algorithm 917,
    2012, as in scipy.special.wrightomega). The log term equals
    omega - sigma_w2/c, which is used instead once the cover exceeds the
    noise, so neither form cancels. As c -> 0 the rule tends to the
    covert-silent one, gamma = -ln(eta_s) * p / sigma_w2, the inverse of
    sop_h0, returned exactly for a vanishing cover. A cover that consumes
    the budget leaves no leakage and r_w = 0; a larger one warns and clamps
    to 0.
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
    omega = _wright_omega(np.log(snr) - ln_eta + snr)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(snr < 1.0, omega - snr,
                            np.log(snr / omega) - ln_eta)
    log_term = np.where(covered, log_term, -ln_eta)
    gamma = np.maximum(log_term, 0.0) * leak / sigma
    out = np.log2(1.0 + gamma)
    return _scalar(out)
