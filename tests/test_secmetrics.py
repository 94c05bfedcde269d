"""Closed-form security metrics: connection/outage probabilities, the
radiometer error model, the redundancy rule, and the numpy special
functions behind the last two, checked against scipy.special."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from covertuav import secmetrics as sm
from covertuav.secmetrics import DetectionStats


# -- connection / outage probabilities ---------------------------------------

def test_scp_h0_reference_value():
    assert sm.scp_h0(1e-6, 1e-12, 16.0) == pytest.approx(
        0.9365662663666515, rel=1e-14)


def test_scp_h0_limits():
    assert sm.scp_h0(1.0, 1e-12, 0.0) == 1.0          # zero-rate threshold
    assert sm.scp_h0(0.0, 1e-12, 1.0) == 0.0          # no received power
    assert sm.scp_h0(1e-30, 1e-12, 30.0) == pytest.approx(0.0, abs=1e-300)


def test_scp_h1_unit_exponent():
    # interference margin equal to gamma * p_ca gives 1 - exp(-1)
    got = sm.scp_h1(1.0 + 1e-12, 1.0, 1e-12, 1.0)
    assert got == pytest.approx(0.6321205588285577, rel=1e-12)


def test_scp_h1_no_interference_limit_is_indicator():
    assert sm.scp_h1(1e-6, 0.0, 1e-12, 16.0) == 1.0
    assert sm.scp_h1(1e-8, 0.0, 1e-12, 16.0) == 0.0   # below threshold


def test_scp_h1_zero_rate_is_certain():
    assert sm.scp_h1(0.0, 1.0, 1e-12, 0.0) == 1.0
    assert sm.scp_h1(1.0, 1.0, 1e-12, 0.0) == 1.0


def test_scp_h1_certain_outage_when_margin_nonpositive():
    gamma = 2.0 ** 16 - 1.0
    assert sm.scp_h1(gamma * 1e-12, 1.0, 1e-12, 16.0) == 0.0
    assert sm.scp_h1(0.5 * gamma * 1e-12, 1.0, 1e-12, 16.0) == 0.0


def test_sop_h0_reference_value():
    assert sm.sop_h0(3.536e-9, 1e-12, 1.0) == pytest.approx(
        0.9997172345558218, rel=1e-14)


def test_sop_h1_shares_the_interference_form():
    """Faded leakage against faded cover plus noise: the leakage tail at
    the noise-only threshold times the leakage's share p / (p + gamma c)
    of the two exponential means; with no cover it is sop_h0."""
    p_bw, p_cw, s, r_w = 3.5e-9, 1.2e-9, 1e-12, 2.0
    gamma = 2.0 ** r_w - 1.0
    want = math.exp(-gamma * s / p_bw) * p_bw / (p_bw + gamma * p_cw)
    assert sm.sop_h1(p_bw, p_cw, s, r_w) == pytest.approx(want, rel=1e-15)
    assert sm.sop_h1(p_bw, 0.0, s, r_w) == sm.sop_h0(p_bw, s, r_w)


def test_ccp_is_scp_h1_times_covert_tail():
    p_ba, p_ca, s, r_t, r_c = 1.1e-6, 4.5e-9, 1e-12, 16.0, 4.0
    scp = sm.scp_h1(p_ba, p_ca, s, r_t)
    tail = math.exp(-(2.0 ** r_c - 1.0) * s / p_ca)
    assert sm.ccp(p_ba, p_ca, s, r_t, r_c) == pytest.approx(
        scp * tail, rel=1e-13)


def test_negative_power_rejected():
    with pytest.raises(ValueError, match="p_ba"):
        sm.scp_h0(-1.0, 1e-12, 16.0)
    with pytest.raises(ValueError, match="sigma_a2"):
        sm.scp_h1(1.0, 1.0, 0.0, 16.0)


def test_metrics_broadcast_over_arrays():
    p = np.array([1e-7, 1e-6, 1e-5])
    out = sm.scp_h0(p, 1e-12, 16.0)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


@settings(max_examples=200, deadline=None)
@given(
    p_ba=st.floats(0.0, 1e3),
    p_ca=st.floats(0.0, 1e3),
    sigma=st.floats(1e-14, 1.0),
    r_t=st.floats(0.0, 32.0),
    r_c=st.floats(0.0, 16.0),
)
def test_probabilities_stay_in_unit_interval(p_ba, p_ca, sigma, r_t, r_c):
    for v in (sm.scp_h0(p_ba, sigma, r_t),
              sm.scp_h1(p_ba, p_ca, sigma, r_t),
              sm.sop_h0(p_ba, sigma, r_t),
              sm.sop_h1(p_ba, p_ca, sigma, r_t),
              sm.ccp(p_ba, p_ca, sigma, r_t, r_c)):
        assert 0.0 <= v <= 1.0


@settings(max_examples=200, deadline=None)
@given(
    p_ba=st.floats(1e-9, 1e2),
    p_ca=st.floats(1e-9, 1e2),
    sigma=st.floats(1e-14, 1.0),
    r_t=st.floats(0.0, 32.0),
    r_c=st.floats(0.0, 16.0),
)
def test_ccp_never_exceeds_scp_h1(p_ba, p_ca, sigma, r_t, r_c):
    """Decoding both streams can't be more likely than decoding one."""
    assert sm.ccp(p_ba, p_ca, sigma, r_t, r_c) <= \
        sm.scp_h1(p_ba, p_ca, sigma, r_t) + 1e-15


def test_scp_monotone_in_threshold_rate():
    rts = np.linspace(0.0, 30.0, 100)
    vals = np.array([sm.scp_h0(1e-6, 1e-12, r) for r in rts])
    assert np.all(np.diff(vals) <= 0)
    vals1 = np.array([sm.scp_h1(1e-6, 1e-9, 1e-12, r) for r in rts])
    assert np.all(np.diff(vals1) <= 0)


def test_sop_monotone_in_redundancy_rate():
    rws = np.linspace(0.0, 30.0, 100)
    vals = np.array([sm.sop_h0(3.5e-9, 1e-12, r) for r in rws])
    assert np.all(np.diff(vals) <= 0)


# -- radiometer threshold and error probabilities ----------------------------

def test_optimal_threshold_reference():
    assert sm.optimal_threshold(1.0, 2.0) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-14)


def test_optimal_threshold_continuous_at_equal_variances():
    base = sm.optimal_threshold(1.0, 1.0)
    assert base == pytest.approx(1.0, rel=1e-14)
    for eps in (1e-9, -1e-9):
        assert sm.optimal_threshold(1.0, 1.0 + eps) == pytest.approx(
            base, rel=1e-8)


def test_optimal_threshold_sits_between_the_variances():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s0 = 10.0 ** rng.uniform(-12, 2)
        s1 = s0 * (1.0 + 10.0 ** rng.uniform(-6, 2))
        q = sm.optimal_threshold(s0, s1)
        assert s0 < q < s1


def _log_domain_upper_tail(m, x):
    """Regularized upper incomplete gamma for integer m by direct series.

    exp(-x) * sum_{k<m} x^k / k!, accumulated in the log domain from the
    largest term down so the 1e-12 comparison is meaningful at m = 1000.
    """
    if x == 0.0:
        return 1.0
    logs = [-x + k * math.log(x) - math.lgamma(k + 1) for k in range(m)]
    logs.sort(reverse=True)
    top = logs[0]
    return math.exp(top) * math.fsum(math.exp(l - top) for l in logs)


@pytest.mark.parametrize("m", [1, 10, 100, 1000])
def test_false_alarm_matches_direct_gamma_series(m):
    """Library tail vs an independent largest-first log-domain sum."""
    for q_over_s0 in (0.25, 0.9, 1.0, 1.1, 2.0):
        got = sm.false_alarm(m, q_over_s0, 1.0)
        want = _log_domain_upper_tail(m, m * q_over_s0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def _log_domain_lower_tail(m, x):
    """Regularized lower incomplete gamma for integer m by direct series.

    exp(-x) * sum_{k>=m} x^k / k!, truncated once terms fall 80 natural-log
    units below the peak, accumulated largest-first in the log domain. This
    side stays well conditioned where the lower tail itself is small.
    """
    if x == 0.0:
        return 0.0
    logs = []
    k = m
    top = -math.inf
    while True:
        lt = -x + k * math.log(x) - math.lgamma(k + 1)
        logs.append(lt)
        top = max(top, lt)
        if k > x and lt < top - 80.0:
            break
        k += 1
    logs.sort(reverse=True)
    return math.exp(logs[0]) * math.fsum(math.exp(l - logs[0]) for l in logs)


@pytest.mark.parametrize("m", [1, 10, 100, 1000])
def test_missed_detection_matches_direct_gamma_series(m):
    for q_over_s1 in (0.5, 0.95, 1.0, 1.4):
        got = sm.missed_detection(m, q_over_s1 * 2.0, 2.0)
        want = _log_domain_lower_tail(m, m * q_over_s1)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_block_length_must_be_positive_integer():
    with pytest.raises(ValueError):
        sm.false_alarm(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sm.false_alarm(2.5, 1.0, 1.0)
    for m in (True, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive integer"):
            sm.false_alarm(m, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive integer"):
            sm.missed_detection(m, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive integer"):
            DetectionStats(sigma0=1.0, sigma1=2.0, q_th=1.0, m=m)


def test_dep_exact_anchor():
    stats = DetectionStats(1.0, 2.0, 2.0 * math.log(2.0), 1)
    pf, pm, pe = sm.dep(stats)
    assert pf == pytest.approx(0.25, abs=1e-15)
    assert pm == pytest.approx(0.5, abs=1e-15)
    assert pe == pytest.approx(0.75, abs=1e-15)


def test_dep_equal_variances_is_blind():
    stats = DetectionStats(1.0, 1.0, sm.optimal_threshold(1.0, 1.0), 10)
    _, _, pe = sm.dep(stats)
    assert pe == pytest.approx(1.0, abs=1e-12)


def test_dep_threshold_limits():
    stats = DetectionStats(1.0, 2.0, 1.0, 5)
    pf_lo, pm_lo, _ = sm.dep(stats, q_th=1e-9)
    assert pf_lo == pytest.approx(1.0, abs=1e-9)   # everything flags
    assert pm_lo == pytest.approx(0.0, abs=1e-9)
    pf_hi, pm_hi, _ = sm.dep(stats, q_th=1e9)
    assert pf_hi == pytest.approx(0.0, abs=1e-12)  # nothing flags
    assert pm_hi == pytest.approx(1.0, abs=1e-12)


def test_dep_rejects_nonpositive_threshold():
    stats = DetectionStats(1.0, 2.0, 1.0, 5)
    with pytest.raises(ValueError):
        sm.dep(stats, q_th=0.0)
    with pytest.raises(ValueError):
        sm.dep(stats, q_th=-1.0)


def test_detection_stats_validation():
    with pytest.raises(ValueError):
        DetectionStats(0.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        DetectionStats(1.0, 1.0, 1.0, 0)


def test_optimal_threshold_minimizes_total_error():
    """q* beats a dense grid for random variance pairs and block lengths."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        s0 = 10.0 ** rng.uniform(-3, 3)
        s1 = s0 * (1.0 + 10.0 ** rng.uniform(-2, 2))
        m = int(rng.integers(1, 200))
        stats = DetectionStats(s0, s1, sm.optimal_threshold(s0, s1), m)
        _, _, pe_star = sm.dep(stats)
        grid = np.linspace(0.01 * s0, 100.0 * s1, 1000)
        pes = np.array([sm.dep(stats, q_th=q)[2] for q in grid])
        assert pe_star <= pes.min() + 1e-12


def test_min_dep_nonincreasing_in_block_length():
    """Longer observation windows can only help the detector."""
    s0, s1 = 1.0, 1.8
    q = sm.optimal_threshold(s0, s1)
    vals = [sm.dep(DetectionStats(s0, s1, q, m))[2] for m in range(1, 101)]
    assert np.all(np.diff(vals) <= 1e-14)


def test_dep_components_trade_monotonically_in_threshold():
    stats = DetectionStats(1.0, 2.0, 1.0, 10)
    grid = np.linspace(0.1, 5.0, 200)
    pfs = np.array([sm.dep(stats, q_th=q)[0] for q in grid])
    pms = np.array([sm.dep(stats, q_th=q)[1] for q in grid])
    assert np.all(np.diff(pfs) <= 1e-15)
    assert np.all(np.diff(pms) >= -1e-15)


# -- redundancy rates --------------------------------------------------------

def _bisect_redundancy(budget, cover, sigma, eta):
    """r_w solving exp(-g s/p) p/(p + g c) = eta, by plain bisection on g."""
    p = budget - cover

    def excess(g):
        return math.exp(-g * sigma / p) * p / (p + g * cover) - eta

    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.log2(1.0 + mid)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)


def test_secrecy_redundancy_reference_value():
    got = sm.secrecy_redundancy(1.1e-10, 1e-11, 1e-12, 0.01)
    assert got == pytest.approx(
        _bisect_redundancy(1.1e-10, 1e-11, 1e-12, 0.01), rel=1e-13)


def test_secrecy_redundancy_zero_when_cover_consumes_budget():
    assert sm.secrecy_redundancy(1e-10, 1e-10, 1e-12, 0.01) == 0.0


def test_secrecy_redundancy_warns_and_clamps_on_overdraw():
    with pytest.warns(RuntimeWarning, match="exceeds the adversary-side budget"):
        got = sm.secrecy_redundancy(1e-10, 2e-10, 1e-12, 0.01)
    assert got == 0.0


def test_secrecy_redundancy_largest_at_lax_cap():
    """The secret rate r_t - r_w is largest at the lax cap: a looser cap
    tolerates more leakage, so r_w never grows as eta_s rises, and it
    vanishes as eta_s -> 1, to first order in d = 1 - eta_s as
    d * p / ((sigma + c) ln 2)."""
    caps = np.linspace(0.01, 0.99, 50)
    vals = [sm.secrecy_redundancy(1.1e-10, 1e-11, 1e-12, e) for e in caps]
    assert np.all(np.diff(vals) <= 0)
    # 1 - d is exact in double precision; at this d both the second-order
    # terms (~3.6 d) and the rounding of ln(eta_s) next to O(1) terms
    # (~2e-16 / d) stay below 1e-7 relative
    d = 2.0 ** -27
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near_one = sm.secrecy_redundancy(1.1e-10, 1e-11, 1e-12, 1.0 - d)
    assert near_one == pytest.approx(
        d * 1e-10 / ((1e-12 + 1e-11) * math.log(2.0)), rel=1e-6)


def test_secrecy_redundancy_round_trip():
    """The returned rate makes the covered outage hit eta_s exactly."""
    for budget, cover, eta in [(1.1e-10, 1e-11, 0.01), (5e-9, 2e-10, 0.1),
                               (2e-8, 1e-8, 0.05)]:
        r_w = sm.secrecy_redundancy(budget, cover, 1e-12, eta)
        assert sm.sop_h1(budget - cover, cover, 1e-12, r_w) == pytest.approx(
            eta, rel=1e-10)


def test_redundancy_cap_round_trip():
    """With no cover the rate inverts the covert-silent outage: it must
    reproduce the outage cap exactly."""
    for p_bw in (3.5e-9, 1e-10, 2e-8):
        for eta in (0.01, 0.1, 0.5):
            r_w = sm.secrecy_redundancy(p_bw, 0.0, 1e-12, eta)
            assert sm.sop_h0(p_bw, 1e-12, r_w) == pytest.approx(eta, rel=1e-10)


def test_redundancy_cap_rejects_bad_cap():
    with pytest.raises(ValueError, match="eta_s"):
        sm.secrecy_redundancy(1e-9, 0.0, 1e-12, 1.0)
    with pytest.raises(ValueError, match="eta_s"):
        sm.secrecy_redundancy(1e-9, 0.0, 1e-12, 0.0)


# -- special functions against scipy.special ---------------------------------


def test_wright_omega_matches_scipy():
    """The port gives scipy's values over the whole real line: exp(z) far
    below 0, the iterated branches in between, z itself above 1e20 (the
    band near 1e154, where (1 + omega)^2 overflows, included), with no
    floating-point warning. numpy's exp and log may differ from libm's by
    an ulp, so agreement is to a few ulps rather than bit for bit."""
    z = np.concatenate([
        np.linspace(-745.0, -50.0, 2001), np.linspace(-50.0, 50.0, 20001),
        -2.0 + np.linspace(-1e-6, 1e-6, 201), 1.0 + np.linspace(-1e-6, 1e-6, 201),
        np.geomspace(1.0, 1e300, 20001), np.geomspace(1e150, 1e160, 1001)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sm._wright_omega(z)
    want = special.wrightomega(z)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=1e-316)
    band = z > 1e20
    assert np.array_equal(got[band], z[band])


def test_wright_omega_solves_its_equation():
    z = np.linspace(-700.0, 700.0, 10001)
    w = sm._wright_omega(z)
    assert np.all(np.abs(w + np.log(w) - z) <= 4.5e-16 * np.maximum(1.0, np.abs(z)))


def test_wright_omega_limits():
    got = sm._wright_omega(np.array([np.inf, -np.inf, np.nan, -746.0]))
    assert got[0] == np.inf and got[1] == 0.0 and np.isnan(got[2])
    assert got[3] == 0.0


@pytest.mark.parametrize("m", [1, 2, 5, 10, 50, 100, 199, 500, 1000])
def test_gamma_tails_match_scipy(m):
    """Both tails over psi from 1e-6 m to 1e3 m and across the transition
    at psi = m. Either side carries the conditioning of the pmf
    exp(-bd0), so the tolerance grows with m; where scipy's tail is below
    1e-290, both are."""
    psi = np.concatenate([m * np.geomspace(1e-6, 1e3, 2001),
                          m + math.sqrt(m) * np.linspace(-8.0, 8.0, 321)])
    psi = psi[psi >= 0]
    p, q = sm._gamma_tails(m, psi)
    for got, want in ((p, special.gammainc(m, psi)),
                      (q, special.gammaincc(m, psi))):
        live = want > 1e-290
        np.testing.assert_allclose(got[live], want[live],
                                   rtol=1e-13 * (1.0 + math.sqrt(m)))
        assert np.all(np.abs(got[~live]) < 1e-280)
    assert np.max(np.abs(p + q - 1.0)) <= 2.0 ** -52


def test_gamma_tails_at_the_ends():
    p, q = sm._gamma_tails(7, np.array([0.0, np.inf, np.nan]))
    assert p[:2].tolist() == [0.0, 1.0]
    assert q[:2].tolist() == [1.0, 0.0]
    assert np.isnan(p[2]) and np.isnan(q[2])
    assert sm.false_alarm(7, 0.0, 1.0) == 1.0
    assert sm.missed_detection(7, 0.0, 1.0) == 0.0
    assert sm.false_alarm(7, np.inf, 1.0) == 0.0


def test_gamma_tails_broadcast_over_block_lengths():
    """An array of m broadcasts against psi, one distinct m at a time."""
    m = np.array([[1], [10], [10], [1000]])
    psi = np.array([0.5, 9.0, 900.0, 2000.0])
    p, q = sm._gamma_tails(m, psi)
    assert p.shape == q.shape == (4, 4)
    for row, k in enumerate(m[:, 0]):
        want_p, want_q = sm._gamma_tails(int(k), psi)
        np.testing.assert_allclose(p[row], want_p, rtol=1e-15)
        np.testing.assert_allclose(q[row], want_q, rtol=1e-15)
    blocks = np.array([1, 10, 100])
    got = sm.false_alarm(blocks, 1.2, 1.0)
    assert got.shape == (3,)
    np.testing.assert_allclose(
        got, [sm.false_alarm(int(k), 1.2, 1.0) for k in blocks], rtol=1e-15)


def test_dep_matches_the_two_tails():
    """dep evaluates both hypotheses at once; its rates are the ones
    false_alarm and missed_detection give on their own."""
    stats = DetectionStats(1.0, 1.7, 1.3, 40)
    grid = np.geomspace(0.3, 5.0, 257)
    pf, pm, pe = sm.dep(stats, grid)
    np.testing.assert_allclose(pf, sm.false_alarm(40, grid, 1.0), rtol=1e-14)
    np.testing.assert_allclose(pm, sm.missed_detection(40, grid, 1.7),
                               rtol=1e-14)
    np.testing.assert_allclose(pe, pf + pm, rtol=0)
