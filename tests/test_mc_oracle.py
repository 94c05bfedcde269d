"""Monte Carlo estimators used to validate the closed-form metrics.

These tests run the simulations at sizes where the 95% intervals are
tight enough to be meaningful but the suite stays fast.
"""

import math

import numpy as np
import pytest

from covertuav import mc_oracle as mc
from covertuav import secmetrics as sm
from covertuav.kernels import radiometer_statistic
from covertuav.rng import make_rng
from covertuav.secmetrics import DetectionStats


def test_min_samples_enforced():
    with pytest.raises(ValueError, match=">= 10000"):
        mc.estimate_scp_h0(1e-6, 1e-12, 16.0, samples=100)
    with pytest.raises(ValueError, match=">= 10000"):
        mc.mc_dep(DetectionStats(1.0, 2.0, 1.0, 1), trials=10)


def test_mc_estimate_interval():
    est = mc.McEstimate(estimate=0.5, n_samples=10_000, half_width=0.01)
    assert est.agrees_with(0.505)
    assert not est.agrees_with(0.52)


def test_scp_h0_estimate_matches_closed_form():
    closed = sm.scp_h0(1e-6, 1e-12, 16.0)
    est = mc.estimate_scp_h0(1e-6, 1e-12, 16.0, samples=100_000, seed=6)
    assert est.agrees_with(closed)
    assert est.half_width < 0.005


def test_scp_h1_estimate_at_unit_exponent():
    closed = 0.6321205588285577
    est = mc.estimate_scp_h1(1.0 + 1e-12, 1.0, 1e-12, 1.0,
                             samples=100_000, seed=1)
    assert est.agrees_with(closed)


def test_below_threshold_estimate_is_exactly_zero():
    # deterministic secret power under the decode threshold: no sample passes
    gamma = 2.0 ** 16 - 1.0
    est = mc.estimate_scp_h1(0.5 * gamma * 1e-12, 1.0, 1e-12, 16.0,
                             samples=10_000, seed=0)
    assert est.estimate == 0.0
    assert est.half_width == 0.0


def test_sop_estimates_match_closed_forms():
    c0 = sm.sop_h0(3.536e-9, 1e-12, 1.0)
    e0 = mc.estimate_sop_h0(3.536e-9, 1e-12, 1.0, samples=100_000, seed=5)
    assert e0.agrees_with(c0)
    c1 = sm.sop_h1(3.5e-9, 1.2e-9, 1e-12, 2.0)
    e1 = mc.estimate_sop_h1(3.5e-9, 1.2e-9, 1e-12, 2.0, samples=100_000, seed=6)
    assert e1.agrees_with(c1)


def test_ccp_estimate_matches_closed_form():
    closed = sm.ccp(1.1e-6, 4.5e-9, 1e-12, 16.0, 4.0)
    est = mc.estimate_ccp(1.1e-6, 4.5e-9, 1e-12, 16.0, 4.0,
                          samples=200_000, seed=7)
    assert est.agrees_with(closed)


def test_interval_shrinks_with_sample_count():
    """Quadrupling the samples should halve the interval (binomial CLT)."""
    small = mc.estimate_scp_h0(1e-6, 1e-12, 16.0, samples=50_000, seed=11)
    big = mc.estimate_scp_h0(1e-6, 1e-12, 16.0, samples=200_000, seed=11)
    assert big.half_width == pytest.approx(small.half_width / 2.0, rel=0.05)


def test_estimates_are_deterministic_per_seed():
    a = mc.estimate_scp_h1(1.0, 1.0, 1e-12, 1.0, samples=20_000, seed=42)
    b = mc.estimate_scp_h1(1.0, 1.0, 1e-12, 1.0, samples=20_000, seed=42)
    assert a == b
    c = mc.estimate_scp_h1(1.0, 1.0, 1e-12, 1.0, samples=20_000, seed=43)
    assert a != c


# -- symbol-level detector simulation -----------------------------------------

def test_mc_dep_exact_anchor():
    stats = DetectionStats(1.0, 2.0, 2.0 * math.log(2.0), 1)
    pf, pm, pe = mc.mc_dep(stats, trials=40_000, seed=2)
    assert pf.agrees_with(0.25)
    assert pm.agrees_with(0.5)
    assert abs(pe.estimate - 0.75) <= pe.half_width


def test_mc_dep_blind_when_variances_match():
    stats = DetectionStats(1.0, 1.0, sm.optimal_threshold(1.0, 1.0), 10)
    _, _, pe = mc.mc_dep(stats, trials=20_000, seed=3)
    assert abs(pe.estimate - 1.0) <= pe.half_width


def test_mc_dep_threshold_extremes():
    stats = DetectionStats(1.0, 2.0, 1.0, 5)
    _, pm, _ = mc.mc_dep(stats, q_th=1e6, trials=10_000, seed=4)
    assert pm.estimate == 1.0
    pf, _, _ = mc.mc_dep(stats, q_th=1e-9, trials=10_000, seed=5)
    assert pf.estimate == 1.0
    with pytest.raises(ValueError, match="q_th"):
        mc.mc_dep(stats, q_th=0.0)


def test_mc_dep_matches_closed_form_at_longer_blocks():
    for m in (10, 100):
        stats = DetectionStats(1.0, 1.8, sm.optimal_threshold(1.0, 1.8), m)
        pf_c, pm_c, _ = sm.dep(stats)
        pf, pm, _ = mc.mc_dep(stats, trials=40_000, seed=6)
        assert pf.agrees_with(pf_c)
        assert pm.agrees_with(pm_c)


def test_mc_dep_counts_2500_trial_chunks_keyed_by_worker():
    """mc_dep's counts are those of chunks of 2 500 trials, the last one
    the remainder, chunk w drawing from make_rng(seed, worker=w)."""
    stats = DetectionStats(1.0, 1.8, sm.optimal_threshold(1.0, 1.8), 10)
    trials, seed, m = 12_345, 7, 10
    fa = md = 0
    for worker, start in enumerate(range(0, trials, 2_500)):
        n = min(2_500, trials - start)
        rng = make_rng(seed, worker=worker)
        t0 = radiometer_statistic(rng.standard_normal((n, 2 * m)), stats.sigma0)
        t1 = radiometer_statistic(rng.standard_normal((n, 2 * m)), stats.sigma1)
        fa += int(np.count_nonzero(t0 > stats.q_th))
        md += int(np.count_nonzero(t1 <= stats.q_th))
    assert worker == 4 and n == 2_345
    pf, pm, pe = mc.mc_dep(stats, trials=trials, seed=seed)
    assert (pf.estimate, pm.estimate) == (fa / trials, md / trials)
    assert pf.n_samples == pm.n_samples == pe.n_samples == trials
    assert pe.estimate == pf.estimate + pm.estimate


# -- vector-channel and distribution-shape checks ------------------------------

def test_mc_scp_h1_matches_closed_form_at_slot(cfg, gains0):
    w_b = np.ones(cfg.n_b) / math.sqrt(cfg.n_b)
    w_c = np.ones(cfg.n_c) / math.sqrt(cfg.n_c)
    q_c = 4.38e-6
    est = mc.mc_scp_h1(cfg, gains0, (w_b, math.sqrt(q_c) * w_c),
                       samples=100_000, seed=8)
    # mean interference power of the drawn Rayleigh vector channel
    p_ba = gains0.g_ba[0]
    p_ca = gains0.a2_ca[0] * q_c
    closed = sm.scp_h1(p_ba, p_ca, cfg.sigma_a2_w, cfg.r_t)
    assert est.agrees_with(closed)


def test_mc_scp_h1_shape_validation(cfg, gains0):
    with pytest.raises(ValueError, match="beamformer shapes"):
        mc.mc_scp_h1(cfg, gains0, (np.ones(cfg.n_b + 1), np.ones(cfg.n_c)),
                     samples=10_000)


def test_rician_gap_table(cfg):
    rows = mc.mc_rician_gap(cfg, samples=60_000, seed=9)
    assert len(rows) == 4
    assert rows[0].k_factor == 0.0
    # the Rayleigh row is the regime the formula models exactly
    assert abs(rows[0].gap) <= rows[0].half_width
    for row in rows:
        assert 0.0 <= row.mc_estimate <= 1.0
        assert row.gap == pytest.approx(row.mc_estimate - row.closed_form,
                                        abs=1e-15)
    custom = mc.mc_rician_gap(cfg, samples=10_000, seed=9, k_grid=(0.0, 2.0))
    assert len(custom) == 2


def test_rician_gap_rows_do_not_replay_nearby_seeds(cfg):
    """Row k at base seed s draws its own stream, not row 0's at s + k."""
    pair = mc.mc_rician_gap(cfg, samples=60_000, seed=9, k_grid=(0.0, 0.0))
    shifted = mc.mc_rician_gap(cfg, samples=60_000, seed=10, k_grid=(0.0,))
    assert pair[1].mc_estimate != shifted[0].mc_estimate


# -- randomized agreement sweep ------------------------------------------------

def test_agreement_suite_shape_and_coverage():
    rows = mc.agreement_suite(samples=20_000, seed=0)
    assert len(rows) == 20
    metrics = {r.metric for r in rows}
    assert metrics == {"scp_h0", "scp_h1", "sop_h0", "sop_h1", "ccp"}
    for r in rows:
        assert 0.02 <= r.closed_form <= 0.98     # saturation guard
        assert r.samples == 20_000
        assert r.ci > 0.0


def test_agreement_suite_is_deterministic():
    a = mc.agreement_suite(samples=10_000, seed=123)
    b = mc.agreement_suite(samples=10_000, seed=123)
    assert a == b


def test_agreement_suite_default_seed_agrees():
    rows = mc.agreement_suite(samples=50_000, seed=0)
    agreeing = sum(r.agrees for r in rows)
    assert agreeing >= 18


def test_write_agreement_csv(tmp_path):
    rows = mc.agreement_suite(samples=10_000, seed=1)
    path = tmp_path / "agree.csv"
    mc.write_agreement_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "metric,closed_form,mc_estimate,ci,samples,seed"
    assert len(lines) == 21
