"""Monte Carlo estimators used to validate the closed-form metrics.

These tests run the simulations at sizes where the 95% intervals are
tight enough to be meaningful but the suite stays fast.
"""

import math
import os
import sys
import threading
import time

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
    """mc_dep's counts are those of one-shot (n, 2m) draws over chunks of
    2 500 trials, the last one the remainder, chunk w drawing from
    make_rng(seed, worker=w); at m = 10 and 100 its row blocks are shorter
    than a chunk."""
    trials, seed = 12_345, 7
    for m in (1, 10, 100):
        stats = DetectionStats(1.0, 1.8, sm.optimal_threshold(1.0, 1.8), m)
        fa = md = 0
        for worker, start in enumerate(range(0, trials, 2_500)):
            n = min(2_500, trials - start)
            rng = make_rng(seed, worker=worker)
            t0 = radiometer_statistic(rng.standard_normal((n, 2 * m)),
                                      stats.sigma0)
            t1 = radiometer_statistic(rng.standard_normal((n, 2 * m)),
                                      stats.sigma1)
            fa += int(np.count_nonzero(t0 > stats.q_th))
            md += int(np.count_nonzero(t1 <= stats.q_th))
        assert worker == 4 and n == 2_345
        pf, pm, pe = mc.mc_dep(stats, trials=trials, seed=seed)
        assert (pf.estimate, pm.estimate) == (fa / trials, md / trials)
        assert pf.n_samples == pm.n_samples == pe.n_samples == trials
        assert pe.estimate == pf.estimate + pm.estimate


# -- chunked counting: bits and threads -----------------------------------------

def _one_shot(rng, mean, n):
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return (0.5 * mean) * (re * re + im * im)


# estimator name -> (arguments, the same event on one-shot draws)
_SERIAL_EVENTS = {
    "scp_h0": ((1.0, 1.0, 1.0),
               lambda rng, n: _one_shot(rng, 1.0, n) >= 1.0),
    "scp_h1": ((2.0, 1.0, 1.0, 1.0),
               lambda rng, n: 2.0 >= 1.0 * (_one_shot(rng, 1.0, n) + 1.0)),
    "sop_h0": ((1.5, 1.0, 1.0),
               lambda rng, n: _one_shot(rng, 1.5, n) >= 1.0),
    "sop_h1": ((2.0, 1.0, 1.0, 1.0),
               lambda rng, n: _one_shot(rng, 2.0, n)
               >= 1.0 * (_one_shot(rng, 1.0, n) + 1.0)),
    "ccp": ((2.0, 1.0, 1.0, 1.0, 0.5),
            lambda rng, n: (2.0 >= 1.0 * (_one_shot(rng, 1.0, n) + 1.0))
            & (_one_shot(rng, 1.0, n) >= (2.0 ** 0.5 - 1.0) * 1.0)),
}


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("metric", sorted(_SERIAL_EVENTS))
def test_estimates_equal_a_serial_one_shot_loop(metric, cpus, monkeypatch):
    """Three chunks, the last one partial: every estimate is the serial
    loop's over one-shot draws, whatever the CPU count."""
    monkeypatch.setattr(mc, "_cpus", lambda: cpus)
    args, event = _SERIAL_EVENTS[metric]
    samples, seed = 600_001, 3
    hits = 0
    for worker, start in enumerate(range(0, samples, 250_000)):
        n = min(250_000, samples - start)
        hits += int(np.count_nonzero(event(make_rng(seed, worker=worker), n)))
    assert worker == 2 and n == 100_001
    est = getattr(mc, f"estimate_{metric}")(*args, samples=samples, seed=seed)
    assert est.estimate == hits / samples
    assert 0.05 < est.estimate < 0.95


def test_exp_power_streams_blocks_bit_for_bit():
    n = 3 * mc._BLOCK + 5
    rng_a, rng_b = make_rng(5), make_rng(5)
    assert np.array_equal(mc._exp_power(rng_a, 2.5, n), _one_shot(rng_b, 2.5, n))
    # both consumed the same stretch of the stream
    assert rng_a.standard_normal() == rng_b.standard_normal()


def _positive_normals(rng, n):
    return int(np.count_nonzero(rng.standard_normal(n) > 0.0))


def _serial_count(event, samples, seed, chunk):
    return sum(event(make_rng(seed, worker=w), min(chunk, samples - start))
               for w, start in enumerate(range(0, samples, chunk)))


@pytest.mark.parametrize("cpus", [2, 3])
def test_count_hits_reraises_a_chunk_error(cpus, monkeypatch):
    """A ValueError in chunk 2 (the caller's with two CPUs, a helper's with
    three) is raised as is, and the next count is the serial one."""
    monkeypatch.setattr(mc, "_cpus", lambda: cpus)
    error = ValueError("chunk 2 failed")

    def event(rng, n):
        if n == 7:      # only chunk 2 is this short
            raise error
        return _positive_normals(rng, n)

    with pytest.raises(ValueError) as info:
        mc._count_hits(event, 2_007, seed=4, chunk=1_000)
    assert info.value is error
    assert (mc._count_hits(_positive_normals, 5_007, seed=4, chunk=1_000)
            == _serial_count(_positive_normals, 5_007, 4, 1_000))


def test_count_hits_drops_the_chunks_after_an_error(monkeypatch):
    """Once the caller's chunk 0 fails, the helper ends with the chunk it
    is counting (chunk 1) and starts none of its other nine."""
    monkeypatch.setattr(mc, "_cpus", lambda: 2)
    caller, started, calls = threading.current_thread(), threading.Event(), []

    def event(rng, n):
        calls.append(n)
        if threading.current_thread() is caller:
            assert started.wait(timeout=10.0)
            raise ValueError("chunk 0 failed")
        started.set()
        time.sleep(0.2)     # the caller raises meanwhile
        return 0

    with pytest.raises(ValueError, match="chunk 0"):
        mc._count_hits(event, 20_000, seed=1, chunk=1_000)
    assert len(calls) == 2


def test_count_hits_under_frequent_thread_switches(monkeypatch):
    """More workers than cores and a switch every microsecond: a lost or
    doubled chunk would change the count."""
    monkeypatch.setattr(mc, "_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = {mc._count_hits(_positive_normals, 64_003, seed=9, chunk=1_000)
                  for _ in range(5)}
    finally:
        sys.setswitchinterval(interval)
    assert counts == {_serial_count(_positive_normals, 64_003, 9, 1_000)}


def test_one_chunk_count_starts_no_thread(monkeypatch):
    monkeypatch.setattr(mc, "_cpus", lambda: 4)

    def no_pool(helpers):
        raise AssertionError("a one-chunk count asked for the pool")

    monkeypatch.setattr(mc, "_helper_pool", no_pool)
    before = threading.active_count()
    assert (mc._count_hits(_positive_normals, 1_000, seed=2, chunk=1_000)
            == _serial_count(_positive_normals, 1_000, 2, 1_000))
    mc.estimate_scp_h0(1.0, 1.0, 1.0, samples=250_000, seed=2)
    assert threading.active_count() == before


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert mc._cpus() == (os.cpu_count() or 1)


# -- vector-channel checks ----------------------------------------------------

def test_mc_scp_h1_matches_closed_form_at_slot(cfg, gains0):
    w_b = np.ones(cfg.n_b) / math.sqrt(cfg.n_b)
    w_c = np.ones(cfg.n_c) / math.sqrt(cfg.n_c)
    q_c = 4.38e-6
    est = mc.mc_scp_h1(cfg, gains0, (w_b, math.sqrt(q_c) * w_c),
                       samples=100_000, seed=8)
    # mean interference power of the drawn Rayleigh vector channel
    p_ba = cfg.n_b * gains0.a2_ba[0]
    p_ca = gains0.a2_ca[0] * q_c
    closed = sm.scp_h1(p_ba, p_ca, cfg.sigma_a2_w, cfg.r_t)
    assert est.agrees_with(closed)


def test_mc_scp_h1_shape_validation(cfg, gains0):
    with pytest.raises(ValueError, match="beamformer shapes"):
        mc.mc_scp_h1(cfg, gains0, (np.ones(cfg.n_b + 1), np.ones(cfg.n_c)),
                     samples=10_000)


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


def test_agreement_rows_do_not_replay_nearby_seeds():
    """Row k at base seed s draws its own stream, not row 0's at s + k."""
    a = mc.agreement_suite(samples=10_000, seed=9, sets_per_metric=1)
    b = mc.agreement_suite(samples=10_000, seed=10, sets_per_metric=1)
    seeds = [r.seed for r in a + b]
    assert len(set(seeds)) == len(seeds)


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
