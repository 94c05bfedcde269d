"""Acceptance gate: ten go/no-go checks on the full pipeline.

Each test prints one PASS/FAIL line (visible with -s, or on failure) and
then asserts, so a plain pytest run doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from covertuav import (beamform, channel, mc_oracle, orchestrator, scenario,
                       secmetrics, trajectory)
from covertuav.rng import make_rng

KAPPAS = [round(0.1 * k, 1) for k in range(1, 10)]


def _report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def slot0(cfg):
    plan = trajectory.initial_plan(cfg)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    return gains, beamform.slot_env(cfg, gains, 0)


@pytest.fixture(scope="module")
def bcd130(cfg):
    start = time.perf_counter()
    trace = orchestrator.run_bcd(cfg, max_iters=50)
    return trace, time.perf_counter() - start


def test_criterion_01_closed_forms_agree_with_simulation():
    start = time.perf_counter()
    rows = mc_oracle.agreement_suite(samples=100_000, seed=0)
    elapsed = time.perf_counter() - start
    hits = sum(r.agrees for r in rows)
    ok = hits >= 18 and len(rows) == 20 and elapsed < 60.0
    assert _report(1, ok,
                   f"connection/outage/covert probabilities vs 1e5-sample "
                   f"simulation: {hits}/{len(rows)} rows inside the 95% "
                   f"interval in {elapsed:.1f}s")


def test_criterion_02_detector_error_matches_symbol_simulation():
    start = time.perf_counter()
    stats1 = secmetrics.DetectionStats(sigma0=1.0, sigma1=2.0,
                                       q_th=2.0 * math.log(2.0), m=1)
    anchor = abs(secmetrics.dep(stats1)[2] - 0.75) <= 1e-12
    misses = []
    for m in (1, 10, 100):
        stats = secmetrics.DetectionStats(
            sigma0=1.0, sigma1=2.0,
            q_th=secmetrics.optimal_threshold(1.0, 2.0), m=m)
        _, _, p_e = secmetrics.dep(stats)
        _, _, est = mc_oracle.mc_dep(stats, trials=100_000, seed=0)
        if not est.agrees_with(p_e):
            misses.append(m)
    elapsed = time.perf_counter() - start
    ok = anchor and not misses and elapsed < 60.0
    assert _report(2, ok,
                   f"radiometer closed form vs symbol-level draws at "
                   f"m in (1, 10, 100): misses {misses or 'none'}, exact "
                   f"0.75 anchor {'hit' if anchor else 'missed'}, "
                   f"{elapsed:.1f}s")


def test_criterion_03_threshold_rule_beats_grid():
    rng = make_rng(3)
    worst = 0.0
    for _ in range(50):
        s0 = 10.0 ** rng.uniform(-1.0, 1.0)
        s1 = s0 * (1.0 + 10.0 ** rng.uniform(-2.0, 1.0))
        m = int(rng.integers(1, 200))
        stats = secmetrics.DetectionStats(
            sigma0=s0, sigma1=s1,
            q_th=secmetrics.optimal_threshold(s0, s1), m=m)
        grid = np.geomspace(0.2 * s0, 5.0 * s1, 1000)
        _, _, p_grid = secmetrics.dep(stats, grid)
        _, _, p_star = secmetrics.dep(stats)
        worst = max(worst, p_star - float(np.min(p_grid)))
    ok = worst <= 1e-12
    assert _report(3, ok,
                   f"operating threshold vs 1000-point grids on 50 random "
                   f"detector settings: worst excess {worst:.2e}")


def test_criterion_04_power_coupling_blinds_the_detector(cfg, slot0):
    gains, _ = slot0
    worst_residual = 0.0
    worst_flat = 0.0
    for slot in (0, cfg.n_slots // 2, cfg.n_slots - 1):
        env = beamform.slot_env(cfg, gains, slot)
        q_star = beamform.bsa_optimize(env=env, zeta1=cfg.zeta1_w).q_c
        for q_c in (0.25 * env.q_c_feasible, 0.5 * env.q_c_feasible,
                    env.q_c_feasible, q_star):
            decision = beamform.decision_at(env, q_c)
            worst_residual = max(worst_residual,
                                 decision.covertness_residual(env))
            s0 = env.budget + env.sigma_w2
            s1 = (decision.q_b * env.g_bw + decision.q_c * env.c_cw
                  + env.sigma_w2)
            stats = secmetrics.DetectionStats(
                sigma0=s0, sigma1=s1, q_th=s0, m=cfg.m_samples)
            grid = np.geomspace(0.25 * s0, 4.0 * s0, 33)
            _, _, p_e = secmetrics.dep(stats, grid)
            worst_flat = max(worst_flat,
                             float(np.max(np.abs(np.asarray(p_e) - 1.0))))
    ok = worst_residual <= 1e-9 and worst_flat <= 1e-12
    assert _report(4, ok,
                   f"carved cover keeps the adversary's received power "
                   f"level (worst relative residual {worst_residual:.2e}) "
                   f"and the detector blind (worst 1-P_e {worst_flat:.2e})")


def test_criterion_05_monotonicity_sweeps(cfg, slot0):
    _, env = slot0
    q_b, p_ba, p_ca, _ = env.split_powers(0.5 * env.q_c_feasible)
    r_grid = np.linspace(0.0, 30.0, 100)
    scp0 = np.array([secmetrics.scp_h0(env.c_ba * env.q_b_max, env.sigma_a2,
                                       r) for r in r_grid])
    scp1 = np.array([secmetrics.scp_h1(p_ba, p_ca, env.sigma_a2, r)
                     for r in r_grid])
    sop0 = np.array([secmetrics.sop_h0(env.budget, env.sigma_w2, r)
                     for r in r_grid])
    dep_m = []
    for m in range(1, 101):
        stats = secmetrics.DetectionStats(
            sigma0=1.0, sigma1=1.8,
            q_th=secmetrics.optimal_threshold(1.0, 1.8), m=m)
        dep_m.append(secmetrics.dep(stats)[2])
    checks = {
        "scp_h0 in r_t": np.diff(scp0), "scp_h1 in r_t": np.diff(scp1),
        "sop_h0 in r_w": np.diff(sop0), "min dep in m": np.diff(dep_m),
    }
    bad = [name for name, d in checks.items() if np.any(d > 1e-12)]
    ok = not bad
    assert _report(5, ok,
                   "100-point sweeps all nonincreasing"
                   f" ({'violations: ' + ', '.join(bad) if bad else 'clean'})")


def test_criterion_06_slot_power_search_is_optimal(cfg, slot0):
    gains, env = slot0
    grid = np.linspace(0.0, env.q_c_feasible, 10_001)
    vals = env.rate(grid)
    peak = int(np.argmax(vals))
    tiny = 1e-12 * float(np.max(np.abs(vals)))
    unimodal = (bool(np.all(np.diff(vals[:peak + 1]) >= -tiny))
                and bool(np.all(np.diff(vals[peak:]) <= tiny)))
    res = beamform.bsa_optimize(env=env, zeta1=cfg.zeta1_w)
    gap = abs(res.q_c - float(grid[peak]))
    worst_ratio = 1.0
    rng = make_rng(42)
    for slot in rng.choice(cfg.n_slots, size=10, replace=False):
        draw = channel.draw_fading(cfg, gains, int(slot), rng)
        picked = beamform.choose_directions(cfg, gains, draw.h_ba[0],
                                            draw.h_ca[0], draw.h_cw[0])
        oracle = beamform.oracle_2d(cfg, gains, draw.h_ba[0], draw.h_ca[0],
                                    draw.h_cw[0], grid=(96, 96))
        worst_ratio = min(worst_ratio, picked.decision.rate /
                          oracle.objective)
    ok = unimodal and gap <= cfg.zeta1_w and worst_ratio >= 0.99
    assert _report(6, ok,
                   f"slot curve unimodal on a 1e4 grid: {unimodal}; "
                   f"bisection lands {gap:.2e} W from the grid peak "
                   f"(tol {cfg.zeta1_w:.0e}); joint search within "
                   f"{100 * (1 - worst_ratio):.3f}% of the brute-force "
                   f"rectangle on 10 random slots")


def test_criterion_07_linearization_matches_finite_differences(cfg):
    def richardson(f, x, eps):
        d1 = (f(x + eps) - f(x - eps)) / (2 * eps)
        d2 = (f(x + eps / 2) - f(x - eps / 2)) / eps
        return (4 * d2 - d1) / 3.0

    def stub_plan(mu_b, mu_c):
        pos = np.zeros((2, 2))
        return trajectory.TrajectoryPlan(
            positions=pos, velocities=np.zeros((2, 2)),
            accelerations=np.zeros((2, 2)),
            mu_ba=np.array([mu_b, mu_b]), mu_ca=np.array([mu_c, mu_c]))

    rng = np.random.default_rng(7)
    checked = 0
    tries = 0
    worst = 0.0
    while checked < 100 and tries < 2000:
        tries += 1
        mu_b = 10.0 ** rng.uniform(3.5, 5.7)
        mu_c = 10.0 ** rng.uniform(3.5, 5.7)
        q_c = 10.0 ** rng.uniform(-6.5, -3.0)
        lin = trajectory.linearize(stub_plan(mu_b, mu_c), q_c, cfg)
        for axis in ("ba", "ca"):
            def f(mu, axis=axis):
                if axis == "ba":
                    return trajectory.rate_of_mu(mu, mu_c, q_c, cfg)
                return trajectory.rate_of_mu(mu_b, mu, q_c, cfg)

            x = mu_b if axis == "ba" else mu_c
            fd = richardson(f, x, 1e-4 * x)
            if abs(fd) < 1e-9:
                continue
            analytic = float(getattr(lin, f"d_{axis}")[0])
            worst = max(worst, abs(analytic - fd) / abs(fd))
            checked += 1
    ok = checked >= 100 and worst <= 1e-5
    assert _report(7, ok,
                   f"analytic slack derivatives vs central differences at "
                   f"{checked} random points: worst relative error "
                   f"{worst:.2e}")


def test_criterion_08_joint_loop_converges(cfg, bcd130):
    trace, elapsed = bcd130
    obj = np.asarray(trace.objectives)
    monotone = bool(np.all(np.diff(obj) >= 0))
    d_b = channel.squared_horizontal_distance(trace.plan.positions, cfg.l_b)
    d_c = channel.squared_horizontal_distance(trace.plan.positions, cfg.l_c)
    tightness = max(float(np.max((trace.plan.mu_ba - d_b) / d_b)),
                    float(np.max((trace.plan.mu_ca - d_c) / d_c)))
    ok = (trace.error is None and trace.converged and monotone
          and trace.iterations <= 50 and tightness <= 1e-4
          and elapsed < 600.0)
    assert _report(8, ok,
                   f"joint loop nondecreasing and converged in "
                   f"{trace.iterations} refinement iterations "
                   f"({elapsed:.1f}s), "
                   f"final objective {trace.objective:.6f}, slack "
                   f"tightness {tightness:.2e}")


def test_criterion_09_baseline_orderings(cfg, bcd130):
    joint = bcd130[0].objective
    fixed = orchestrator.run_sotfb(cfg).objective
    # the covert-free objective is a pure average secret rate, so it is
    # compared with the joint design's average secret rate, not with its
    # weighted objective, which also carries the covert term
    silent_secret = orchestrator.run_h0_benchmark(cfg).objective
    d = bcd130[0].decisions
    joint_secret = float(np.mean(d.scp * d.r_s))
    shorter = orchestrator.run_bcd(
        scenario.bundled_scenario("paper_t100")).objective
    ok_fixed = joint >= fixed - 1e-9
    ok_silent = silent_secret >= joint_secret - 1e-9
    ok_shorter = joint >= shorter - 1e-9
    ok = ok_fixed and ok_silent and ok_shorter
    assert _report(9, ok,
                   f"joint {joint:.4f} >= fixed-beam {fixed:.4f}: "
                   f"{ok_fixed}; covert-free secret rate "
                   f"{silent_secret:.4f} >= joint secret rate "
                   f"{joint_secret:.4f}: {ok_silent}; 130 s horizon >= "
                   f"100 s horizon {shorter:.4f}: {ok_shorter}")


def _dominated(rows, eps=1e-9):
    bad = []
    for i, a in enumerate(rows):
        scale_s = max(abs(a.phi_s), 1.0)
        scale_c = max(abs(a.phi_c), 1.0)
        for j, b in enumerate(rows):
            if i == j:
                continue
            ge_s = b.phi_s >= a.phi_s - eps * scale_s
            ge_c = b.phi_c >= a.phi_c - eps * scale_c
            gt = (b.phi_s > a.phi_s + eps * scale_s
                  or b.phi_c > a.phi_c + eps * scale_c)
            if ge_s and ge_c and gt:
                bad.append(a.kappa)
                break
    return bad


def test_criterion_10_weight_sweep_traces_a_frontier(cfg):
    base = orchestrator.pareto_sweep(cfg, KAPPAS)
    degraded = orchestrator.pareto_sweep(
        scenario.with_overrides(cfg, xi_bw=-3.5), KAPPAS)
    errors = [r.kappa for r in base + degraded if r.error is not None]
    dominated = _dominated(base)
    share_base = [r.phi_s / (r.phi_s + r.phi_c) for r in base]
    share_deg = [r.phi_s / (r.phi_s + r.phi_c) for r in degraded]
    shifted = all(d > b for b, d in zip(share_base, share_deg))
    ok = not errors and not dominated and shifted
    assert _report(10, ok,
                   f"9-point weight sweep has no dominated rows "
                   f"(offenders: {dominated or 'none'}); weakening the "
                   f"adversary's channel lifts the secret-rate share at "
                   f"every weight ({min(share_base):.3f}-"
                   f"{max(share_base):.3f} to {min(share_deg):.3f}-"
                   f"{max(share_deg):.3f}): {shifted}")
