"""Numerical kernels: the slot-rate curve and the radiometer statistic."""

import dataclasses

import numpy as np
import pytest

from covertuav import beamform, channel, kernels, secmetrics, trajectory
from covertuav.scenario import with_overrides


CANON = kernels.SlotEnv(c_ba=5.882352941176471e-07, c_ca=9.756097560975609e-07,
                        c_cw=1.0245260037354589e-09, g_bw=7.071067811865476e-09,
                        q_b_max=1.0, q_c_max=1e-3, sigma_a2=1e-12,
                        sigma_w2=1e-12, eta_s=0.01, kappa=0.5, r_t=16.0,
                        r_c=4.0)


def _curve(q):
    return kernels.slot_rate_curve(q, CANON)


def test_slot_rate_scalar_in_scalar_out():
    out = _curve(5e-6)
    assert isinstance(out, float)
    arr = _curve(np.array([5e-6]))
    assert arr.shape == (1,)
    assert out == arr[0]


def test_slot_rate_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        _curve(-1e-6)
    with pytest.raises(ValueError, match="g_bw"):
        kernels.slot_rate_curve(1e-6, dataclasses.replace(CANON, g_bw=0.0))
    with pytest.raises(ValueError, match="one-dimensional"):
        _curve(np.zeros((2, 2)))


def test_slot_rate_rows_of_slots():
    """Per-slot gain columns against a (slots, powers) grid give each row
    exactly its own one-slot curve, the -inf mask included."""
    c_ba = CANON.c_ba * np.array([[1.0], [0.5], [2.0]])
    c_cw = CANON.c_cw * np.array([[1.0], [3.0], [1e4]])
    q = np.linspace(0.0, 1e-3, 7) * np.ones((3, 1))
    rows = kernels.slot_rate_curve(
        q, dataclasses.replace(CANON, c_ba=c_ba, c_cw=c_cw))
    assert rows.shape == (3, 7)
    for r in range(3):
        one = kernels.slot_rate_curve(
            q[r], dataclasses.replace(CANON, c_ba=c_ba[r, 0], c_cw=c_cw[r, 0]))
        assert np.array_equal(rows[r], one)
    assert np.isneginf(rows[2, -1]) and np.isfinite(rows[2, 0])


def test_slot_rate_infeasible_is_minus_inf():
    # cover demand c_cw * q exceeding q_b_max * g_bw cannot be masked
    q_limit = CANON.q_b_max * CANON.g_bw / CANON.c_cw
    assert _curve(2.0 * q_limit) == -np.inf
    assert np.isfinite(_curve(0.5 * q_limit))


def test_radiometer_statistic_moments():
    """Block averages of scaled complex noise center on the scale."""
    rng = np.random.default_rng(7)
    m = 100
    draws = rng.standard_normal((20_000, 2 * m))
    stats = kernels.radiometer_statistic(draws, 3.0)
    assert stats.shape == (20_000,)
    assert np.mean(stats) == pytest.approx(3.0, rel=0.01)
    assert np.var(stats) == pytest.approx(9.0 / m, rel=0.05)


def test_radiometer_input_validation():
    with pytest.raises(ValueError, match="draws"):
        kernels.radiometer_statistic(np.zeros(8), 1.0)
    with pytest.raises(ValueError, match="scale"):
        kernels.radiometer_statistic(np.zeros((4, 8)), 0.0)


@pytest.mark.parametrize("overrides", [{}, dict(n_b=4, n_c=2, eta_s=0.05)],
                         ids=["paper_default", "n_b4_n_c2_eta0.05"])
def test_kernel_matches_slot_env_rate(cfg, overrides):
    """The raw kernel on a record spelled out from the scenario and the
    slot wrapper describe the same curve, and at seeded random slots the
    packaged decision is the same evaluation, with metrics equal to the
    closed forms bit for bit: at a random covert power, at no cover, at
    the largest feasible cover, and with a zero target or covert rate."""
    cfg = with_overrides(cfg, **overrides)
    gains0 = channel.gains_for_positions(
        cfg, trajectory.initial_plan(cfg).comm_positions)
    env = beamform.slot_env(cfg, gains0, 0)
    q = np.linspace(0.0, env.q_c_feasible, 64)
    direct = kernels.slot_rate_curve(q, kernels.SlotEnv(
        c_ba=float(cfg.n_b * gains0.a2_ba[0]),
        c_ca=float(cfg.n_c * gains0.a2_ca[0]),
        c_cw=float(cfg.n_c * gains0.a2_cw), g_bw=float(cfg.n_b * gains0.a2_bw),
        q_b_max=cfg.q_b_max_w, q_c_max=cfg.q_c_max_w,
        sigma_a2=cfg.sigma_a2_w, sigma_w2=cfg.sigma_w2_w, eta_s=cfg.eta_s,
        kappa=cfg.kappa, r_t=cfg.r_t, r_c=cfg.r_c))
    np.testing.assert_allclose(env.rate(q), direct, rtol=1e-13)

    rng = np.random.default_rng(11)
    eta = cfg.eta_s
    for slot in map(int, rng.integers(0, len(gains0.a2_ba), 24)):
        base = beamform.slot_env(cfg, gains0, slot)
        for env in (base, dataclasses.replace(base, r_t=0.0),
                    dataclasses.replace(base, r_c=0.0)):
            for q in (float(rng.uniform(0.0, env.q_c_feasible)), 0.0,
                      env.q_c_feasible):
                d = beamform.decision_at(env, q)
                assert d.rate == env.rate(q)
                _, p_ba, p_ca, p_cw = env.split_powers(q)
                assert d.scp == secmetrics.scp_h1(p_ba, p_ca, env.sigma_a2,
                                                  env.r_t)
                assert d.ccp == secmetrics.ccp(p_ba, p_ca, env.sigma_a2,
                                               env.r_t, env.r_c)
                assert d.r_w == secmetrics.secrecy_redundancy(
                    env.budget, min(p_cw, env.budget), env.sigma_w2, eta)


@pytest.mark.parametrize("overrides", [{}, dict(n_b=4, eta_s=0.05),
                                       dict(r_t=0.0)],
                         ids=["paper_default", "n_b4_eta0.05", "r_t0"])
def test_h0_decision_matches_closed_forms(cfg, overrides):
    """The covert-silent decision table evaluates scp_h0 and the
    redundancy rule at zero cover, bit for bit, on every slot."""
    cfg = with_overrides(cfg, **overrides)
    gains = channel.gains_for_positions(
        cfg, trajectory.initial_plan(cfg).comm_positions)
    env = beamform.slot_env(cfg, gains)
    d = beamform.h0_decision(env)
    assert np.array_equal(d.scp, secmetrics.scp_h0(
        env.c_ba * env.q_b_max, env.sigma_a2, env.r_t))
    assert np.array_equal(d.r_w, np.broadcast_to(secmetrics.secrecy_redundancy(
        env.budget, 0.0, env.sigma_w2, env.eta_s), d.r_w.shape))
    assert np.array_equal(d.rate, d.scp * d.r_s)


def test_secret_rate_clamps():
    """The secret rate is r_t - r_w where the redundancy stays below the
    target rate, and 0 where it exceeds it, under both hypotheses."""
    q = np.array([0.0, 0.5 * CANON.q_c_feasible])
    r_w = kernels.h1_slot(q, CANON).r_w
    assert r_w[0] > r_w[1]        # cover lowers the redundancy
    env = dataclasses.replace(CANON, r_t=0.5 * (r_w[0] + r_w[1]))
    t = kernels.h1_slot(q, env)
    assert t.r_s[0] == 0.0 and t.r_s[1] == env.r_t - r_w[1] > 0.0
    assert t.rate[0] == (1.0 - env.kappa) * t.scp[0] * t.tail[0] * env.r_c
    h0 = kernels.h0_slot(env.q_b_max, env)
    assert h0.r_w == r_w[0] and h0.r_s == 0.0 and h0.rate == 0.0
