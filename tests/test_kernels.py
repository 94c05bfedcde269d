"""Numerical kernels: the slot-rate curve and the radiometer statistic."""

import dataclasses

import numpy as np
import pytest

from covertuav import beamform, channel, kernels, secmetrics, trajectory
from covertuav.scenario import with_overrides


CANON = kernels.SlotEnv(c_ba=5.882352941176471e-07, c_ca=9.756097560975609e-07,
                        c_cw=1.0245260037354589e-09, g_bw=7.071067811865476e-09,
                        q_b_max=1.0, q_c_max=1e-3, sigma_a2=1e-12,
                        sigma_w2=1e-12, gamma_t=2.0 ** 16 - 1.0, gamma_c=15.0,
                        eta_s=0.01, kappa=0.5, r_t=16.0, r_c=4.0)


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
    packaged decision is the same evaluation, with metrics matching the
    closed-form references."""
    cfg = with_overrides(cfg, **overrides)
    gains0 = channel.gains_for_positions(
        cfg, trajectory.initial_plan(cfg).comm_positions)
    env = beamform.slot_env(cfg, gains0, 0)
    q = np.linspace(0.0, env.q_c_feasible, 64)
    direct = kernels.slot_rate_curve(q, kernels.SlotEnv(
        c_ba=float(gains0.g_ba[0]), c_ca=float(gains0.g_ca[0]),
        c_cw=float(gains0.g_cw), g_bw=float(gains0.g_bw),
        q_b_max=cfg.q_b_max_w, q_c_max=cfg.q_c_max_w,
        sigma_a2=cfg.sigma_a2_w, sigma_w2=cfg.sigma_w2_w,
        gamma_t=cfg.gamma_t, gamma_c=cfg.gamma_c, eta_s=cfg.eta_s,
        kappa=cfg.kappa, r_t=cfg.r_t, r_c=cfg.r_c))
    np.testing.assert_allclose(env.rate(q), direct, rtol=1e-13)

    rng = np.random.default_rng(11)
    eta = cfg.eta_s
    for slot in map(int, rng.integers(0, len(gains0.g_ba), 24)):
        env = beamform.slot_env(cfg, gains0, slot)
        q = float(rng.uniform(0.0, env.q_c_feasible))
        d = beamform.decision_at(env, q)
        assert d.rate == env.rate(q)
        _, p_ba, p_ca, p_cw = env.split_powers(q)
        rel = dict(rel=1e-12, abs=1e-300)
        assert d.scp == pytest.approx(
            secmetrics.scp_h1(p_ba, p_ca, env.sigma_a2, env.r_t), **rel)
        assert d.ccp == pytest.approx(
            secmetrics.ccp(p_ba, p_ca, env.sigma_a2, env.r_t, env.r_c), **rel)
        assert d.r_w == pytest.approx(
            secmetrics.secrecy_redundancy(env.budget, p_cw, env.sigma_w2, eta),
            **rel)
