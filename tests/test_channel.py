"""Large-scale gain models and small-scale fading draws."""

import numpy as np
import pytest

from covertuav import channel, kernels
from covertuav.rng import make_rng
from covertuav.scenario import bundled_scenario, with_overrides


# -- geometry ----------------------------------------------------------------

def test_squared_horizontal_distance_shapes():
    one = channel.squared_horizontal_distance((3.0, 4.0), (0.0, 0.0))
    assert one == pytest.approx(25.0)
    stack = channel.squared_horizontal_distance(
        np.array([[3.0, 4.0], [0.0, 0.0]]), (0.0, 0.0))
    assert stack.shape == (2,)
    assert stack[0] == pytest.approx(25.0) and stack[1] == 0.0


# -- air links ---------------------------------------------------------------

def test_air_gain_reference_point(cfg):
    # mu = 130000 m^2 at H = 200 m: 0.1 / (200^2 + 130000)
    got = channel.air_large_scale(cfg, 130000.0, -2.0)
    assert got == pytest.approx(5.882352941176471e-07, rel=1e-14)


def test_air_gain_directly_above(cfg):
    got = channel.air_large_scale(cfg, 0.0, -2.0)
    assert got == pytest.approx(2.5e-06, rel=1e-14)


def test_air_gain_monotone_in_distance(cfg):
    mus = np.linspace(0.0, 4e5, 200)
    vals = channel.air_large_scale(cfg, mus, -2.0)
    assert np.all(np.diff(vals) < 0)


def test_air_gain_general_exponent_agrees_at_minus_two(cfg):
    """The general-exponent path must reproduce the xi = -2 special case."""
    for mu in (0.0, 1e3, 1.3e5, 9e5):
        a = channel.air_large_scale(cfg, mu, -2.0)
        b = cfg.lambda0 * (cfg.h_m ** 2 + mu) ** (-2.0 / 2.0)
        assert a == pytest.approx(b, rel=1e-12)
    # a genuinely non-quadratic exponent still decays monotonically
    vals = channel.air_large_scale(cfg, np.linspace(0, 1e5, 50), -2.7)
    assert np.all(np.diff(vals) < 0)


# -- ground links ------------------------------------------------------------

def test_ground_gain_reference_point(cfg):
    # Bob to the adversary: |(200,300)-(100,400)| = 141.42 m at xi = -3
    d = np.hypot(100.0, 100.0)
    got = channel.ground_large_scale(cfg, d, -3.0)
    assert d == pytest.approx(141.4213562373095, rel=1e-12)
    assert got == pytest.approx(0.01 * d ** -3.0, rel=1e-14)
    assert got == pytest.approx(3.5355339059327376e-09, rel=1e-12)


def test_ground_gain_unit_distance_is_reference_product(cfg):
    # at unit distance the gain collapses to eta0 * lambda0
    assert channel.ground_large_scale(cfg, 1.0, -3.0) == pytest.approx(
        cfg.eta0 * cfg.lambda0, rel=1e-14)


def test_ground_gain_zero_distance_rejected(cfg):
    with pytest.raises(ValueError, match="distance"):
        channel.ground_large_scale(cfg, 0.0, -3.0)


# -- per-slot gain tables ----------------------------------------------------

def test_gains_for_positions_reference_slot(cfg, gains0):
    # first comm position of the nominal ferry line is (0, 0)
    mu_b = channel.squared_horizontal_distance((0.0, 0.0), cfg.l_b)
    assert gains0.a2_ba[0] == pytest.approx(
        channel.air_large_scale(cfg, mu_b, cfg.xi_ba), rel=1e-12)
    assert gains0.a2_ba[0] == pytest.approx(5.882352941176471e-07, rel=1e-12)
    assert gains0.a2_ca[0] == pytest.approx(9.756097560975609e-07, rel=1e-12)
    assert gains0.a2_bw == pytest.approx(3.5355339059327376e-09, rel=1e-12)
    # the slot model scales the per-antenna gains by the element counts
    env = kernels.slot_env(cfg, gains0, 0)
    assert env.c_ba == cfg.n_b * gains0.a2_ba[0]
    assert env.c_ca == cfg.n_c * gains0.a2_ca[0]
    assert env.g_bw == pytest.approx(7.071067811865476e-09, rel=1e-12)
    assert env.c_cw == pytest.approx(1.0245260037354589e-09, rel=1e-12)


def test_gain_table_is_write_locked(gains0):
    with pytest.raises(ValueError):
        gains0.a2_ba[0] = 1.0


def test_gain_table_length_matches_positions(cfg, plan0):
    g = channel.gains_for_positions(cfg, plan0.comm_positions)
    assert len(g.a2_ba) == cfg.n_slots
    assert len(g.a2_ca) == cfg.n_slots


# -- small-scale fading ------------------------------------------------------

def test_rician_high_k_approaches_line_of_sight():
    rng = make_rng(7)
    g = channel.rician_fading(rng, 4, 1e9, size=256)
    assert np.allclose(np.abs(g), 1.0, atol=1e-3)


def test_rician_zero_k_is_rayleigh():
    a = channel.rician_fading(make_rng(11), 3, 0.0, size=8)
    b = channel.rayleigh_fading(make_rng(11), 3, size=8)
    assert np.array_equal(a, b)


def test_negative_k_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        channel.rician_fading(make_rng(0), 2, -0.5)


@pytest.mark.parametrize("k", [0.0, 1.0, 10.0 ** 0.3, 25.0])
def test_fading_second_moment_is_antenna_count(k):
    """E ||g||^2 / N should sit within 1% of 1 at 1e5 draws for any K."""
    rng = make_rng(123)
    g = channel.rician_fading(rng, 2, k, size=100_000)
    ratio = np.mean(np.sum(np.abs(g) ** 2, axis=1)) / 2.0
    assert 0.99 <= ratio <= 1.01


def test_fading_is_bit_identical_per_seed(cfg, gains0):
    d1 = channel.draw_fading(cfg, gains0, 0, make_rng(99), size=16)
    d2 = channel.draw_fading(cfg, gains0, 0, make_rng(99), size=16)
    assert np.array_equal(d1.h_ba, d2.h_ba)
    assert np.array_equal(d1.h_ca, d2.h_ca)
    assert np.array_equal(d1.h_bw, d2.h_bw)
    assert np.array_equal(d1.h_cw, d2.h_cw)
    d3 = channel.draw_fading(cfg, gains0, 0, make_rng(100), size=16)
    assert not np.array_equal(d1.h_ba, d3.h_ba)


def test_draw_fading_shapes_and_scale(cfg, gains0):
    d = channel.draw_fading(cfg, gains0, 0, make_rng(5), size=40_000)
    assert d.h_ba.shape == (40_000, cfg.n_b)
    assert d.h_cw.shape == (40_000, cfg.n_c)
    # the drawn channel's mean squared norm matches the array gain
    g_hat = np.mean(np.sum(np.abs(d.h_ba) ** 2, axis=1))
    assert g_hat == pytest.approx(cfg.n_b * gains0.a2_ba[0], rel=0.03)


def test_draw_fading_slot_out_of_range(cfg, gains0):
    with pytest.raises(IndexError, match="slot"):
        channel.draw_fading(cfg, gains0, cfg.n_slots, make_rng(0))


def test_antenna_count_changes_gain_table(cfg, plan0):
    wide = with_overrides(cfg, n_b=4, n_c=4)
    g = channel.gains_for_positions(wide, plan0.comm_positions)
    base = channel.gains_for_positions(cfg, plan0.comm_positions)
    # the table is per antenna; the slot model's full-trace gains double
    assert np.array_equal(g.a2_ba, base.a2_ba) and g.a2_bw == base.a2_bw
    env, env_base = (kernels.slot_env(c, t, 0)
                     for c, t in ((wide, g), (cfg, base)))
    assert env.c_ba == pytest.approx(2.0 * env_base.c_ba, rel=1e-12)
    assert env.g_bw == pytest.approx(2.0 * env_base.g_bw, rel=1e-12)
