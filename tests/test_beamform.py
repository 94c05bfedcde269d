"""Per-slot power search, beam selection, and the coupled power bookkeeping."""

import dataclasses
import math
import re

import numpy as np
import pytest

from covertuav import beamform, channel, secmetrics, trajectory
from covertuav.beamform import CovertBudgetError
from covertuav.rng import make_rng
from covertuav.scenario import bundled_scenario, with_overrides


@pytest.fixture
def env0(cfg, gains0):
    return beamform.slot_env(cfg, gains0, 0)


class _StubEnv:
    """Duck-typed environment with a hand-picked rate curve, for driving
    the search logic through known shapes."""

    def __init__(self, fn, q_c_max=1e-3):
        self._fn = fn
        self.q_c_max = q_c_max
        self.q_c_feasible = q_c_max

    def rate(self, q):
        out = self._fn(np.asarray(q, dtype=float))
        return out if np.ndim(q) else float(out)


# -- slot environment ----------------------------------------------------------

def test_slot_env_canonical_coefficients(env0):
    assert env0.c_ba == pytest.approx(1.1764705882352942e-06, rel=1e-13)
    assert env0.c_ca == pytest.approx(1.9512195121951218e-06, rel=1e-13)
    assert env0.c_cw == pytest.approx(1.0245260037354589e-09, rel=1e-13)
    assert env0.g_bw == pytest.approx(7.071067811865476e-09, rel=1e-13)
    assert env0.budget == pytest.approx(7.071067811865476e-09, rel=1e-13)
    # transmit cap binds before the received-power coupling here
    assert env0.q_c_feasible == pytest.approx(1e-3, rel=1e-13)


def test_slot_env_silent_covert_rate(cfg, gains0, env0):
    # a silent covert user leaves the covert-silent redundancy rule, so the
    # rate is the certain-decode secret term kappa * (r_t - r_w(H0))
    h0 = beamform.h0_decision(env0)
    assert beamform.decision_at(env0, 0.0).r_w == pytest.approx(
        h0.r_w, rel=1e-14)
    assert env0.rate(0.0) == pytest.approx(
        env0.kappa * (env0.r_t - h0.r_w), rel=1e-12)
    assert env0.rate(0.0) == pytest.approx(0.5044944221689223, rel=1e-12)


def test_split_powers_bookkeeping(env0):
    q_c = 5e-6
    q_b, p_ba, p_ca, p_cw = env0.split_powers(q_c)
    assert p_cw == pytest.approx(env0.c_cw * q_c, rel=1e-14)
    assert q_b == pytest.approx(1.0 - p_cw / env0.g_bw, rel=1e-12)
    assert p_ba == pytest.approx(env0.c_ba * q_b, rel=1e-14)
    assert p_ca == pytest.approx(env0.c_ca * q_c, rel=1e-14)
    # received sum at the adversary stays pinned to the budget
    assert q_b * env0.g_bw + p_cw == pytest.approx(env0.budget, rel=1e-12)


def test_split_powers_overdraw_names_the_bound(env0):
    tight = dataclasses.replace(env0, c_cw=env0.c_cw * 1e7)
    bad = 2.0 * tight.q_c_feasible
    with pytest.raises(CovertBudgetError, match="q_c must stay <="):
        tight.split_powers(bad)


def test_slot_objective_validates_range(env0):
    """The slot rate rejects negative powers, maps cover beyond the budget
    to -inf, and a design there raises the named budget error."""
    with pytest.raises(ValueError, match="nonnegative"):
        env0.rate(-1e-6)
    tight = dataclasses.replace(env0, c_cw=env0.c_cw * 1e7)
    bad = 2.0 * tight.q_c_feasible
    assert tight.rate(bad) == -np.inf
    with pytest.raises(CovertBudgetError, match="q_c must stay <="):
        beamform.decision_at(tight, bad)
    val = env0.rate(5e-6)
    assert np.isfinite(val) and val > 0


def test_slot_objective_finite_on_feasible_interval(env0):
    q = np.linspace(0.0, env0.q_c_feasible, 512)
    vals = env0.rate(q)
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)


# -- the power search ----------------------------------------------------------

def test_bsa_canonical_slot(cfg, gains0):
    res = beamform.bsa_optimize(cfg, gains0)
    assert res.unimodal
    assert res.q_c == pytest.approx(8.33e-6, abs=2e-7)
    assert res.objective == pytest.approx(0.8452714398380972, rel=1e-9)
    # bracket halvings to reach zeta1 from the feasible interval
    env = beamform.slot_env(cfg, gains0, 0)
    cap = math.ceil(math.log2(env.q_c_feasible / cfg.zeta1_w))
    assert res.iterations <= cap


def test_bsa_beats_dense_grid(cfg, gains0):
    env = beamform.slot_env(cfg, gains0, 0)
    res = beamform.bsa_optimize(cfg, gains0)
    grid = np.linspace(0.0, env.q_c_feasible, 10_001)
    vals = env.rate(grid)
    best = grid[int(np.argmax(vals))]
    assert abs(res.q_c - best) <= cfg.zeta1_w + (grid[1] - grid[0])
    assert res.objective >= float(np.max(vals)) - 1e-5 * abs(float(np.max(vals)))


def test_bsa_finds_synthetic_peak():
    """Known interior argmax at 0.3 of the cap, single hump."""
    q_max = 1e-3
    peak = 0.3 * q_max
    stub = _StubEnv(lambda q: -((q - peak) ** 2), q_c_max=q_max)
    res = beamform.bsa_optimize(env=stub, zeta1=1e-7)
    assert res.unimodal
    assert abs(res.q_c - peak) <= 1e-7


def test_bsa_monotone_increasing_returns_upper_boundary():
    stub = _StubEnv(lambda q: q, q_c_max=1e-3)
    res = beamform.bsa_optimize(env=stub, zeta1=1e-7)
    assert res.q_c == stub.q_c_feasible
    assert res.iterations == 0


def test_bsa_monotone_decreasing_returns_zero():
    stub = _StubEnv(lambda q: -q, q_c_max=1e-3)
    res = beamform.bsa_optimize(env=stub, zeta1=1e-7)
    assert res.q_c == 0.0
    assert res.iterations == 0


def test_bsa_increasing_real_environment(env0):
    """With the secret stream muted the covert term only gains from power."""
    inc = dataclasses.replace(env0, kappa=0.0, r_t=0.0,
                              c_cw=env0.c_cw * 1e-6)
    grid = np.linspace(0.0, inc.q_c_feasible, 200)
    assert np.all(np.diff(inc.rate(grid)) > 0)
    res = beamform.bsa_optimize(env=inc, zeta1=1e-7)
    assert res.q_c == inc.q_c_feasible


def test_bsa_flags_multiple_humps():
    """Two separated humps: flagged, and the global one is still found."""
    q_max = 1e-3

    def two_humps(q):
        a = np.exp(-0.5 * ((q - 0.2 * q_max) / (0.1 * q_max)) ** 2)
        b = 1.3 * np.exp(-0.5 * ((q - 0.7 * q_max) / (0.1 * q_max)) ** 2)
        return a + b

    stub = _StubEnv(two_humps, q_c_max=q_max)
    res = beamform.bsa_optimize(env=stub, zeta1=1e-7)
    assert not res.unimodal
    assert abs(res.q_c - 0.7 * q_max) <= 1e-6


def test_bsa_env_only_call_defaults_tolerance(env0):
    res = beamform.bsa_optimize(env=env0)
    assert abs(res.q_c - 8.33e-6) <= 1e-4 * env0.q_c_max + 1e-7


def test_bsa_no_feasible_interval(env0):
    broken = dataclasses.replace(env0, q_c_max=0.0)
    # construction above is impossible through ScenarioConfig, but the
    # search still guards its own interval
    with pytest.raises(CovertBudgetError, match="no feasible covert power"):
        beamform.bsa_optimize(env=broken)


def _scalar_bsa(env, zeta1, prescan=129):
    """The one-slot search written out scalar by scalar: the reference the
    batched search must reproduce bit for bit, evaluation counts included
    (every end-point slope test counts, also when the search goes on)."""
    hi = env.q_c_feasible
    step = max(1e-6 * env.q_c_max, 1e-12)

    def slope(q):
        f_lo, f_hi = env.rate(np.array([max(q - step, 0.0), min(q + step, hi)]))
        return f_hi - f_lo

    grid = np.linspace(0.0, hi, prescan)
    vals = env.rate(grid)
    evals = prescan
    diffs = np.diff(vals)
    noise = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    unimodal = not np.any((diffs[:-1] <= 0) & (diffs[1:] > noise))
    if not unimodal:
        dense = np.linspace(0.0, hi, 10_001)
        best = int(np.argmax(env.rate(dense)))
        evals += dense.size
        lo, up = dense[max(best - 1, 0)], dense[min(best + 1, dense.size - 1)]
    else:
        lo, up = 0.0, hi
        evals += 2
        if slope(hi) >= 0:
            return beamform.BsaBatch(hi, float(env.rate(hi)), True,
                                     evals + 1, 0)
        evals += 2
        if slope(0.0) <= 0:
            return beamform.BsaBatch(0.0, float(env.rate(0.0)), True,
                                     evals + 1, 0)
    iters = 0
    while up - lo > zeta1:
        mid = 0.5 * (lo + up)
        if slope(mid) > 0:
            lo = mid
        else:
            up = mid
        evals += 2
        iters += 1
    q = 0.5 * (lo + up)
    return beamform.BsaBatch(q, float(env.rate(q)), unimodal, evals + 1,
                             iters)


def _batch_rows(batch):
    return [beamform.BsaBatch(float(q), float(o), bool(u), int(e), int(i))
            for q, o, u, e, i in zip(*batch)]


@pytest.mark.parametrize("name", ["paper_default", "paper_t100"])
def test_bsa_slots_matches_the_scalar_search(name):
    """Every slot of the batched search equals its own scalar search
    exactly, at the initial plan and after one SCA step has moved it."""
    cfg = bundled_scenario(name)
    plan = trajectory.initial_plan(cfg)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    q_c = beamform.bsa_slots(cfg, gains).q_c
    moved = trajectory.sca_trajectory(plan, q_c, cfg, max_iters=1).plan
    assert not np.array_equal(moved.positions, plan.positions)
    for p in (plan, moved):
        gains = channel.gains_for_positions(cfg, p.comm_positions)
        got = _batch_rows(beamform.bsa_slots(cfg, gains))
        want = [_scalar_bsa(beamform.slot_env(cfg, gains, s), cfg.zeta1_w)
                for s in range(p.n_slots)]
        assert got == want
        assert got[:3] == [beamform.bsa_optimize(cfg, gains, slot=s)
                           for s in range(3)]


def test_bsa_mixed_batch_matches_single_rows():
    """One batch where a two-hump row takes the dense-grid bracket while
    the others bisect or stop at an end point: each row equals its own
    one-row search and the scalar reference."""
    q_max = 1e-3

    def two_humps(q):
        a = np.exp(-0.5 * ((q - 0.2 * q_max) / (0.1 * q_max)) ** 2)
        b = 1.3 * np.exp(-0.5 * ((q - 0.7 * q_max) / (0.1 * q_max)) ** 2)
        return a + b

    rows = [(two_humps, q_max), (lambda q: -((q - 3e-4) ** 2), 8e-4),
            (lambda q: q, q_max), (lambda q: -q, 5e-4),
            (lambda q: -((q - 2e-4) ** 2), 2.5e-4)]

    def rate(q, idx):
        return np.stack([rows[r][0](q[i]) for i, r in enumerate(idx)])

    batch = _batch_rows(beamform._bsa_rows(rate, [hi for _, hi in rows],
                                           1e-7, q_max))
    assert [r.unimodal for r in batch] == [False, True, True, True, True]
    assert [r.iterations > 0 for r in batch] == [True, True, False, False,
                                                 True]
    for res, (fn, hi) in zip(batch, rows):
        stub = _StubEnv(fn, q_c_max=q_max)
        stub.q_c_feasible = hi
        assert res == beamform.bsa_optimize(env=stub, zeta1=1e-7)
        assert res == _scalar_bsa(stub, 1e-7)
    assert abs(batch[0].q_c - 0.7 * q_max) <= 1e-6


def test_bsa_evaluations_count_every_rate_point():
    """`evaluations` is the number of powers each row's rate was evaluated
    at, for a bisecting row, an end-point row and a multi-hump row."""
    q_max = 1e-3

    def two_humps(q):
        a = np.exp(-0.5 * ((q - 0.2 * q_max) / (0.1 * q_max)) ** 2)
        b = 1.3 * np.exp(-0.5 * ((q - 0.7 * q_max) / (0.1 * q_max)) ** 2)
        return a + b

    rows = [lambda q: -((q - 3e-4) ** 2), lambda q: -q, two_humps]
    seen = np.zeros(len(rows), dtype=int)

    def rate(q, idx):
        seen[idx] += q.shape[1]
        return np.stack([rows[r](q[i]) for i, r in enumerate(idx)])

    batch = beamform._bsa_rows(rate, [q_max] * len(rows), 1e-7, q_max)
    assert list(batch.unimodal) == [True, True, False]
    assert batch.iterations[0] > 0 and batch.iterations[1] == 0
    assert list(batch.evaluations) == list(seen)


def test_bsa_batch_rejects_an_empty_interval():
    with pytest.raises(CovertBudgetError, match="no feasible covert power"):
        beamform._bsa_rows(lambda q, rows: q, [1e-3, 0.0], 1e-7, 1e-3)


# -- decisions -----------------------------------------------------------------

def test_decision_at_covertness_residual(env0):
    q_c = np.array([0.0, 1e-6, 4.364e-6, 1e-4])
    for q in q_c:
        d = beamform.decision_at(env0, q)
        assert isinstance(d.q_b, float) and d.theta == 0.0
        assert d.covertness_residual(env0) <= 1e-9
    # one slot at four powers as one table: four rows, same residuals
    table = beamform.decision_at(env0, q_c)
    assert len(table) == 4
    assert np.all(table.covertness_residual(env0) <= 1e-9)


def test_decide_slot_matches_search_then_package(cfg, gains0):
    """The table at the batched search's powers is, in slot 0, the one-slot
    search packaged at its power."""
    table = beamform.decision_at(beamform.slot_env(cfg, gains0),
                                 beamform.bsa_slots(cfg, gains0).q_c)
    d = table[0]
    res = beamform.bsa_optimize(cfg, gains0, slot=0)
    assert d.q_c == res.q_c
    assert d.rate == pytest.approx(res.objective, rel=1e-12)
    assert d.r_s == pytest.approx(cfg.r_t - d.r_w, rel=1e-12)


def test_decision_table_is_read_only(cfg, gains0):
    table = beamform.decision_at(beamform.slot_env(cfg, gains0),
                                 np.zeros(cfg.n_slots))
    assert len(table) == cfg.n_slots
    for name in ("q_b", "q_c", "theta", "r_w", "r_s", "scp", "ccp", "rate"):
        col = getattr(table, name)
        assert col.shape == (cfg.n_slots,)
        with pytest.raises(ValueError):
            col[0] = 1.0


def test_decision_table_names_the_over_budget_slot(cfg, gains0):
    env = beamform.slot_env(cfg, gains0)
    tight = dataclasses.replace(env, c_cw=env.c_cw * 1e7)
    q_c = np.full(cfg.n_slots, 0.5 * tight.q_c_feasible)
    q_c[5] = 2.0 * tight.q_c_feasible
    bound = re.escape(f"q_c must stay <= {tight.q_c_feasible:.6g} W")
    with pytest.raises(CovertBudgetError, match=f"slot 5: .*{bound}"):
        beamform.decision_at(tight, q_c)
    beamform.decision_at(tight, 0.5 * q_c)   # within budget everywhere


def test_decision_canonical_operating_point(cfg, gains0, env0):
    res = beamform.bsa_optimize(cfg, gains0)
    d = beamform.decision_at(env0, res.q_c)
    assert d.q_b == pytest.approx(0.9999987928793046, rel=1e-10)
    # the redundancy holds the covered secrecy outage exactly at the cap
    sop = secmetrics.sop_h1(d.q_b * env0.g_bw, d.q_c * env0.c_cw,
                            env0.sigma_w2, d.r_w)
    assert sop == pytest.approx(cfg.eta_s, rel=1e-10)
    assert d.r_w == pytest.approx(14.978979722845917, rel=1e-8)
    assert d.r_s == pytest.approx(1.0210202771540828, rel=1e-8)
    assert d.scp == pytest.approx(0.6475295069885448, rel=1e-7)
    assert d.ccp == pytest.approx(0.2573505307463259, rel=1e-6)


def _sop_h0(env, d):
    """Covert-silent secrecy outage of design d at its own r_w."""
    return secmetrics.sop_h0(env.budget, env.sigma_w2, d.r_w)


def test_h0_decision_canonical(cfg, env0):
    d = beamform.h0_decision(env0)
    assert d.q_b == cfg.q_b_max_w
    assert d.q_c == d.theta == d.ccp == 0.0
    assert d.r_w == pytest.approx(14.991011155662155, rel=1e-12)
    assert d.r_s == pytest.approx(1.0089888443378445, rel=1e-10)
    assert d.scp == pytest.approx(0.9458183475368589, rel=1e-12)
    # the outage cap binds exactly for this scenario
    assert _sop_h0(env0, d) == pytest.approx(cfg.eta_s, rel=1e-10)
    assert d.rate == pytest.approx(0.9543201614347451, rel=1e-10)


def test_h0_redundancy_is_the_zero_cover_rule(cfg, gains0):
    """At a lax cap (eta_s > 1/e) the covert-silent redundancy is still the
    covert-active rule at zero cover, and the outage sits at the cap."""
    env = beamform.slot_env(with_overrides(cfg, eta_s=0.5), gains0, 0)
    h0 = beamform.h0_decision(env)
    assert h0.r_w == beamform.decision_at(env, 0.0).r_w
    assert h0.r_w == pytest.approx(12.259240326604953, rel=1e-12)
    assert _sop_h0(env, h0) == pytest.approx(0.5, rel=1e-12)


def test_h0_outage_cap_binds_when_tight(cfg, gains0):
    """For caps below 1/e the boundary redundancy exceeds the capacity."""
    for eta in (0.005, 0.01, 0.1, 0.3):
        env = beamform.slot_env(with_overrides(cfg, eta_s=eta), gains0, 0)
        d = beamform.h0_decision(env)
        assert _sop_h0(env, d) <= eta * (1.0 + 1e-9)


# -- direction choice over the beam family --------------------------------------

def _random_channels(cfg, gains, seed):
    rng = make_rng(seed)
    draw = channel.draw_fading(cfg, gains, 0, rng)
    return draw.h_ba[0], draw.h_ca[0], draw.h_cw[0]


def test_choose_directions_never_worse_than_mrt(cfg, gains0):
    for seed in range(5):
        h_ba, h_ca, h_cw = _random_channels(cfg, gains0, seed)
        picked = beamform.choose_directions(cfg, gains0, h_ba, h_ca, h_cw)
        mrt_env = beamform.env_from_vectors(cfg, gains0, h_ba, h_ca, h_cw,
                                            theta=0.0)
        mrt = beamform.bsa_optimize(cfg, env=mrt_env)
        assert picked.decision.rate >= mrt.objective - 1e-12
        assert 0.0 <= picked.decision.theta <= 0.5 * math.pi
        assert np.linalg.norm(picked.u_c) == pytest.approx(1.0, rel=1e-12)
        # the secret beam is maximum-ratio toward the receiver
        mrt_b = h_ba / np.linalg.norm(h_ba)
        assert abs(np.vdot(picked.u_b, mrt_b)) == pytest.approx(1.0, rel=1e-12)


def test_choose_directions_single_antenna_forces_mrt(cfg, plan0):
    solo = with_overrides(cfg, n_c=1)
    gains = channel.gains_for_positions(solo, plan0.comm_positions)
    h_ba, h_ca, h_cw = _random_channels(solo, gains, 3)
    picked = beamform.choose_directions(solo, gains, h_ba, h_ca, h_cw)
    assert picked.decision.theta == 0.0


def test_choose_directions_rejects_zero_channel(cfg, gains0):
    h_ba, h_ca, h_cw = _random_channels(cfg, gains0, 1)
    with pytest.raises(ValueError, match="h_ca"):
        beamform.choose_directions(cfg, gains0, h_ba, np.zeros_like(h_ca), h_cw)


def test_oracle_2d_bounds_the_fast_search(cfg, gains0):
    for seed in range(3):
        h_ba, h_ca, h_cw = _random_channels(cfg, gains0, seed + 10)
        picked = beamform.choose_directions(cfg, gains0, h_ba, h_ca, h_cw)
        oracle = beamform.oracle_2d(cfg, gains0, h_ba, h_ca, h_cw,
                                    grid=(96, 96))
        # the joint search must come within 1% of the brute-force rectangle
        assert picked.decision.rate >= oracle.objective * 0.99


def test_oracle_2d_single_antenna_is_power_line(cfg, plan0):
    solo = with_overrides(cfg, n_c=1)
    gains = channel.gains_for_positions(solo, plan0.comm_positions)
    h_ba, h_ca, h_cw = _random_channels(solo, gains, 5)
    got = beamform.oracle_2d(solo, gains, h_ba, h_ca, h_cw, grid=(128, 64))
    assert got.theta == 0.0
    env = beamform.env_from_vectors(solo, gains, h_ba, h_ca, h_cw)
    grid = np.linspace(0.0, solo.q_c_max_w, 128)
    vals = env.rate(grid)
    assert got.objective == pytest.approx(float(np.max(vals)), rel=1e-12)


def test_oracle_2d_rejects_coarse_grid(cfg, gains0):
    h_ba, h_ca, h_cw = _random_channels(cfg, gains0, 2)
    with pytest.raises(ValueError, match="64"):
        beamform.oracle_2d(cfg, gains0, h_ba, h_ca, h_cw, grid=(32, 64))


# -- artifacts -------------------------------------------------------------------

def test_write_decisions_csv(env0, tmp_path):
    q_c = beamform.bsa_optimize(env=env0).q_c
    table = beamform.decision_at(env0, np.array([q_c, q_c]))
    path = tmp_path / "decisions.csv"
    beamform.write_decisions_csv(path, table)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "slot,q_b,q_c,theta,r_w,r_s,scp_h1,ccp,rate"
    assert len(lines) == 3
    d = table[1]
    assert lines[2] == ",".join(map(repr, [1, d.q_b, d.q_c, d.theta, d.r_w,
                                           d.r_s, d.scp, d.ccp, d.rate]))
