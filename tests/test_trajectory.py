"""Flight-plan construction, the slack-distance rate model, and the
successive convex refinement loop."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from covertuav import beamform, channel, orchestrator, trajectory
from covertuav.scenario import bundled_scenario, with_overrides
from covertuav.trajectory import TrajectoryError


Q_STAR = 4.38e-6


# -- plans ---------------------------------------------------------------------

def test_initial_plan_is_feasible(cfg, plan0):
    plan0.check_feasible(cfg)
    assert plan0.n_slots == cfg.n_slots
    assert np.allclose(plan0.positions[0], cfg.l_start)
    assert np.allclose(plan0.positions[-1], cfg.l_end, atol=1e-6)
    assert plan0.dynamics_residual(cfg) <= 1e-9


def test_initial_plan_comm_positions(plan0, cfg):
    comm = plan0.comm_positions
    assert comm.shape == (cfg.n_slots, 2)
    assert np.allclose(comm[0], cfg.l_start)


def test_initial_plan_infeasible_names_minimum_horizon(cfg):
    with pytest.raises(TrajectoryError, match="minimum horizon"):
        short = with_overrides(cfg, t_s=30.0, n_slots=30)
        trajectory.initial_plan(short)


def test_initial_plan_refusal_names_the_peak_speed(cfg):
    """A horizon above the minimum whose single-bump profile overshoots
    v_max is refused with the profile's peak speed and the failed plan
    invariant, not with a minimum horizon the scenario already exceeds."""
    slow_start = with_overrides(cfg, n_slots=40, v_start=1.0, v_end=None,
                                t_s=1.2 * cfg.ferry_distance / cfg.v_max)
    with pytest.raises(TrajectoryError) as err:
        trajectory.initial_plan(slow_start)
    message = str(err.value)
    assert message.startswith("trajectory infeasible: ")
    assert "peak speed 24.5147 m/s" in message
    assert "speed leaves the [v_min, v_max] box" in message
    assert "minimum horizon" not in message


def test_plan_arrays_are_write_locked(plan0):
    with pytest.raises(ValueError):
        plan0.positions[0, 0] = 1.0


def test_plan_shape_validation():
    with pytest.raises(TrajectoryError, match="shape"):
        trajectory.TrajectoryPlan(
            positions=np.zeros((3, 2)), velocities=np.zeros((3, 2)),
            accelerations=np.zeros((2, 2)), mu_ba=np.zeros(3),
            mu_ca=np.zeros(3))


def test_rebuild_from_accels_round_trip(cfg, plan0):
    back = trajectory.rebuild_from_accels(
        cfg, plan0.accelerations[1:], plan0.velocities[0], plan0.positions[0])
    assert np.allclose(back.positions, plan0.positions, atol=1e-9)
    assert np.allclose(back.velocities, plan0.velocities, atol=1e-9)
    assert back.dynamics_residual(cfg) <= 1e-9


def test_check_feasible_named_failures(cfg, plan0):
    moved = np.array(plan0.positions)
    moved[0] += 5.0
    bad = trajectory.TrajectoryPlan(
        positions=moved, velocities=plan0.velocities,
        accelerations=plan0.accelerations,
        mu_ba=channel.squared_horizontal_distance(moved, cfg.l_b),
        mu_ca=channel.squared_horizontal_distance(moved, cfg.l_c))
    with pytest.raises(TrajectoryError, match="does not start"):
        bad.check_feasible(cfg)
    slow = trajectory.TrajectoryPlan(
        positions=plan0.positions, velocities=plan0.velocities * 100.0,
        accelerations=plan0.accelerations, mu_ba=plan0.mu_ba,
        mu_ca=plan0.mu_ca)
    # kinematics break before the speed box is consulted
    with pytest.raises(TrajectoryError):
        slow.check_feasible(cfg)
    loose = trajectory.TrajectoryPlan(
        positions=plan0.positions, velocities=plan0.velocities,
        accelerations=plan0.accelerations, mu_ba=plan0.mu_ba * 0.5,
        mu_ca=plan0.mu_ca)
    with pytest.raises(TrajectoryError, match="slack below"):
        loose.check_feasible(cfg)


def test_check_feasible_slack_test_uses_tol(cfg, plan0):
    """The slack test honors the caller's tolerance like every other
    invariant: a 5e-7 m^2 shortfall passes at the default 1e-6 and fails
    at 1e-9."""
    short = dataclasses.replace(plan0, mu_ba=plan0.mu_ba - 5e-7)
    short.check_feasible(cfg)
    with pytest.raises(TrajectoryError, match="slack below"):
        short.check_feasible(cfg, tol=1e-9)


# -- rate as a function of the slack distances ----------------------------------

@pytest.mark.parametrize("overrides, pinned", [
    ({}, 0.7729374073994921),
    (dict(n_b=4, n_c=2, eta_s=0.05), 0.7272606034550808)],
    ids=["paper_default", "n_b4_n_c2_eta0.05"])
def test_rate_of_mu_matches_slot_objective(cfg, plan0, overrides, pinned):
    """Identity between the geometry path and the gain-table path; at
    seeded random slots the slack model, the power search's curve and the
    packaged decision are one evaluation."""
    cfg = with_overrides(cfg, **overrides)
    gains0 = channel.gains_for_positions(cfg, plan0.comm_positions)
    got = trajectory.rate_of_mu(130000.0, 62500.0, 5e-6, cfg)
    ref = beamform.slot_env(cfg, gains0, 0).rate(5e-6)
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(pinned, rel=1e-9)

    rng = np.random.default_rng(5)
    for slot in map(int, rng.integers(0, plan0.n_slots, 24)):
        env = beamform.slot_env(cfg, gains0, slot)
        q = float(rng.uniform(0.0, env.q_c_feasible))
        rate = trajectory.rate_of_mu(plan0.mu_ba[slot], plan0.mu_ca[slot], q,
                                     cfg)
        assert rate == env.rate(q)
        assert rate == beamform.decision_at(env, q).rate


def test_rate_of_mu_vanishes_far_away(cfg):
    assert trajectory.rate_of_mu(1e18, 1e18, Q_STAR, cfg) == pytest.approx(
        0.0, abs=1e-12)


def test_rate_of_mu_rejects_negative_slack(cfg):
    with pytest.raises(ValueError, match=">= 0"):
        trajectory.rate_of_mu(-1.0, 1e4, Q_STAR, cfg)


def test_rate_of_mu_continuous_at_decode_boundary(cfg):
    """The clamped connection probability meets zero without a jump."""
    # find the mu_ba where the margin crosses zero at tiny covert power
    gamma = 2.0 ** cfg.r_t - 1.0
    target = cfg.n_b * cfg.lambda0 / (gamma * cfg.sigma_a2_w)
    mu_edge = target - cfg.h_m ** 2  # p_ba == gamma*sigma at this slack
    below = trajectory.rate_of_mu(mu_edge * (1 - 1e-9), 1e4, 1e-9, cfg)
    above = trajectory.rate_of_mu(mu_edge * (1 + 1e-9), 1e4, 1e-9, cfg)
    assert above == 0.0 or above < 1e-6
    assert below <= 2e-6  # continuous approach to the clamp


def test_trajectory_objective_is_mean_of_slots(cfg, plan0):
    q = np.full(cfg.n_slots, Q_STAR)
    total = trajectory.trajectory_objective(plan0, q, cfg)
    per_slot = [trajectory.rate_of_mu(plan0.mu_ba[k], plan0.mu_ca[k],
                                      Q_STAR, cfg)
                for k in range(cfg.n_slots)]
    assert total == pytest.approx(float(np.mean(per_slot)), rel=1e-12)


# -- linearization ---------------------------------------------------------------

def test_linearized_value_is_affine(cfg, plan0):
    lin = trajectory.linearize(plan0, Q_STAR, cfg)
    mu_b, mu_c = lin.mu_ba_ref, lin.mu_ca_ref
    v0 = lin.value(mu_b, mu_c)
    assert v0 == pytest.approx(lin.const, rel=1e-12)
    shift = 1234.5
    v1 = lin.value(mu_b + shift, mu_c)
    want = v0 + float(np.mean(lin.d_ba)) * shift
    assert v1 == pytest.approx(want, rel=1e-9)
    # superposition in both arguments
    v2 = lin.value(mu_b + shift, mu_c + 2 * shift)
    want2 = v0 + float(np.mean(lin.d_ba)) * shift \
        + float(np.mean(lin.d_ca)) * 2 * shift
    assert v2 == pytest.approx(want2, rel=1e-9)


def _richardson_fd(f, x, eps):
    d1 = (f(x + eps) - f(x - eps)) / (2 * eps)
    d2 = (f(x + eps / 2) - f(x - eps / 2)) / eps
    return (4 * d2 - d1) / 3.0


def test_analytic_slack_derivatives_match_finite_differences(cfg):
    """Spot-check the gradients the subproblem builds its model from."""
    rng = np.random.default_rng(20)
    checked = 0
    tries = 0
    while checked < 20 and tries < 400:
        tries += 1
        mu_b = 10.0 ** rng.uniform(3.5, 5.7)
        mu_c = 10.0 ** rng.uniform(3.5, 5.7)
        q_c = 10.0 ** rng.uniform(-6.5, -3.0)
        plan = _two_node_plan(cfg, mu_b, mu_c)
        lin = trajectory.linearize(plan, q_c, cfg)
        for axis in ("ba", "ca"):
            def f(mu, axis=axis):
                if axis == "ba":
                    return trajectory.rate_of_mu(mu, mu_c, q_c, cfg)
                return trajectory.rate_of_mu(mu_b, mu, q_c, cfg)

            x = mu_b if axis == "ba" else mu_c
            fd = _richardson_fd(f, x, 1e-4 * x)
            if abs(fd) < 1e-9:
                continue  # below the float64 cancellation floor
            analytic = float(getattr(lin, f"d_{axis}")[0])
            assert analytic == pytest.approx(fd, rel=1e-5)
            checked += 1
    assert checked >= 20


def _two_node_plan(cfg, mu_b, mu_c):
    """Minimal plan stub carrying the slack values the linearizer reads."""
    pos = np.zeros((2, 2))
    return trajectory.TrajectoryPlan(
        positions=pos, velocities=np.zeros((2, 2)),
        accelerations=np.zeros((2, 2)),
        mu_ba=np.array([mu_b, mu_b]), mu_ca=np.array([mu_c, mu_c]))


def test_clamped_region_has_zero_derivative(cfg):
    """Where the secret stream can't decode, the rate is flat in the slacks."""
    plan = _two_node_plan(cfg, 1e12, 1e4)  # far beyond the decode range
    lin = trajectory.linearize(plan, Q_STAR, cfg)
    assert lin.d_ba[0] == 0.0
    assert lin.d_ca[0] == 0.0
    assert lin.const == pytest.approx(0.0, abs=1e-12)


def test_h0_linearization_ignores_covert_slack(cfg, plan0):
    lin = trajectory.linearize(plan0, 0.0, cfg, h0=True)
    assert np.all(lin.d_ca == 0.0)
    assert np.all(lin.d_ba <= 0.0)  # moving away from the receiver only hurts


# -- the convex subproblem -------------------------------------------------------

def test_subproblem_zero_derivatives_returns_feasible_plan(cfg, plan0):
    lin = trajectory.linearize(plan0, Q_STAR, cfg)
    flat = trajectory.LinearizedObjective(
        mu_ba_ref=lin.mu_ba_ref, mu_ca_ref=lin.mu_ca_ref,
        d_ba=np.zeros_like(lin.d_ba), d_ca=np.zeros_like(lin.d_ca),
        const=lin.const)
    sol = trajectory.solve_subproblem(flat, plan0, cfg)
    sol.check_feasible(cfg)


def test_subproblem_slacks_tight_for_negative_derivatives(cfg, plan0):
    lin = trajectory.linearize(plan0, Q_STAR, cfg)
    sol = trajectory.solve_subproblem(lin, plan0, cfg)
    sol.check_feasible(cfg)
    mu_b = channel.squared_horizontal_distance(sol.positions, cfg.l_b)
    mu_c = channel.squared_horizontal_distance(sol.positions, cfg.l_c)
    neg_b = lin.d_ba < 0
    rel_b = np.abs(sol.mu_ba[1:-1][neg_b[1:]] - mu_b[1:-1][neg_b[1:]]) \
        / np.maximum(mu_b[1:-1][neg_b[1:]], 1.0)
    assert np.max(rel_b, initial=0.0) <= 1e-4
    neg_c = lin.d_ca < 0
    rel_c = np.abs(sol.mu_ca[1:-1][neg_c[1:]] - mu_c[1:-1][neg_c[1:]]) \
        / np.maximum(mu_c[1:-1][neg_c[1:]], 1.0)
    assert np.max(rel_c, initial=0.0) <= 1e-4


def test_subproblem_improves_linear_model(cfg, plan0):
    lin = trajectory.linearize(plan0, Q_STAR, cfg)
    sol = trajectory.solve_subproblem(lin, plan0, cfg)
    before = lin.value(plan0.mu_ba[:-1], plan0.mu_ca[:-1])
    after = lin.value(sol.mu_ba[:-1], sol.mu_ca[:-1])
    assert after >= before - 1e-9


def test_subproblem_endpoint_and_terminal_speed(cfg, plan0):
    lin = trajectory.linearize(plan0, Q_STAR, cfg)
    sol = trajectory.solve_subproblem(lin, plan0, cfg)
    assert np.linalg.norm(sol.positions[-1] - np.asarray(cfg.l_end)) <= 1e-6
    assert np.linalg.norm(sol.velocities[-1]) == pytest.approx(
        cfg.v_end, abs=1e-6)


def test_subproblem_matches_midpoint_grid_oracle():
    """Two-slot toy: one free node, checked against an exhaustive grid."""
    cfg = with_overrides(
        bundled_scenario(), n_slots=2, t_s=20.0,
        l_start=(0.0, 0.0), l_end=(100.0, 0.0), v_start=5.0, v_end=None,
        l_b=(40.0, 60.0), l_c=(70.0, -50.0))
    plan = trajectory.initial_plan(cfg)
    qc = np.full(2, Q_STAR)
    lin = trajectory.linearize(plan, qc, cfg)
    sol = trajectory.solve_subproblem(lin, plan, cfg)
    sol.check_feasible(cfg)

    # vectorized brute force over the single free midpoint
    dt = cfg.delta_t
    l0 = np.asarray(cfg.l_start)
    l2 = np.asarray(cfg.l_end)
    v0 = np.array([cfg.v_start, 0.0])
    xs, ys = np.meshgrid(np.linspace(-40, 140, 361),
                         np.linspace(-90, 90, 361), indexing="ij")
    l1 = np.stack([xs.ravel(), ys.ravel()], axis=1)
    a1 = 2 * (l1 - l0 - v0 * dt) / dt ** 2
    v1 = v0 + a1 * dt
    a2 = 2 * (l2 - l1 - v1 * dt) / dt ** 2
    v2 = v1 + a2 * dt
    sp1, sp2 = np.linalg.norm(v1, axis=1), np.linalg.norm(v2, axis=1)
    ok = ((np.linalg.norm(a1, axis=1) <= cfg.a_max)
          & (np.linalg.norm(a2, axis=1) <= cfg.a_max)
          & (sp1 >= cfg.v_min) & (sp1 <= cfg.v_max)
          & (sp2 >= cfg.v_min) & (sp2 <= cfg.v_max))
    mu_b1 = np.sum((l1 - np.asarray(cfg.l_b)) ** 2, axis=1)
    mu_c1 = np.sum((l1 - np.asarray(cfg.l_c)) ** 2, axis=1)
    mu_b0 = float(np.sum((l0 - np.asarray(cfg.l_b)) ** 2))
    mu_c0 = float(np.sum((l0 - np.asarray(cfg.l_c)) ** 2))
    vals = lin.const + 0.5 * (
        lin.d_ba[0] * (mu_b0 - lin.mu_ba_ref[0])
        + lin.d_ca[0] * (mu_c0 - lin.mu_ca_ref[0])
        + lin.d_ba[1] * (mu_b1 - lin.mu_ba_ref[1])
        + lin.d_ca[1] * (mu_c1 - lin.mu_ca_ref[1]))
    vals = np.where(ok, vals, -np.inf)
    best = l1[int(np.argmax(vals))]
    assert np.linalg.norm(sol.positions[1] - best) < 1.0
    sub_val = lin.value(sol.mu_ba[:-1], sol.mu_ca[:-1])
    assert sub_val >= float(np.max(vals)) - 1e-6


def _slsqp_subproblem(lin, plan, cfg):
    """The subproblem posed from scratch over the accelerations and solved
    by SLSQP; returns (best model value, its positions, max violation)."""
    n, dt = plan.n_slots, cfg.delta_t
    l0, v0 = plan.positions[0], plan.velocities[0]

    def rollout(x):
        a = x.reshape(n, 2)
        p, v = [l0], [v0]
        for k in range(n):
            p.append(p[-1] + dt * v[-1] + 0.5 * dt * dt * a[k])
            v.append(v[-1] + dt * a[k])
        return np.array(p[1:]), np.array(v[1:])

    # the rollout is affine in x, so unit steps give its exact Jacobians
    p_base, v_base = rollout(np.zeros(2 * n))
    steps = [rollout(e) for e in np.eye(2 * n)]
    jac_p = np.stack([p - p_base for p, _ in steps], axis=-1)   # (n, 2, 2n)
    jac_v = np.stack([v - v_base for _, v in steps], axis=-1)

    # (node, weight, user): an exact squared distance where the weight is
    # negative, its tangent at the reference position where positive
    terms = [(s, d[s] / n, np.asarray(pt, dtype=float))
             for d, pt in ((lin.d_ba, cfg.l_b), (lin.d_ca, cfg.l_c))
             for s in range(1, n)]

    def model(x):
        p, _ = rollout(x)
        val = lin.const
        for s, w, pt in terms:
            lr, ref = plan.positions[s], np.sum((plan.positions[s] - pt) ** 2)
            mu = (np.sum((p[s - 1] - pt) ** 2) if w < 0
                  else ref + 2 * (lr - pt) @ (p[s - 1] - lr))
            val += w * (mu - ref)
        return val

    def model_grad(x):
        p, _ = rollout(x)
        return sum(2 * w * ((p[s - 1] if w < 0 else plan.positions[s]) - pt)
                   @ jac_p[s - 1] for s, w, pt in terms)

    vr = plan.velocities[1:]
    box = n - 1 if cfg.v_end is not None else n

    def ineq(x):
        v = rollout(x)[1][:box]
        return np.concatenate([
            cfg.v_max ** 2 - np.sum(v ** 2, axis=1),
            2 * np.sum(vr[:box] * v, axis=1) - np.sum(vr[:box] ** 2, axis=1)
            - cfg.v_min ** 2,
            cfg.a_max ** 2 - np.sum(x.reshape(n, 2) ** 2, axis=1)])

    def ineq_jac(x):
        v = rollout(x)[1][:box]
        jac_a = np.zeros((n, 2 * n))
        jac_a[np.arange(n), 2 * np.arange(n)] = -2 * x[0::2]
        jac_a[np.arange(n), 2 * np.arange(n) + 1] = -2 * x[1::2]
        return np.vstack([-2 * np.einsum("kd,kdj->kj", v, jac_v[:box]),
                          2 * np.einsum("kd,kdj->kj", vr[:box], jac_v[:box]),
                          jac_a])

    pins = [(jac_p[-1], lambda p, v: p[-1] - np.asarray(cfg.l_end))]
    if cfg.v_end is not None:
        v_target = cfg.v_end * vr[-1] / np.linalg.norm(vr[-1])
        pins.append((jac_v[-1], lambda p, v: v[-1] - v_target))

    def eq(x):
        p, v = rollout(x)
        return np.concatenate([res(p, v) for _, res in pins])

    # the model's weights are ~1e-5; rescaling keeps SLSQP's steps sane
    scale = 1.0 / max(abs(w) for _, w, _ in terms)
    res = minimize(lambda x: -scale * model(x), plan.accelerations[1:].ravel(),
                   jac=lambda x: -scale * model_grad(x), method="SLSQP",
                   constraints=[
                       {"type": "ineq", "fun": ineq, "jac": ineq_jac},
                       {"type": "eq", "fun": eq,
                        "jac": lambda x: np.vstack([j for j, _ in pins])}],
                   options={"ftol": 1e-12, "maxiter": 500})
    violation = max(-float(np.min(ineq(res.x))),
                    float(np.max(np.abs(eq(res.x)))))
    return model(res.x), model, violation


def _six_slot_case(v_end, **overrides):
    """Six slots cruising at 4 m/s with mixed-sign derivatives (exact
    quadratics and tangent minorants both present): (cfg, plan, lin)."""
    cfg = with_overrides(
        bundled_scenario(), n_slots=6, t_s=30.0, l_start=(0.0, 0.0),
        l_end=(120.0, 0.0), v_start=4.0, v_end=v_end, l_b=(40.0, 60.0),
        l_c=(70.0, -50.0), **overrides)
    plan = trajectory.initial_plan(cfg)
    lin = trajectory.linearize(plan, np.full(6, Q_STAR), cfg)
    assert np.all(lin.d_ba < 0) and np.all(lin.d_ca < 0)
    lin = trajectory.LinearizedObjective(
        lin.mu_ba_ref, lin.mu_ca_ref, lin.d_ba,
        lin.d_ca * np.array([3.0, -3.0, 3.0, -3.0, 3.0, -3.0]), lin.const)
    return cfg, plan, lin


@pytest.mark.parametrize("v_end", [4.0, None], ids=["pinned", "free"])
def test_subproblem_matches_slsqp_on_six_slots(v_end):
    """Six slots, mixed-sign derivatives: the interior-point solver's model
    value agrees with an independent SLSQP solve of the same program."""
    cfg, plan, lin = _six_slot_case(v_end)
    best, model, violation = _slsqp_subproblem(lin, plan, cfg)
    # SLSQP holds the squared speed and acceleration bounds (v_max^2 = 400,
    # a_max^2 = 100) to about 1e-5
    assert violation <= 1e-4
    sol = trajectory.solve_subproblem(lin, plan, cfg)
    sol.check_feasible(cfg)
    assert model(sol.accelerations[1:].ravel()) == pytest.approx(best,
                                                                 abs=1e-6)


def _count_factorizations(monkeypatch):
    """List that grows by one per banded LU factorization (`dgbtrf`)."""
    calls = []
    real = scipy.linalg.lapack.dgbtrf
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf",
                        lambda *a, **kw: calls.append(None) or real(*a, **kw))
    return calls


def test_subproblem_with_the_minimum_speed_bound_binding(monkeypatch):
    """v_min = 3.5 m/s just under the plan's 4 m/s: at the optimum the
    linearised minimum-speed bound binds on some nodes and is slack on
    others. The solver agrees with SLSQP, and the interior-point method
    stops well inside its iteration cap (one band factorization per
    iteration)."""
    cfg, plan, lin = _six_slot_case(None, v_min=3.5)
    solves = _count_factorizations(monkeypatch)
    sol = trajectory.solve_subproblem(lin, plan, cfg)
    sol.check_feasible(cfg)
    vr, v = plan.velocities[1:], sol.velocities[1:]
    margin = (2.0 * np.sum(vr * v, axis=1) - np.sum(vr ** 2, axis=1)
              - cfg.v_min ** 2)
    assert np.all(margin > -1e-9)
    assert np.sum(margin < 1e-3) >= 3 and np.max(margin) > 1.0
    best, model, violation = _slsqp_subproblem(lin, plan, cfg)
    assert violation <= 1e-4
    assert model(sol.accelerations[1:].ravel()) == pytest.approx(best,
                                                                 abs=1e-6)
    assert 0 < len(solves) <= 30


@pytest.mark.parametrize("h0", [False, True], ids=["h1", "h0"])
def test_subproblem_on_a_thousand_slots(h0, monkeypatch):
    """A horizon of 1000 slots (dt = 0.13 s), which dense KKT algebra
    could not afford: the plan is feasible, lands on l_end to 1e-9 m, the
    model does not drop, and the solve takes few band factorizations (one
    per interior-point iteration), as at short horizons."""
    cfg = with_overrides(bundled_scenario(), n_slots=1000)
    plan = trajectory.initial_plan(cfg)
    lin = trajectory.linearize(plan, 0.0 if h0 else Q_STAR, cfg, h0=h0)
    factorizations = _count_factorizations(monkeypatch)
    sol = trajectory.solve_subproblem(lin, plan, cfg)
    sol.check_feasible(cfg)
    assert np.linalg.norm(sol.positions[-1] - np.asarray(cfg.l_end)) <= 1e-9
    before = lin.value(plan.mu_ba[:-1], plan.mu_ca[:-1])
    assert lin.value(sol.mu_ba[:-1], sol.mu_ca[:-1]) >= before - 1e-9
    assert 0 < len(factorizations) <= 40


def _assert_subproblem_holds(lin, plan, cfg):
    """The solve is feasible and does not lower the linear model."""
    sol = trajectory.solve_subproblem(lin, plan, cfg)
    sol.check_feasible(cfg)
    before = lin.value(plan.mu_ba[:-1], plan.mu_ca[:-1])
    assert lin.value(sol.mu_ba[:-1], sol.mu_ca[:-1]) >= before - 1e-9


def test_subproblem_from_a_reference_plan_on_the_speed_cap():
    """At the minimum horizon with v_start = v_max the reference plan flies
    at the speed cap in every slot, so the solver starts on the boundary of
    every speed cone: the plan it returns is feasible, the model does not
    drop, and the joint run finishes without error."""
    base = bundled_scenario()
    cfg = with_overrides(base, v_start=base.v_max, v_end=None,
                         t_s=base.ferry_distance / base.v_max)
    plan = trajectory.initial_plan(cfg)
    assert np.allclose(plan.speeds(), cfg.v_max)
    _assert_subproblem_holds(trajectory.linearize(plan, Q_STAR, cfg), plan,
                             cfg)
    assert orchestrator.run_bcd(cfg).error is None


_FUZZ_BASE = bundled_scenario()


@settings(max_examples=30, deadline=None)
@given(n_slots=st.integers(20, 60), stretch=st.floats(1.0, 2.0),
       v_start=st.floats(_FUZZ_BASE.v_min, _FUZZ_BASE.v_max),
       pin=st.booleans(), h0=st.booleans())
def test_subproblem_fuzz(n_slots, stretch, v_start, pin, h0):
    """Horizons from the minimum to twice it, any start speed, a pinned or
    free terminal speed, H1 or H0: either the straight-line start is
    rejected by name, or the subproblem at it is feasible and does not
    lower the linear model."""
    cfg = with_overrides(
        _FUZZ_BASE, n_slots=n_slots, v_start=v_start,
        v_end=v_start if pin else None,
        t_s=stretch * _FUZZ_BASE.ferry_distance / _FUZZ_BASE.v_max)
    try:
        plan = trajectory.initial_plan(cfg)
    except TrajectoryError as exc:
        assert str(exc).startswith("trajectory infeasible: ")
        return
    lin = trajectory.linearize(plan, 0.0 if h0 else Q_STAR, cfg, h0=h0)
    _assert_subproblem_holds(lin, plan, cfg)


def test_subproblem_iteration_cap_is_an_error(monkeypatch):
    """A solve that reaches the interior-point iteration cap raises a
    TrajectoryError naming the count and the gap, and the joint run
    reports it as a failed trajectory block."""
    cfg, plan, lin = _six_slot_case(4.0)
    monkeypatch.setattr(trajectory, "_IP_MAX_ITERS", 2)
    with pytest.raises(trajectory.TrajectoryError,
                       match=r"iteration cap: 2 interior-point iterations "
                             r"left a duality gap of \S+"):
        trajectory.solve_subproblem(lin, plan, cfg)
    trace = orchestrator.run_bcd(cfg, max_iters=3)
    assert trace.error.startswith(
        "round 1, trajectory block: TrajectoryError: subproblem stopped at "
        "its iteration cap: 2 interior-point iterations")
    assert not trace.converged


def _report_singular(monkeypatch, singular):
    """Make `dgbtrf` factor as usual but report info = 1 on the calls k
    (from 0) where singular(k) holds; returns the list of calls."""
    calls = []
    real = scipy.linalg.lapack.dgbtrf

    def dgbtrf(*args, **kwargs):
        lu, piv, info = real(*args, **kwargs)
        calls.append(None)
        return lu, piv, 1 if singular(len(calls) - 1) else info

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", dgbtrf)
    return calls


# accelerations (x, y per slot) of the pinned six-slot solve whose third
# factorization reports a singular KKT matrix, as float.hex
_REGULARIZED_ACCELS = [
    "-0x1.7fffe5c1c2f1bp-2", "0x1.7e42ee3a7b5f9p+1", "0x1.3c4b0415a68afp-1",
    "-0x1.b6462d3f1380fp+2", "-0x1.3c4b109dcc462p-1", "0x1.dbc6c3bc45b90p+2",
    "0x1.cd2c25bd57c00p-24", "-0x1.78969014ee649p+2", "0x1.41da6c5940b5dp+0",
    "0x1.ed28d97c94cc9p+0", "-0x1.c3b4dce3d2830p-1", "0x1.8aa4c1b5949a3p-2"]


def test_singular_kkt_is_regularized_for_one_iteration(monkeypatch):
    """A factorization that reports a singular KKT matrix is retried once
    with the Hessian diagonal raised by 1e-10 of its mean. The raise does
    not carry into later iterations: the solve takes one factorization
    more than the six it needs unperturbed, its plan is feasible, and its
    accelerations are pinned bit for bit."""
    cfg, plan, lin = _six_slot_case(4.0)
    calls = _report_singular(monkeypatch, lambda k: k == 2)
    sol = trajectory.solve_subproblem(lin, plan, cfg)
    sol.check_feasible(cfg)
    assert len(calls) == 7
    assert [float.hex(x) for x in sol.accelerations[1:].ravel()] == \
        _REGULARIZED_ACCELS


def test_singular_kkt_after_regularizing_is_an_error(monkeypatch):
    """A KKT matrix that stays singular after the regularized retry raises
    LinAlgError, and the joint run reports it as a failed trajectory
    block."""
    cfg, plan, lin = _six_slot_case(4.0)
    _report_singular(monkeypatch, lambda k: True)
    message = "singular KKT matrix in the trajectory subproblem"
    with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
        trajectory.solve_subproblem(lin, plan, cfg)
    trace = orchestrator.run_bcd(cfg, max_iters=3)
    assert trace.error == f"round 1, trajectory block: LinAlgError: {message}"
    assert not trace.converged


def test_free_terminal_speed_subproblem_is_pinned():
    """260 slots with the terminal speed free, so two pin rows and a speed
    cone on every node, the last one binding: the solve's model value, its
    first, middle and last accelerations and its terminal speed, as
    float.hex."""
    cfg = with_overrides(bundled_scenario(), n_slots=260, t_s=260.0,
                         v_end=None)
    plan = trajectory.initial_plan(cfg)
    lin = trajectory.linearize(plan, Q_STAR, cfg)
    sol = trajectory.solve_subproblem(lin, plan, cfg)
    sol.check_feasible(cfg)
    assert float.hex(lin.value(sol.mu_ba[:-1], sol.mu_ca[:-1])) == \
        "0x1.3159c61bad030p+0"
    assert [float.hex(x) for x in sol.accelerations[[1, 130, 260]].ravel()] \
        == ["0x1.c388fc18d08bcp+2", "0x1.c58f2bb002a14p+2",
            "-0x1.b45ca4063859bp-9", "0x1.aa165b83a797bp-9",
            "0x1.41bfc4dca2970p-7", "-0x1.28df65e4427adp-7"]
    assert float.hex(float(np.linalg.norm(sol.velocities[-1]))) == \
        "0x1.3ffffe20903b5p+4"


# -- successive refinement -------------------------------------------------------

@pytest.fixture(scope="module")
def sca_canonical(cfg, plan0):
    q = np.full(cfg.n_slots, Q_STAR)
    return trajectory.sca_trajectory(plan0, q, cfg)


def test_sca_canonical_converges_monotonically(cfg, sca_canonical):
    res = sca_canonical
    assert res.converged
    assert res.iterations <= 30
    obj = np.asarray(res.objectives)
    assert np.all(np.diff(obj) >= 0)
    assert obj[0] == pytest.approx(0.9916, abs=2e-3)
    assert obj[-1] == pytest.approx(1.278342, rel=1e-3)
    res.plan.check_feasible(cfg)


@pytest.mark.parametrize("h0", [False, True])
def test_every_accepted_sca_plan_passes_check_feasible(cfg, plan0, h0):
    """Stepping the loop one acceptance at a time from the straight line,
    every plan it accepts lands on l_end and holds the kinematics and the
    speed and acceleration boxes to 1e-9."""
    plan, q = plan0, (0.0 if h0 else Q_STAR)
    accepted = 0
    for _ in range(60):
        res = trajectory.sca_trajectory(plan, q, cfg, h0=h0, max_iters=1)
        res.plan.check_feasible(cfg, tol=1e-9)
        accepted += len(res.objectives) - 1
        if res.converged:
            break
        plan = res.plan
    assert res.converged
    assert accepted >= 2


def test_sca_is_a_fixed_point_at_convergence(cfg, sca_canonical):
    """Restarting from the refined plan must not move it further."""
    q = np.full(cfg.n_slots, Q_STAR)
    again = trajectory.sca_trajectory(sca_canonical.plan, q, cfg)
    assert again.converged
    assert again.objectives[-1] - sca_canonical.objectives[-1] <= cfg.bcd_tol
    drift = np.linalg.norm(again.plan.positions - sca_canonical.plan.positions,
                           axis=1).max()
    assert drift <= 5.0  # stays in the same neighborhood


def test_sca_h0_mode(cfg, plan0):
    res = trajectory.sca_trajectory(plan0, 0.0, cfg, h0=True)
    assert res.converged
    obj = np.asarray(res.objectives)
    assert np.all(np.diff(obj) >= 0)
    assert obj[0] == pytest.approx(0.980810, abs=1e-4)
    assert obj[-1] == pytest.approx(0.991605, rel=1e-3)


def test_sca_horizon_ordering(cfg):
    """A longer loiter window can only improve the refined mean rate."""
    short = bundled_scenario("paper_t100")
    plan_s = trajectory.initial_plan(short)
    res_s = trajectory.sca_trajectory(plan_s, Q_STAR, short, tol=1e-3,
                                      max_iters=20)
    plan_l = trajectory.initial_plan(cfg)
    res_l = trajectory.sca_trajectory(plan_l, Q_STAR, cfg, tol=1e-3,
                                      max_iters=20)
    assert res_l.objectives[-1] >= res_s.objectives[-1] - 1e-9


def test_write_plan_csv(cfg, plan0, tmp_path):
    path = tmp_path / "plan.csv"
    trajectory.write_plan_csv(path, plan0)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "slot,x,y,speed,accel"
    assert len(lines) == cfg.n_slots + 2  # header + N+1 nodes
