"""Joint and fixed-power planner runs, baselines, and run artifacts."""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy.stats import binom

from covertuav import (beamform, channel, mc_oracle, orchestrator, scenario,
                       secmetrics, trajectory)
from covertuav.scenario import with_overrides


@pytest.fixture(scope="module")
def bcd_canonical(cfg):
    return orchestrator.run_bcd(cfg)


def test_single_round_when_tolerance_is_infinite(cfg):
    trace = orchestrator.run_bcd(with_overrides(cfg, bcd_tol=math.inf))
    assert trace.iterations == 1
    assert len(trace.objectives) == 2
    assert trace.converged
    assert trace.error is None


def test_bcd_canonical_run(cfg, bcd_canonical):
    trace = bcd_canonical
    assert trace.error is None
    assert trace.converged
    assert trace.iterations <= 50
    obj = np.asarray(trace.objectives)
    assert np.all(np.diff(obj) >= 0)
    assert trace.objective == pytest.approx(1.5075967, rel=1e-3)
    assert trace.objective == obj[-1]
    trace.plan.check_feasible(cfg)
    assert len(trace.decisions) == cfg.n_slots
    assert trace.q_c.shape == (cfg.n_slots,)
    assert np.all(trace.q_c >= 0)


def _failing_on_call(monkeypatch, module, name, fail_at, exc):
    """Patch module.name to count its calls and raise exc on the
    fail_at-th (1-based; None never raises); returns the call list."""
    real = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)
    return calls


def test_failed_block_is_named_with_its_round(cfg, monkeypatch):
    """A call that raises ends the run with the last accepted iterate and
    an error naming the iteration and the call."""
    exact = with_overrides(cfg, bcd_tol=1e-300)
    with monkeypatch.context() as m:
        subproblems = _failing_on_call(m, trajectory, "solve_subproblem",
                                       None, None)
        searches = _failing_on_call(m, beamform, "bsa_slots", None, None)
        one_iter = orchestrator.run_bcd(exact, max_iters=1)
    assert len(subproblems) == 1
    plan0 = trajectory.initial_plan(cfg)

    def run_failing(name, module, fail_at, exc, runner=orchestrator.run_bcd):
        with monkeypatch.context() as m:
            _failing_on_call(m, module, name, fail_at, exc)
            return runner(exact, max_iters=3)

    # the subproblem of iteration 2, and the first power search after the
    # searches of iteration 1: both keep iteration 1's plan and trace
    for name, module, fail_at, exc, call in (
            ("solve_subproblem", trajectory, 2,
             trajectory.TrajectoryError("injected"), "trajectory block"),
            ("bsa_slots", beamform, len(searches) + 1,
             beamform.CovertBudgetError("injected"), "power search")):
        trace = run_failing(name, module, fail_at, exc)
        assert trace.error == (f"round 2, {call}: "
                               f"{type(exc).__name__}: injected")
        assert trace.objectives == one_iter.objectives
        assert np.array_equal(trace.plan.positions, one_iter.plan.positions)
        assert np.array_equal(trace.q_c, one_iter.q_c)
        trace.plan.check_feasible(cfg, tol=1e-9)

    # the power search at the starting plan: the starting plan, with the
    # covert user silent
    trace = run_failing("bsa_slots", beamform, 1,
                        beamform.CovertBudgetError("injected"))
    assert trace.error == ("round 1, power search: "
                           "CovertBudgetError: injected")
    assert np.array_equal(trace.plan.positions, plan0.positions)
    assert np.all(trace.q_c == 0.0)
    assert trace.objectives == [
        trajectory.trajectory_objective(plan0, 0.0, cfg)]

    for runner in (orchestrator.run_bcd, orchestrator.run_h0_benchmark,
                   orchestrator.run_sotfb):
        trace = run_failing("solve_subproblem", trajectory, 1,
                            trajectory.TrajectoryError("injected"), runner)
        assert trace.error == ("round 1, trajectory block: "
                               "TrajectoryError: injected")
        assert len(trace.objectives) == 1
        assert np.array_equal(trace.plan.positions, plan0.positions)


def test_bcd_design_holds_the_secrecy_outage_cap(cfg, bcd_canonical):
    """Every slot's covered secrecy outage at its own r_w stays at eta_s,
    and a simulation fading both the leakage and the cover agrees."""
    gains = channel.gains_for_positions(cfg, bcd_canonical.plan.comm_positions)
    links = []
    for slot, d in enumerate(bcd_canonical.decisions):
        env = beamform.slot_env(cfg, gains, slot)
        links.append((d.q_b * env.g_bw, d.q_c * env.c_cw, env.sigma_w2, d.r_w))
    worst = max(secmetrics.sop_h1(*link) for link in links)
    assert worst <= cfg.eta_s + 1e-9
    # exact one-sided binomial test: a design at the cap shows this many
    # outages or more with probability above 1e-4, and at 6e6 samples one
    # 2 % over the cap (eta_s = 0.01) fails it
    est = mc_oracle.estimate_sop_h1(*links[0], samples=6_000_000, seed=0)
    hits = round(est.estimate * est.n_samples)
    assert binom.sf(hits - 1, est.n_samples, cfg.eta_s) > 1e-4


def test_decision_rows_hold_the_covertness_residual(cfg, bcd_canonical):
    """Iterating a run's table yields one-slot rows, each holding the
    received-power coupling against its own one-slot environment."""
    gains = channel.gains_for_positions(cfg, bcd_canonical.plan.comm_positions)
    rows = list(enumerate(bcd_canonical.decisions))
    assert len(rows) == cfg.n_slots
    for slot, d in rows:
        assert isinstance(d.q_c, float)
        assert d.q_c == bcd_canonical.q_c[slot]
        assert d.covertness_residual(beamform.slot_env(cfg, gains, slot)) \
            <= 1e-9


_COLUMNS = ("q_b", "q_c", "theta", "r_w", "r_s", "scp", "ccp", "rate")


@pytest.mark.parametrize("name", ["paper_default", "paper_t100"])
def test_decision_table_equals_the_slot_by_slot_records(name):
    """The table of a finished run equals, column for column, the
    one-slot records built slot by slot from one-slot environments."""
    cfg = scenario.bundled_scenario(name)
    for run, build in ((orchestrator.run_bcd, beamform.decision_at),
                       (orchestrator.run_h0_benchmark,
                        lambda env, q: beamform.h0_decision(env))):
        trace = run(cfg)
        gains = channel.gains_for_positions(cfg, trace.plan.comm_positions)
        rows = [build(beamform.slot_env(cfg, gains, s), trace.q_c[s])
                for s in range(cfg.n_slots)]
        for col in _COLUMNS:
            assert getattr(trace.decisions, col).tolist() == \
                [getattr(r, col) for r in rows], (run.__name__, col)


@pytest.mark.parametrize("runner", ["run_bcd", "run_sotfb",
                                    "run_h0_benchmark"])
@pytest.mark.parametrize("name", ["paper_default", "paper_t100"])
def test_run_table_values_its_own_plan(name, runner):
    """A run's decision table is its final plan at its final powers: the
    table's mean rate is the trace's last entry, bit for bit, and the
    run's powers are the table's column."""
    res = getattr(orchestrator, runner)(scenario.bundled_scenario(name))
    assert float(np.mean(res.decisions.rate)) == res.objective
    assert np.array_equal(res.q_c, res.decisions.q_c)


def test_bcd_starts_at_the_searched_powers(cfg, bcd_canonical):
    """objectives[0] is V of the starting plan: its mean rate at the
    searched per-slot powers."""
    plan0 = trajectory.initial_plan(cfg)
    q_star = beamform.bsa_slots(
        cfg, channel.gains_for_positions(cfg, plan0.comm_positions)).q_c
    assert bcd_canonical.objectives[0] == \
        trajectory.trajectory_objective(plan0, q_star, cfg)


def test_searched_value_gradient_is_the_linearization_at_the_best_powers(
        cfg):
    """V(mu) = mean over slots of max_q R_s(mu_s, q) has the slack
    gradient of `linearize` at the searched powers (Danskin's theorem):
    central differences of V, with q searched afresh at every point, match
    its directional derivative along random slack directions. The search
    is tightened so that its resolution does not blur the differences."""
    tight = with_overrides(cfg, bsa_tol_rel=1e-10)
    plan = trajectory.initial_plan(tight)
    mu_b, mu_c = plan.mu_ba[:-1], plan.mu_ca[:-1]

    def value(mb, mc):
        gains = channel.gains_for_slacks(tight, mb, mc)
        q = beamform.bsa_slots(tight, gains).q_c
        return float(np.mean(trajectory.rate_of_mu(mb, mc, q, tight))), q

    _, q_star = value(mu_b, mu_c)
    lin = trajectory.linearize(plan, q_star, tight)
    rng = np.random.default_rng(0)
    step = 1e-4
    for _ in range(8):
        d_b = rng.standard_normal(mu_b.size) * mu_b
        d_c = rng.standard_normal(mu_c.size) * mu_c
        fd = (value(mu_b + step * d_b, mu_c + step * d_c)[0]
              - value(mu_b - step * d_b, mu_c - step * d_c)[0]) / (2 * step)
        analytic = float(np.mean(lin.d_ba * d_b + lin.d_ca * d_c))
        assert fd == pytest.approx(analytic, rel=1e-5)


# objective traces of the fixed-power runs, as float.hex: the joint run's
# power rule must not reach them
_FIXED_POWER_TRACES = {
    ("paper_default", "run_sotfb"): [
        "0x1.6d53b7621b8a4p-5", "0x1.064bbe7ca0ea9p-4",
        "0x1.2795c442d3d64p-4", "0x1.31cb9d1bb85abp-4",
        "0x1.3540487799737p-4", "0x1.3679cf26ae384p-4",
        "0x1.36de4c10e0607p-4"],
    ("paper_default", "run_h0_benchmark"): [
        "0x1.f62ca9faf6718p-1", "0x1.fac959bbfbe57p-1",
        "0x1.fb747c84d97e6p-1", "0x1.fbb1554da7bb9p-1",
        "0x1.fbb3a48b01fadp-1"],
    ("paper_t100", "run_sotfb"): [
        "0x1.6d010357b746dp-5", "0x1.056f14192c828p-4",
        "0x1.236cc0efa704dp-4", "0x1.2a01ee60445b2p-4",
        "0x1.2bebb1ff28529p-4", "0x1.2c7bb7bfe3876p-4",
        "0x1.2ca3209b06a0cp-4"],
    ("paper_t100", "run_h0_benchmark"): [
        "0x1.f62c8647bc1bdp-1", "0x1.fa6c7bb0d00bfp-1",
        "0x1.faf11f77363c3p-1", "0x1.fb1956680784ep-1",
        "0x1.fb195860dc4b4p-1"],
}


# objective traces of the joint runs, as float.hex: a change to the slot
# model's code that keeps its values keeps these bit for bit
_JOINT_TRACES = {
    "paper_default": [
        "0x1.3fe51f42b24bep+0", "0x1.72cfa37a654cdp+0",
        "0x1.81b21b66880cfp+0", "0x1.81f38b1701989p+0",
        "0x1.81f3a770ef0b3p+0"],
    "paper_t100": [
        "0x1.3fe408dbf2a70p+0", "0x1.6f913497822a0p+0",
        "0x1.7ae79b9e242edp+0", "0x1.7aed3eb64ef13p+0"],
}


@pytest.mark.parametrize("name", sorted(_JOINT_TRACES))
def test_joint_traces_are_pinned(name):
    trace = orchestrator.run_bcd(scenario.bundled_scenario(name))
    assert [float.hex(x) for x in trace.objectives] == _JOINT_TRACES[name]


@pytest.mark.parametrize("name, runner", sorted(_FIXED_POWER_TRACES))
def test_fixed_power_traces_are_pinned(name, runner):
    trace = getattr(orchestrator, runner)(scenario.bundled_scenario(name))
    assert [float.hex(x) for x in trace.objectives] == \
        _FIXED_POWER_TRACES[name, runner]


def test_free_terminal_speed_trace_is_pinned():
    """The bundled scenarios pin the terminal speed; with it free, every
    node carries a speed cone and only the landing point is pinned. The
    pinned-power run's objective trace, as float.hex."""
    cfg = with_overrides(scenario.bundled_scenario(), v_end=None)
    trace = orchestrator.run_sotfb(cfg)
    assert trace.error is None
    assert [float.hex(x) for x in trace.objectives] == [
        "0x1.6d53b7621b8a4p-5", "0x1.0690ba21506c4p-4",
        "0x1.283468fc7fa3ap-4", "0x1.325efb86eadd1p-4",
        "0x1.35d2beb9800eap-4", "0x1.370a6bf180d08p-4",
        "0x1.37700ec61e9e8p-4"]


@pytest.mark.parametrize("name, floor", [
    ("paper_default", 1.5075967140253015), ("paper_t100", 1.4801655272425613)])
def test_joint_run_is_feasible_stationary_and_no_worse(name, floor):
    """The joint run reaches at least the objective of the two-block
    alternation it replaced (`floor`); each accepted plan, which the runs
    cut after k iterations return, flies at 1e-9 and leaves a prefix of the
    full trace; and one more power search plus one refinement step gains
    less than bcd_tol."""
    cfg = scenario.bundled_scenario(name)
    trace = orchestrator.run_bcd(cfg)
    assert trace.error is None and trace.converged
    assert trace.objective >= floor
    for k in range(1, trace.iterations + 1):
        cut = orchestrator.run_bcd(cfg, max_iters=k)
        cut.plan.check_feasible(cfg, tol=1e-9)
        assert cut.objectives == trace.objectives[:len(cut.objectives)]

    plan = trace.plan
    obj = trajectory.trajectory_objective(plan, trace.q_c, cfg)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    q_new = beamform.bsa_slots(cfg, gains).q_c
    obj_b = trajectory.trajectory_objective(plan, q_new, cfg)
    q, best = (q_new, obj_b) if obj_b >= obj else (trace.q_c, obj)
    step = trajectory.sca_trajectory(plan, q, cfg, max_iters=1)
    best = max(best, trajectory.trajectory_objective(step.plan, q, cfg))
    assert best - obj < cfg.bcd_tol


def test_bcd_is_reproducible(cfg):
    one_step = with_overrides(cfg, bcd_tol=math.inf)
    a = orchestrator.run_bcd(one_step)
    b = orchestrator.run_bcd(one_step)
    assert a.objectives == b.objectives
    assert np.array_equal(a.q_c, b.q_c)
    assert np.array_equal(a.plan.positions, b.plan.positions)


def test_h0_benchmark(cfg):
    trace = orchestrator.run_h0_benchmark(cfg)
    assert trace.error is None
    assert trace.converged
    obj = np.asarray(trace.objectives)
    assert np.all(np.diff(obj) >= 0)
    assert trace.objective == pytest.approx(0.991605, rel=1e-3)
    assert np.all(trace.q_c == 0.0)
    d = trace.decisions
    env = beamform.slot_env(cfg, channel.gains_for_positions(
        cfg, trace.plan.comm_positions))
    sop = secmetrics.sop_h0(env.budget, env.sigma_w2, d.r_w)
    assert np.all(np.asarray(sop) <= cfg.eta_s * (1.0 + 1e-9))
    assert np.all(d.q_b == cfg.q_b_max_w)
    assert np.all((d.q_c == 0.0) & (d.theta == 0.0) & (d.ccp == 0.0))
    # no covert stream: the rate is purely the secret term
    np.testing.assert_allclose(d.rate, d.scp * d.r_s, rtol=1e-12)


def test_sotfb_pins_covert_power(cfg):
    trace = orchestrator.run_sotfb(with_overrides(cfg, bcd_tol=1e-3),
                                   max_iters=10)
    assert trace.error is None
    assert np.all(trace.q_c == trace.q_c[0])
    assert trace.q_c[0] == pytest.approx(
        min(cfg.q_c_max_w, 1e-3), rel=1e-12)
    obj = np.asarray(trace.objectives)
    assert np.all(np.diff(obj) >= 0)


def test_joint_run_beats_fixed_beamformer_baseline(cfg, bcd_canonical):
    sotfb = orchestrator.run_sotfb(cfg)
    assert bcd_canonical.objective >= sotfb.objective - 1e-9
    # the gap is structural, not a tie
    assert bcd_canonical.objective > sotfb.objective + 0.1


def test_joint_and_fixed_beamformer_runs_differ_in_power(cfg):
    one_step = with_overrides(cfg, bcd_tol=math.inf)
    jotb = orchestrator.run_bcd(one_step, max_iters=1)
    sotfb = orchestrator.run_sotfb(one_step, max_iters=1)
    assert jotb.q_c.shape == sotfb.q_c.shape
    assert not np.all(jotb.q_c == sotfb.q_c)


def test_pareto_sweep_rejects_degenerate_weights(cfg):
    rows = orchestrator.pareto_sweep(with_overrides(cfg, bcd_tol=math.inf),
                                     [0.0, 1.0, 1.5, None, "0.5", True],
                                     max_iters=1)
    assert len(rows) == 6
    for row in rows:
        assert row.error is not None
        assert math.isnan(row.phi_s) and math.isnan(row.phi_c)
        assert row.iterations == 0
    assert [r.error for r in rows[3:]] == [
        "kappa must be a real number, got None",
        "kappa must be a real number, got '0.5'",
        "kappa must be a real number, got True"]


def test_pareto_sweep_valid_weight(cfg):
    one_step = with_overrides(cfg, bcd_tol=math.inf)
    rows = orchestrator.pareto_sweep(one_step, [0.5], max_iters=1)
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    assert row.phi_s > 0 and row.phi_c > 0
    assert row.iterations == 1
    # the weighted objective decomposes into the two frontier components
    trace = orchestrator.run_bcd(one_step, max_iters=1)
    mix = 0.5 * row.phi_s + 0.5 * row.phi_c
    assert mix == pytest.approx(trace.objective, rel=1e-9)


_KAPPAS = [round(0.1 * k, 1) for k in range(1, 10)]


def _capture_run_bcd(monkeypatch):
    """Wrap orchestrator.run_bcd as the benchmark does; returns the list
    of (scenario, positional args, keyword args, result) per call."""
    real = orchestrator.run_bcd
    calls = []

    def capture(alt, *args, **kwargs):
        trace = real(alt, *args, **kwargs)
        calls.append((alt, args, kwargs, trace))
        return trace

    monkeypatch.setattr(orchestrator, "run_bcd", capture)
    return calls


@pytest.fixture(scope="module")
def chained_sweep(cfg):
    """paper_default's 9-point sweep and its captured run_bcd calls."""
    with pytest.MonkeyPatch.context() as m:
        calls = _capture_run_bcd(m)
        rows = orchestrator.pareto_sweep(cfg, _KAPPAS)
    return rows, calls


def test_sweep_calls_run_bcd_once_per_weight_from_the_previous_plan(
        chained_sweep):
    """The benchmark collects each point's run by wrapping the module's
    run_bcd, so the sweep calls it by that name, once per weight, with
    the previous row's final plan as plan0."""
    rows, calls = chained_sweep
    assert [alt.kappa for alt, *_ in calls] == _KAPPAS
    assert all(args == () and set(kwargs) == {"max_iters", "plan0"}
               for _, args, kwargs, _ in calls)
    assert calls[0][2]["plan0"] is None
    for prev, call in zip(calls, calls[1:]):
        assert call[2]["plan0"] is prev[3].plan
    assert [r.iterations for r in rows] == [c[3].iterations for c in calls]


def test_sweep_first_row_is_the_cold_run(cfg, chained_sweep):
    rows, _ = chained_sweep
    alt = with_overrides(cfg, kappa=_KAPPAS[0])
    cold = orchestrator._frontier_components(alt, orchestrator.run_bcd(alt))
    assert [float.hex(rows[0].phi_s), float.hex(rows[0].phi_c)] == \
        [float.hex(x) for x in cold]


def test_chained_rows_are_stationary(chained_sweep):
    """Each row started from its neighbour's plan still ends where one
    more refinement step gains less than bcd_tol."""
    _, calls = chained_sweep
    for alt, _, _, trace in calls[1:]:
        step = orchestrator.run_bcd(alt, max_iters=1, plan0=trace.plan)
        assert step.error is None
        assert step.objectives[0] == trace.objective
        assert step.objective - step.objectives[0] < alt.bcd_tol


def test_chained_sweep_halves_the_iterations(cfg, chained_sweep):
    rows, _ = chained_sweep
    assert all(r.error is None for r in rows)
    cold = sum(orchestrator.run_bcd(with_overrides(cfg, kappa=k)).iterations
               for k in _KAPPAS)
    assert sum(r.iterations for r in rows) <= cold / 2


def test_rejected_and_failed_weights_do_not_seed_the_chain(cfg, monkeypatch):
    """An invalid weight gets no run, and a run that fails after moving
    its plan does not hand that plan on: the rows after them equal the
    sweep without them."""
    exact = with_overrides(cfg, bcd_tol=1e-300)
    real = trajectory.solve_subproblem
    failing_calls = []

    def failing(lin, plan_ref, alt):
        if alt.kappa == 0.45:
            failing_calls.append(None)
            if len(failing_calls) == 2:
                raise trajectory.TrajectoryError("injected")
        return real(lin, plan_ref, alt)

    monkeypatch.setattr(trajectory, "solve_subproblem", failing)
    clean = orchestrator.pareto_sweep(exact, [0.3, 0.6, 0.8], max_iters=3)
    calls = _capture_run_bcd(monkeypatch)
    rows = orchestrator.pareto_sweep(
        exact, [0.3, 1.5, None, 0.45, 0.6, 0.8], max_iters=3)
    assert [r.error for r in rows] == [
        None, "kappa must lie strictly in (0, 1)",
        "kappa must be a real number, got None",
        "round 2, trajectory block: TrajectoryError: injected", None, None]
    assert [alt.kappa for alt, *_ in calls] == [0.3, 0.45, 0.6, 0.8]
    first, failed, after = (c[3].plan for c in calls[:3])
    assert failed is not first
    assert calls[0][2]["plan0"] is None
    assert calls[1][2]["plan0"] is first and calls[2][2]["plan0"] is first
    assert calls[3][2]["plan0"] is after
    hexed = [(float.hex(r.phi_s), float.hex(r.phi_c), r.iterations)
             for r in (rows[0], *rows[4:])]
    assert hexed == [(float.hex(r.phi_s), float.hex(r.phi_c), r.iterations)
                     for r in clean]


def test_run_bcd_rejects_a_bad_start_plan(cfg, plan0):
    short = trajectory.initial_plan(with_overrides(cfg, n_slots=65))
    with pytest.raises(trajectory.TrajectoryError,
                       match=r"^start plan has 65 slots, the scenario 130$"):
        orchestrator.run_bcd(cfg, plan0=short)
    moved = dataclasses.replace(plan0, positions=plan0.positions + 1.0)
    with pytest.raises(trajectory.TrajectoryError,
                       match=r"^start plan is infeasible: plan does not "
                             r"start at l_start$"):
        orchestrator.run_bcd(cfg, plan0=moved)


def test_trace_csv(cfg, tmp_path):
    trace = orchestrator.run_bcd(with_overrides(cfg, bcd_tol=math.inf))
    path = tmp_path / "trace.csv"
    orchestrator.write_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective"
    assert len(lines) == len(trace.objectives) + 1


def test_write_run_artifacts(cfg, tmp_path):
    trace = orchestrator.run_bcd(with_overrides(cfg, bcd_tol=math.inf))
    orchestrator.write_run_artifacts(tmp_path, cfg, trace)
    for name in ("trace.csv", "beamformers.csv", "trajectory.csv",
                 "config.yaml"):
        assert os.path.exists(os.path.join(tmp_path, name))
    beam = (tmp_path / "beamformers.csv").read_text().strip().splitlines()
    assert beam[0] == "slot,q_b,q_c,theta,r_w,r_s,scp_h1,ccp,rate"
    assert len(beam) == cfg.n_slots + 1


def test_h0_artifacts_use_silent_covert_columns(cfg, tmp_path):
    trace = orchestrator.run_h0_benchmark(
        with_overrides(cfg, bcd_tol=math.inf), max_iters=1)
    orchestrator.write_run_artifacts(tmp_path, cfg, trace)
    lines = (tmp_path / "beamformers.csv").read_text().strip().splitlines()
    first = lines[1].split(",")
    assert float(first[2]) == 0.0   # q_c
    assert float(first[3]) == 0.0   # theta
    assert float(first[7]) == 0.0   # ccp
