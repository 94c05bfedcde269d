"""Alternating optimization runs, baselines, and run artifacts."""

import math
import os

import numpy as np
import pytest

from covertuav import (beamform, channel, mc_oracle, orchestrator, scenario,
                       secmetrics, trajectory)
from covertuav.scenario import with_overrides


@pytest.fixture(scope="module")
def bcd_canonical(cfg):
    return orchestrator.run_bcd(cfg)


def test_single_round_when_tolerance_is_infinite(cfg):
    trace = orchestrator.run_bcd(cfg, tol=math.inf)
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
    assert trace.wall_time > 0


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
    """A block that raises ends the run with the last accepted iterate and
    an error naming the outer round and the block."""
    with monkeypatch.context() as m:
        calls = _failing_on_call(m, trajectory, "solve_subproblem", None,
                                 None)
        one_round = orchestrator.run_bcd(cfg, max_iters=1, tol=0.0)
    calls_in_round_1 = len(calls)

    with monkeypatch.context() as m:
        _failing_on_call(m, trajectory, "solve_subproblem",
                         calls_in_round_1 + 1,
                         trajectory.TrajectoryError("injected"))
        trace = orchestrator.run_bcd(cfg, max_iters=3, tol=0.0)
    assert trace.error == ("round 2, trajectory block: "
                           "TrajectoryError: injected")
    assert trace.objectives == one_round.objectives
    assert np.array_equal(trace.plan.positions, one_round.plan.positions)
    trace.plan.check_feasible(cfg)

    with monkeypatch.context() as m:
        _failing_on_call(m, beamform, "bsa_slots", 1,
                         beamform.CovertBudgetError("injected"))
        trace = orchestrator.run_bcd(cfg, max_iters=3, tol=0.0)
    assert trace.error.startswith("round 1, beamformer block: "
                                  "CovertBudgetError")
    assert np.array_equal(trace.plan.positions,
                          trajectory.initial_plan(cfg).positions)

    for runner in (orchestrator.run_h0_benchmark, orchestrator.run_sotfb):
        with monkeypatch.context() as m:
            _failing_on_call(m, trajectory, "solve_subproblem", 1,
                             trajectory.TrajectoryError("injected"))
            trace = runner(cfg, max_iters=3, tol=0.0)
        assert trace.error == ("round 1, trajectory block: "
                               "TrajectoryError: injected")
        assert len(trace.objectives) == 1


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
    est = mc_oracle.estimate_sop_h1(*links[0], samples=1_000_000, seed=0)
    assert est.agrees_with(cfg.eta_s)


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


def test_bcd_starts_from_silent_covert_user(cfg, bcd_canonical):
    plan0 = trajectory.initial_plan(cfg)
    base = trajectory.trajectory_objective(plan0, 0.0, cfg)
    assert bcd_canonical.objectives[0] == pytest.approx(base, rel=1e-12)


def test_bcd_is_reproducible(cfg):
    a = orchestrator.run_bcd(cfg, tol=math.inf)
    b = orchestrator.run_bcd(cfg, tol=math.inf)
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
    trace = orchestrator.run_sotfb(cfg, tol=1e-3, max_iters=10)
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
    jotb = orchestrator.run_bcd(cfg, tol=math.inf, max_iters=1)
    sotfb = orchestrator.run_sotfb(cfg, tol=math.inf, max_iters=1)
    assert jotb.q_c.shape == sotfb.q_c.shape
    assert not np.all(jotb.q_c == sotfb.q_c)


def test_pareto_sweep_rejects_degenerate_weights(cfg):
    rows = orchestrator.pareto_sweep(cfg, [0.0, 1.0, 1.5], max_iters=1,
                                     tol=math.inf)
    assert len(rows) == 3
    for row in rows:
        assert row.error is not None
        assert math.isnan(row.phi_s) and math.isnan(row.phi_c)


def test_pareto_sweep_valid_weight(cfg):
    rows = orchestrator.pareto_sweep(cfg, [0.5], max_iters=1, tol=math.inf)
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    assert row.phi_s > 0 and row.phi_c > 0
    # the weighted objective decomposes into the two frontier components
    trace = orchestrator.run_bcd(cfg, max_iters=1, tol=math.inf)
    mix = 0.5 * row.phi_s + 0.5 * row.phi_c
    assert mix == pytest.approx(trace.objective, rel=1e-9)


def test_trace_csv(cfg, tmp_path):
    trace = orchestrator.run_bcd(cfg, tol=math.inf)
    path = tmp_path / "trace.csv"
    orchestrator.write_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective"
    assert len(lines) == len(trace.objectives) + 1


def test_pareto_csv(cfg, tmp_path):
    rows = orchestrator.pareto_sweep(cfg, [0.0], max_iters=1)
    path = tmp_path / "pareto.csv"
    orchestrator.write_pareto_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kappa,phi_s,phi_c,error"
    assert len(lines) == 2


def test_write_run_artifacts(cfg, tmp_path):
    trace = orchestrator.run_bcd(cfg, tol=math.inf)
    orchestrator.write_run_artifacts(tmp_path, cfg, trace)
    for name in ("trace.csv", "beamformers.csv", "trajectory.csv",
                 "config.yaml"):
        assert os.path.exists(os.path.join(tmp_path, name))
    assert not os.path.exists(os.path.join(tmp_path, "pareto.csv"))
    beam = (tmp_path / "beamformers.csv").read_text().strip().splitlines()
    assert beam[0] == "slot,q_b,q_c,theta,r_w,r_s,scp_h1,ccp,rate"
    assert len(beam) == cfg.n_slots + 1
    rows = orchestrator.pareto_sweep(cfg, [0.5], max_iters=1, tol=math.inf)
    orchestrator.write_run_artifacts(tmp_path, cfg, trace, pareto_rows=rows)
    assert os.path.exists(os.path.join(tmp_path, "pareto.csv"))


def test_h0_artifacts_use_silent_covert_columns(cfg, tmp_path):
    trace = orchestrator.run_h0_benchmark(cfg, tol=math.inf, max_iters=1)
    orchestrator.write_run_artifacts(tmp_path, cfg, trace)
    lines = (tmp_path / "beamformers.csv").read_text().strip().splitlines()
    first = lines[1].split(",")
    assert float(first[2]) == 0.0   # q_c
    assert float(first[3]) == 0.0   # theta
    assert float(first[7]) == 0.0   # ccp
