"""Outer alternating loop: per-slot transmit design, then flight path.

Block one maximizes each slot's weighted rate exactly over the covert
power at the current positions; block two refines the flight path at the
accepted powers. Both blocks carry an acceptance guard — an update only
lands if the global mean rate does not decrease — so the recorded trace is
nondecreasing unconditionally, and the loop stops once an outer round
moves the objective by less than the configured tolerance.

Also here: the covert-user-silent benchmark, the weight-sweep frontier,
and the fixed-beamformer baseline comparison.
"""

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import beamform, channel, scenario, trajectory
from ._csvio import write_atomic_csv

__all__ = [
    "BcdTrace", "run_bcd", "run_h0_benchmark", "run_sotfb",
    "ParetoRow", "pareto_sweep", "compare_sotfb",
    "write_trace_csv", "write_pareto_csv", "write_run_artifacts",
]


@dataclass(frozen=True)
class BcdTrace:
    """Outcome of one alternating run.

    objectives[0] is the starting point's mean rate; one more entry lands
    per completed outer round. decisions holds the final per-slot designs
    and plan the final flight path. error is None unless a block failed, in
    which case the last accepted iterate is returned with a message naming
    the outer round and the block ("round 3, trajectory block: ...").
    """

    objectives: list
    decisions: list
    plan: trajectory.TrajectoryPlan
    q_c: np.ndarray
    iterations: int
    wall_time: float
    converged: bool
    error: str = None

    def __post_init__(self):
        q = np.asarray(self.q_c, dtype=float)
        object.__setattr__(self, "q_c", q)
        q.setflags(write=False)

    @property
    def objective(self):
        return self.objectives[-1]


def _block_beamformers(cfg, plan):
    """Exact power search of every slot at the plan's communication
    positions."""
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    return beamform.bsa_slots(cfg, gains).q_c


def _final_decisions(cfg, plan, q_c):
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    return [beamform.decision_at(cfg, gains, q_c[slot], slot=slot)
            for slot in range(plan.n_slots)]


def _block_error(round_no, block, exc):
    """BcdTrace.error text naming the outer round and block that failed."""
    return f"round {round_no}, {block}: {type(exc).__name__}: {exc}"


def run_bcd(cfg, max_iters=50, tol=None):
    """Alternate the two blocks until the mean weighted rate stalls."""
    if tol is None:
        tol = cfg.bcd_tol
    start = time.perf_counter()
    plan = trajectory.initial_plan(cfg)
    q_c = np.zeros(plan.n_slots)
    obj = trajectory.trajectory_objective(plan, q_c, cfg)
    objectives = [obj]
    error = None
    converged = False
    iterations = 0
    try:
        for _ in range(max_iters):
            iterations += 1
            block = "beamformer block"
            q_new = _block_beamformers(cfg, plan)
            obj_b = trajectory.trajectory_objective(plan, q_new, cfg)
            if obj_b >= obj:
                q_c, obj = q_new, obj_b
            block = "trajectory block"
            sca = trajectory.sca_trajectory(plan, q_c, cfg)
            obj_t = trajectory.trajectory_objective(sca.plan, q_c, cfg)
            if obj_t >= obj:
                plan, obj = sca.plan, obj_t
            objectives.append(obj)
            if abs(objectives[-1] - objectives[-2]) < tol:
                converged = True
                break
    except (beamform.CovertBudgetError, trajectory.TrajectoryError,
            np.linalg.LinAlgError) as exc:
        error = _block_error(iterations, block, exc)
    decisions = _final_decisions(cfg, plan, q_c)
    return BcdTrace(objectives=objectives, decisions=decisions, plan=plan,
                    q_c=q_c, iterations=iterations,
                    wall_time=time.perf_counter() - start,
                    converged=converged, error=error)


def run_h0_benchmark(cfg, max_iters=50, tol=None):
    """Alternating run with the covert user silent.

    Block one is the fixed full-power policy (nothing to search); block two
    refines the path for the secret-only rate. The covert rate contribution
    is identically zero and the outage cap is honored by construction.
    """
    if tol is None:
        tol = cfg.bcd_tol
    start = time.perf_counter()
    plan = trajectory.initial_plan(cfg)
    obj = trajectory.trajectory_objective(plan, 0.0, cfg, h0=True)
    objectives = [obj]
    error = None
    converged = False
    iterations = 0
    try:
        for _ in range(max_iters):
            iterations += 1
            sca = trajectory.sca_trajectory(plan, 0.0, cfg, h0=True)
            obj_t = trajectory.trajectory_objective(sca.plan, 0.0, cfg, h0=True)
            if obj_t >= obj:
                plan, obj = sca.plan, obj_t
            objectives.append(obj)
            if abs(objectives[-1] - objectives[-2]) < tol:
                converged = True
                break
    except (trajectory.TrajectoryError, np.linalg.LinAlgError) as exc:
        error = _block_error(iterations, "trajectory block", exc)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    decisions = [beamform.h0_decision(cfg, gains, slot=s)
                 for s in range(plan.n_slots)]
    return BcdTrace(objectives=objectives, decisions=decisions, plan=plan,
                    q_c=np.zeros(plan.n_slots), iterations=iterations,
                    wall_time=time.perf_counter() - start,
                    converged=converged, error=error)


@dataclass(frozen=True)
class ParetoRow:
    """One weight point: the two unweighted average rates."""

    kappa: float
    phi_s: float
    phi_c: float
    error: str = None


def _frontier_components(cfg, trace):
    """Unweighted average secret and covert rates of a finished run."""
    phi_s = float(np.mean([d.scp_h1 * d.r_s for d in trace.decisions]))
    phi_c = float(np.mean([d.ccp * cfg.r_c for d in trace.decisions]))
    return phi_s, phi_c


def pareto_sweep(cfg, kappas, max_iters=50, tol=None):
    """Run the alternating loop per weight and tabulate (kappa, Phi_s, Phi_c).

    A failed run lands in the table with its error message; the sweep
    continues with the remaining weights.
    """
    rows = []
    for k in kappas:
        if not 0.0 < k < 1.0:
            rows.append(ParetoRow(kappa=float(k), phi_s=math.nan,
                                  phi_c=math.nan,
                                  error="kappa must lie strictly in (0, 1)"))
            continue
        alt = scenario.with_overrides(cfg, kappa=float(k))
        try:
            trace = run_bcd(alt, max_iters=max_iters, tol=tol)
            phi_s, phi_c = _frontier_components(alt, trace)
            rows.append(ParetoRow(kappa=float(k), phi_s=phi_s, phi_c=phi_c,
                                  error=trace.error))
        except Exception as exc:  # the sweep must survive individual runs
            rows.append(ParetoRow(kappa=float(k), phi_s=math.nan,
                                  phi_c=math.nan,
                                  error=f"{type(exc).__name__}: {exc}"))
    return rows


def run_sotfb(cfg, max_iters=50, tol=None):
    """Trajectory-only baseline: every slot keeps its covert power pinned at
    the cap (uniform unit directions) and only the flight path is refined."""
    start = time.perf_counter()
    plan = trajectory.initial_plan(cfg)
    gains0 = channel.gains_for_positions(cfg, plan.comm_positions)
    env0 = beamform.slot_env(cfg, gains0, 0)
    q_fixed = min(cfg.q_c_max_w, env0.q_c_feasible)
    q_c = np.full(plan.n_slots, q_fixed)
    sca = trajectory.sca_trajectory(plan, q_c, cfg, tol=tol, max_iters=max_iters)
    decisions = _final_decisions(cfg, sca.plan, q_c)
    return BcdTrace(objectives=list(sca.objectives), decisions=decisions,
                    plan=sca.plan, q_c=q_c, iterations=sca.iterations,
                    wall_time=time.perf_counter() - start,
                    converged=sca.converged, error=None)


def compare_sotfb(cfg, max_iters=50, tol=None):
    """Joint optimization vs the fixed-beamformer trajectory-only baseline."""
    jotb = run_bcd(cfg, max_iters=max_iters, tol=tol)
    sotfb = run_sotfb(cfg, max_iters=max_iters, tol=tol)
    return jotb, sotfb


# ---------------------------------------------------------------------------
# run artifacts

def write_trace_csv(path, trace):
    """Objective per outer round (round 0 is the starting point)."""
    write_atomic_csv(path, ("iteration", "objective"),
                     list(enumerate(trace.objectives)))


def write_pareto_csv(path, rows):
    write_atomic_csv(path, ("kappa", "phi_s", "phi_c", "error"),
                     [(r.kappa, r.phi_s, r.phi_c, r.error or "")
                      for r in rows])


def write_run_artifacts(outdir, cfg, trace, pareto_rows=None):
    """Write trace.csv, beamformers.csv, trajectory.csv, the config
    snapshot, and (when given) pareto.csv under one directory."""
    os.makedirs(outdir, exist_ok=True)
    write_trace_csv(os.path.join(outdir, "trace.csv"), trace)
    beamform.write_decisions_csv(os.path.join(outdir, "beamformers.csv"),
                                 trace.decisions)
    trajectory.write_plan_csv(os.path.join(outdir, "trajectory.csv"),
                              trace.plan)
    scenario.save_scenario(cfg, os.path.join(outdir, "config.yaml"))
    if pareto_rows is not None:
        write_pareto_csv(os.path.join(outdir, "pareto.csv"), pareto_rows)
