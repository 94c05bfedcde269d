"""Planner runs: the joint alternation and its two one-block benchmarks.

The joint run (`run_bcd`) alternates two blocks. Block one maximizes each
slot's weighted rate exactly over the covert power at the current
positions; block two refines the flight path at the accepted powers. Both
blocks carry an acceptance guard — an update only lands if the global mean
rate does not decrease — so the recorded trace is nondecreasing
unconditionally, and the loop stops once an outer round moves the
objective by less than the configured tolerance.

The two benchmarks fix the powers, so they have only the trajectory block:
the fixed-beamformer baseline (`run_sotfb`) pins every slot's covert power
at the cap, and the covert-user-silent benchmark (`run_h0_benchmark`)
evaluates the covert-silent slot model. Each runs that block once, one
successive-refinement call whose accepted steps form its trace. One private
driver runs all three.

Also here: the weight-sweep frontier and the run artifacts.
"""

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import beamform, channel, kernels, scenario, trajectory
from ._csvio import write_atomic_csv

__all__ = [
    "BcdTrace", "run_bcd", "run_h0_benchmark", "run_sotfb",
    "ParetoRow", "pareto_sweep",
    "write_trace_csv", "write_pareto_csv", "write_run_artifacts",
]


@dataclass(frozen=True)
class BcdTrace:
    """Outcome of one planner run.

    objectives[0] is the starting point's mean rate; one more entry lands
    per completed outer round of the joint run, or per accepted
    successive-refinement step of a one-block benchmark. iterations counts
    those rounds, or the refinement iterations. decisions holds the final
    per-slot designs and plan the final flight path. error is None unless a
    block failed, in which case the last accepted iterate is returned with a
    message naming the outer round and the block ("round 3, trajectory
    block: ...").
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


def _run(cfg, power, max_iters, tol):
    """One planner run under the covert-power policy `power`.

    "search" starts every slot at zero and alternates the exact per-slot
    power search with the trajectory block. "pinned" fixes every slot at
    the q_c_feasible of the starting plan's slot 0 (at most q_c_max), and
    "silent" at zero with the covert-silent slot model; with the powers
    fixed there is nothing to alternate, so the trajectory block runs once.
    """
    if tol is None:
        tol = cfg.bcd_tol
    start = time.perf_counter()
    plan = trajectory.initial_plan(cfg)
    q_c = np.zeros(plan.n_slots)
    if power == "pinned":
        gains = channel.gains_for_positions(cfg, plan.comm_positions)
        q_c[:] = kernels.slot_env(cfg, gains, 0).q_c_feasible
    h0 = power == "silent"
    obj = trajectory.trajectory_objective(plan, q_c, cfg, h0=h0)
    objectives = [obj]
    converged = False
    rounds, block, error = 0, "trajectory block", None
    try:
        if power == "search":
            for _ in range(max_iters):
                rounds += 1
                block = "beamformer block"
                gains = channel.gains_for_positions(cfg, plan.comm_positions)
                q_new = beamform.bsa_slots(cfg, gains).q_c
                obj_b = trajectory.trajectory_objective(plan, q_new, cfg)
                if obj_b >= obj:
                    q_c, obj = q_new, obj_b
                block = "trajectory block"
                sca = trajectory.sca_trajectory(plan, q_c, cfg)
                obj_t = sca.objectives[-1]
                if obj_t >= obj:
                    plan, obj = sca.plan, obj_t
                objectives.append(obj)
                if abs(objectives[-1] - objectives[-2]) < tol:
                    converged = True
                    break
        else:
            rounds = 1
            sca = trajectory.sca_trajectory(plan, q_c, cfg, h0=h0, tol=tol,
                                            max_iters=max_iters)
            plan, objectives = sca.plan, list(sca.objectives)
            rounds, converged = sca.iterations, sca.converged
    except (beamform.CovertBudgetError, trajectory.TrajectoryError,
            np.linalg.LinAlgError) as exc:
        error = f"round {rounds}, {block}: {type(exc).__name__}: {exc}"
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    decisions = [beamform.h0_decision(cfg, gains, slot=s) if h0
                 else beamform.decision_at(cfg, gains, q_c[s], slot=s)
                 for s in range(plan.n_slots)]
    return BcdTrace(objectives=objectives, decisions=decisions, plan=plan,
                    q_c=q_c, iterations=rounds,
                    wall_time=time.perf_counter() - start,
                    converged=converged, error=error)


def run_bcd(cfg, max_iters=50, tol=None):
    """Alternate the two blocks until the mean weighted rate stalls."""
    return _run(cfg, "search", max_iters, tol)


def run_h0_benchmark(cfg, max_iters=50, tol=None):
    """Trajectory-only run with the covert user silent.

    The secret user transmits at full power (nothing to search) and only
    the flight path is refined, for the secret-only rate. The covert rate
    contribution is identically zero and the outage cap is honored by
    construction.
    """
    return _run(cfg, "silent", max_iters, tol)


def run_sotfb(cfg, max_iters=50, tol=None):
    """Trajectory-only baseline: every slot keeps its covert power pinned at
    the cap (uniform unit directions) and only the flight path is refined."""
    return _run(cfg, "pinned", max_iters, tol)


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


# ---------------------------------------------------------------------------
# run artifacts

def write_trace_csv(path, trace):
    """Objective per `BcdTrace.objectives` entry (entry 0 is the starting
    point)."""
    write_atomic_csv(path, ("iteration", "objective"),
                     list(enumerate(trace.objectives)))


def write_pareto_csv(path, rows):
    write_atomic_csv(path, ("kappa", "phi_s", "phi_c", "error"),
                     [(r.kappa, r.phi_s, r.phi_c, r.error or "")
                      for r in rows])


def write_run_artifacts(outdir, cfg, trace, pareto_rows=None):
    """Write trace.csv, beamformers.csv, trajectory.csv, the config
    snapshot, and (when given) pareto.csv under one directory; returns the
    names of the files written."""
    os.makedirs(outdir, exist_ok=True)
    names = []

    def path(name):
        names.append(name)
        return os.path.join(outdir, name)

    write_trace_csv(path("trace.csv"), trace)
    beamform.write_decisions_csv(path("beamformers.csv"), trace.decisions)
    trajectory.write_plan_csv(path("trajectory.csv"), trace.plan)
    scenario.save_scenario(cfg, path("config.yaml"))
    if pareto_rows is not None:
        write_pareto_csv(path("pareto.csv"), pareto_rows)
    return names
