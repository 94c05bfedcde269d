"""Planner runs: the joint run and its two fixed-power benchmarks.

Each runner calls the one successive-refinement loop
(`trajectory.sca_trajectory`) itself, from the straight-line starting plan
(the joint run also from a given feasible plan); the runs differ only in
the slot powers a plan is valued at. The joint run (`run_bcd`) values each
plan at the exact per-slot power search, so it maximizes V(plan) = mean
over slots of max_q R_s: the paper's two-block scheme with the power block
solved at every trial plan and the trajectory block one SCA step. A step
lands only if V does not decrease, so the trace is nondecreasing, and the
loop stops once a step moves V by less than the scenario's `bcd_tol`. The
fixed-beamformer baseline (`run_sotfb`) pins every slot's covert power at
the cap, and the covert-user-silent benchmark (`run_h0_benchmark`)
evaluates the covert-silent slot model. Every run returns the loop's own
record, a `trajectory.ScaResult`: plan, decision table, objective trace,
iteration count, convergence flag and error.

Also here: the weight-sweep frontier and the run artifacts.
"""

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import beamform, channel, kernels, scenario, trajectory
from ._csvio import write_atomic_csv

__all__ = [
    "run_bcd", "run_h0_benchmark", "run_sotfb",
    "ParetoRow", "pareto_sweep",
    "write_trace_csv", "write_run_artifacts",
]


def run_bcd(cfg, max_iters=50, plan0=None):
    """Refine the flight path, each plan at its searched slot powers,
    until the mean weighted rate stalls.

    The loop starts from plan0 if given, otherwise from
    `trajectory.initial_plan`. A plan0 with another slot count than the
    scenario, or one that fails `TrajectoryPlan.check_feasible` at 1e-9,
    raises TrajectoryError naming the mismatch or the failed invariant.
    Every plan, the start included, is valued at its `beamform.bsa_slots`
    powers (zero if the search fails at the start).
    """
    if plan0 is None:
        plan0 = trajectory.initial_plan(cfg)
    elif plan0.n_slots != cfg.n_slots:
        raise trajectory.TrajectoryError(
            f"start plan has {plan0.n_slots} slots, the scenario "
            f"{cfg.n_slots}")
    else:
        try:
            plan0.check_feasible(cfg, tol=1e-9)
        except trajectory.TrajectoryError as exc:
            raise trajectory.TrajectoryError(
                f"start plan is infeasible: {exc}") from None

    def power(plan):
        gains = channel.gains_for_positions(cfg, plan.comm_positions)
        return beamform.bsa_slots(cfg, gains).q_c

    return trajectory.sca_trajectory(plan0, 0.0, cfg, max_iters=max_iters,
                                     power=power)


def run_h0_benchmark(cfg, max_iters=50):
    """Trajectory-only run with the covert user silent.

    The secret user transmits at full power (nothing to search) and only
    the flight path is refined, for the secret-only rate. The covert rate
    contribution is identically zero and the outage cap is honored by
    construction.
    """
    return trajectory.sca_trajectory(trajectory.initial_plan(cfg), 0.0, cfg,
                                     h0=True, max_iters=max_iters)


def run_sotfb(cfg, max_iters=50):
    """Trajectory-only baseline: every slot keeps its covert power pinned at
    the cap min(q_c_max, q_b_max*g_bw/c_cw) (uniform unit directions) and
    only the flight path is refined. The cap uses only the ground links,
    so it is one value for every slot and every UAV position."""
    plan = trajectory.initial_plan(cfg)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    return trajectory.sca_trajectory(
        plan, kernels.slot_env(cfg, gains).q_c_feasible, cfg,
        max_iters=max_iters)


@dataclass(frozen=True)
class ParetoRow:
    """One weight point: the two unweighted average rates, the error of a
    rejected weight or a failed run (None otherwise), and the refinement
    iterations of its run (0 when no run finished)."""

    kappa: float
    phi_s: float
    phi_c: float
    error: str = None
    iterations: int = 0


def _frontier_components(cfg, trace):
    """Unweighted average secret and covert rates of a finished run."""
    d = trace.decisions
    return float(np.mean(d.scp * d.r_s)), float(np.mean(d.ccp * cfg.r_c))


def _failed_row(kappa, error):
    return ParetoRow(kappa=kappa, phi_s=math.nan, phi_c=math.nan, error=error)


def pareto_sweep(cfg, kappas, max_iters=50):
    """Run the joint planner per weight and tabulate (kappa, Phi_s, Phi_c).

    The weights are chained in the given order: each valid weight's
    `run_bcd` starts from the final plan of the previous row without an
    error, and the first one (or one after only rejected or failed rows)
    from `trajectory.initial_plan`. The weight changes only the objective,
    not the constraints, so that plan is feasible at every weight, and
    each row still ends where one more step gains less than `bcd_tol`.
    A row and a cold run at its weight both stop at such a point, but not
    necessarily the same one, so their objectives can differ slightly.

    A weight that is not a real number in (0, 1) gets a row naming why,
    and a failed run lands in the table with its error message; neither
    seeds the next run, and the sweep continues with the remaining
    weights.
    """
    rows = []
    plan = None
    for k in kappas:
        if isinstance(k, bool) or not isinstance(k, numbers.Real):
            rows.append(_failed_row(
                k, f"kappa must be a real number, got {k!r}"))
            continue
        if not 0.0 < k < 1.0:
            rows.append(_failed_row(
                float(k), "kappa must lie strictly in (0, 1)"))
            continue
        alt = scenario.with_overrides(cfg, kappa=float(k))
        try:
            trace = run_bcd(alt, max_iters=max_iters, plan0=plan)
            phi_s, phi_c = _frontier_components(alt, trace)
        except Exception as exc:  # the sweep must survive individual runs
            rows.append(_failed_row(
                float(k), f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(ParetoRow(kappa=float(k), phi_s=phi_s, phi_c=phi_c,
                              error=trace.error,
                              iterations=trace.iterations))
        if trace.error is None:
            plan = trace.plan
    return rows


# ---------------------------------------------------------------------------
# run artifacts

def write_trace_csv(path, trace):
    """Objective per `trajectory.ScaResult.objectives` entry (entry 0 is
    the starting point)."""
    write_atomic_csv(path, ("iteration", "objective"),
                     list(enumerate(trace.objectives)))


def write_run_artifacts(outdir, cfg, trace):
    """Write trace.csv, beamformers.csv, trajectory.csv and the config
    snapshot of a finished run under one directory; returns the names of
    the files written."""
    os.makedirs(outdir, exist_ok=True)
    names = []

    def path(name):
        names.append(name)
        return os.path.join(outdir, name)

    write_trace_csv(path("trace.csv"), trace)
    beamform.write_decisions_csv(path("beamformers.csv"), trace.decisions)
    trajectory.write_plan_csv(path("trajectory.csv"), trace.plan)
    scenario.save_scenario(cfg, path("config.yaml"))
    return names
