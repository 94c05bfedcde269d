"""Planner runs: the joint run and its two fixed-power benchmarks.

Every run is one successive-refinement call (`trajectory.sca_trajectory`)
from the straight-line starting plan, and the runs differ only in the slot
powers a plan is valued at. The joint run (`run_bcd`) values each plan at
the exact per-slot power search, so it maximizes V(plan) = mean over slots
of max_q R_s: the paper's two-block scheme with the power block solved at
every trial plan and the trajectory block one SCA step. A step lands only
if V does not decrease, so the trace is nondecreasing, and the loop stops
once a step moves V by less than the scenario's `bcd_tol`. The
fixed-beamformer baseline (`run_sotfb`) pins every slot's covert power at
the cap, and the covert-user-silent benchmark (`run_h0_benchmark`)
evaluates the covert-silent slot model. Every run returns the loop's own
record, a `trajectory.ScaResult`: plan, decision table, objective trace,
iteration count, convergence flag and error.

Also here: the weight-sweep frontier and the run artifacts.
"""

import math
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


def _run(cfg, policy, max_iters):
    """One planner run under the covert-power policy `policy`; returns the
    loop's `trajectory.ScaResult`.

    "search" values every plan at the exact per-slot power search (zero
    if it fails at the starting plan). "pinned" fixes every slot at the
    q_c_feasible of the starting plan's slot 0 (at most q_c_max), and
    "silent" at zero with the covert-silent slot model.
    """
    plan = trajectory.initial_plan(cfg)
    q_c = np.zeros(plan.n_slots)
    power = None
    if policy == "pinned":
        gains = channel.gains_for_positions(cfg, plan.comm_positions)
        q_c[:] = kernels.slot_env(cfg, gains, 0).q_c_feasible
    elif policy == "search":
        def power(p):
            gains = channel.gains_for_positions(cfg, p.comm_positions)
            return beamform.bsa_slots(cfg, gains).q_c
    return trajectory.sca_trajectory(plan, q_c, cfg, h0=policy == "silent",
                                     max_iters=max_iters, power=power)


def run_bcd(cfg, max_iters=50):
    """Refine the flight path, each plan at its searched slot powers,
    until the mean weighted rate stalls."""
    return _run(cfg, "search", max_iters)


def run_h0_benchmark(cfg, max_iters=50):
    """Trajectory-only run with the covert user silent.

    The secret user transmits at full power (nothing to search) and only
    the flight path is refined, for the secret-only rate. The covert rate
    contribution is identically zero and the outage cap is honored by
    construction.
    """
    return _run(cfg, "silent", max_iters)


def run_sotfb(cfg, max_iters=50):
    """Trajectory-only baseline: every slot keeps its covert power pinned at
    the cap (uniform unit directions) and only the flight path is refined."""
    return _run(cfg, "pinned", max_iters)


@dataclass(frozen=True)
class ParetoRow:
    """One weight point: the two unweighted average rates."""

    kappa: float
    phi_s: float
    phi_c: float
    error: str = None


def _frontier_components(cfg, trace):
    """Unweighted average secret and covert rates of a finished run."""
    d = trace.decisions
    return float(np.mean(d.scp * d.r_s)), float(np.mean(d.ccp * cfg.r_c))


def pareto_sweep(cfg, kappas, max_iters=50):
    """Run the joint planner per weight and tabulate (kappa, Phi_s, Phi_c).

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
            trace = run_bcd(alt, max_iters=max_iters)
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
