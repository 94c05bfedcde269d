"""Output checks of the benchmark operations.

Each check returns a list of problems; an operation with any problem counts
as failed. The checks read the program's results and files and rebuild
what they assert from the scenario, never from the code path under test.
"""

import csv
import json
import os

import numpy as np

from covertuav import beamform, channel, secmetrics, trajectory

TOL = 1e-6              # kinematic and endpoint tolerance of the artifacts
RESIDUAL_TOL = 1e-9     # covertness residual of every slot


# -- frontier ------------------------------------------------------------------


def stationarity_gain(cfg, plan, q_c):
    """Objective gain of one more beamformer block plus one SCA iteration.

    Both steps are accepted only when they do not lower the objective, as
    in the planner's own loop, so the gain is never negative.
    """
    obj = trajectory.trajectory_objective(plan, q_c, cfg)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    q_new = np.array([beamform.bsa_optimize(cfg, gains, slot=s).q_c
                      for s in range(plan.n_slots)])
    obj_b = trajectory.trajectory_objective(plan, q_new, cfg)
    q, best = (q_new, obj_b) if obj_b >= obj else (q_c, obj)
    sca = trajectory.sca_trajectory(plan, q, cfg, max_iters=1)
    best = max(best, trajectory.trajectory_objective(sca.plan, q, cfg))
    return best - obj


def sop_h1_max(cfg, trace):
    """Largest per-slot H1 secrecy outage of a run's designs at their r_w."""
    gains = channel.gains_for_positions(cfg, trace.plan.comm_positions)
    worst = 0.0
    for slot, d in enumerate(trace.decisions):
        env = beamform.slot_env(cfg, gains, slot)
        worst = max(worst, float(secmetrics.sop_h1(
            d.q_b * env.g_bw, d.q_c * env.c_cw, env.sigma_w2, d.r_w)))
    return worst


def check_bcd_point(cfg, trace):
    """Problems of one weight point of the sweep: (problems, certificate)."""
    problems = []
    if trace.error is not None:
        problems.append(f"run failed: {trace.error}")
    if not trace.converged:
        problems.append("run hit the round cap without converging")
    if np.any(np.diff(trace.objectives) < 0):
        problems.append("objective trace decreases")
    try:
        trace.plan.check_feasible(cfg)
    except trajectory.TrajectoryError as exc:
        problems.append(f"infeasible plan: {exc}")
    gains = channel.gains_for_positions(cfg, trace.plan.comm_positions)
    residual = max(d.covertness_residual(beamform.slot_env(cfg, gains, s))
                   for s, d in enumerate(trace.decisions))
    if not residual <= RESIDUAL_TOL:
        problems.append(f"covertness residual {residual:.3g} > {RESIDUAL_TOL}")
    gain = stationarity_gain(cfg, trace.plan, trace.q_c)
    if not gain < cfg.bcd_tol:
        problems.append(f"not stationary: one more round gains {gain:.3g} "
                        f">= bcd_tol {cfg.bcd_tol}")
    return problems, gain


def dominated(rows, eps=1e-9):
    """Weights whose (phi_s, phi_c) another row dominates (criterion 10)."""
    bad = []
    for i, a in enumerate(rows):
        scale_s = max(abs(a.phi_s), 1.0)
        scale_c = max(abs(a.phi_c), 1.0)
        for j, b in enumerate(rows):
            if i == j:
                continue
            ge_s = b.phi_s >= a.phi_s - eps * scale_s
            ge_c = b.phi_c >= a.phi_c - eps * scale_c
            gt = (b.phi_s > a.phi_s + eps * scale_s
                  or b.phi_c > a.phi_c + eps * scale_c)
            if ge_s and ge_c and gt:
                bad.append(a.kappa)
                break
    return bad


def check_sweep(rows, kappas):
    problems = []
    if [r.kappa for r in rows] != list(kappas):
        problems.append("sweep rows do not match the requested weights")
    problems += [f"kappa {r.kappa}: {r.error}" for r in rows if r.error]
    bad = dominated(rows)
    if bad:
        problems.append(f"dominated rows at kappa {bad}")
    return problems


# -- command artifacts -----------------------------------------------------------


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_manifest(outdir):
    """manifest.json exists and lists exactly the other files produced."""
    path = os.path.join(outdir, "manifest.json")
    if not os.path.isfile(path):
        return ["manifest.json missing"]
    with open(path) as fh:
        listed = json.load(fh).get("files", [])
    present = sorted(set(os.listdir(outdir)) - {"manifest.json"})
    if sorted(listed) != present:
        return [f"manifest lists {sorted(listed)} but the run produced "
                f"{present}"]
    return []


def check_optimize(outdir, scen, code):
    """Artifacts of one ``optimize`` run against its scenario file dict."""
    if code != 0:
        return [f"exit code {code}"]
    problems = check_manifest(outdir)
    if problems:
        return problems
    rows = _read_rows(os.path.join(outdir, "trajectory.csv"))
    n = int(scen["n_slots"])
    if len(rows) != n + 1:
        problems.append(f"trajectory.csv has {len(rows)} rows, want {n + 1}")
    xy = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    speed = np.array([float(r["speed"]) for r in rows])
    accel = np.array([float(r["accel"]) for r in rows])
    if np.linalg.norm(xy[0] - scen["l_start_m"]) > TOL:
        problems.append("trajectory does not start at l_start")
    if np.linalg.norm(xy[-1] - scen["l_end_m"]) > TOL:
        problems.append("trajectory does not end at l_end")
    if np.any(speed > scen["v_max_mps"] + TOL) \
            or np.any(speed < scen["v_min_mps"] - TOL):
        problems.append("speed leaves [v_min, v_max]")
    if np.any(accel > scen["a_max_mps2"] + TOL):
        problems.append("acceleration exceeds a_max")
    objective = [float(r["objective"])
                 for r in _read_rows(os.path.join(outdir, "trace.csv"))]
    if not objective or np.any(np.diff(objective) < 0):
        problems.append("trace.csv is empty or decreases")
    return problems


def check_validate(outdir, code):
    """``validate`` exited 0 and every check line of report.txt is PASS."""
    problems = [] if code == 0 else [f"exit code {code}"]
    path = os.path.join(outdir, "report.txt")
    if not os.path.isfile(path):
        return problems + ["report.txt missing"]
    with open(path) as fh:
        lines = fh.read().splitlines()
    *checks, summary = lines or [""]
    if not checks:
        problems.append("report.txt has no check lines")
    problems += [f"report line: {line}" for line in checks
                 if not line.startswith("PASS ")]
    if summary != f"{len(checks)}/{len(checks)} checks passed":
        problems.append(f"report summary: {summary}")
    return problems


def tree_bytes(path):
    """Total size of the files under path."""
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)
