"""Command-line front end.

Four subcommands cover the working surfaces of the package:

* ``metrics-sweep``   one security metric swept as CSV curves
* ``rate-vs-power``   the weighted slot rate against a transmit power
* ``optimize``        the joint planner or a baseline, artifacts dumped to disk
* ``validate``        simulation cross-checks plus invariant spot checks

Each command writes plain one-header CSV files into the output directory,
which ``main`` makes before any work, and finishes with a
``manifest.json`` naming every produced file; the manifest lands last so
a complete manifest implies a complete run. Exit codes: 0 success,
1 configuration error, 2 optimization failure, 3 validation failure.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import beamform, channel, kernels, mc_oracle, orchestrator, \
    scenario, secmetrics, trajectory
from ._csvio import atomic_open, write_atomic_csv
from .rng import make_rng

__all__ = [
    "EXIT_OK", "EXIT_CONFIG", "EXIT_OPTIMIZATION", "EXIT_VALIDATION",
    "RunManifest",
    "cmd_metrics_sweep", "cmd_rate_vs_power", "cmd_optimize", "cmd_validate",
    "build_parser", "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_OPTIMIZATION = 2
EXIT_VALIDATION = 3

FIGURES = ("scp", "sop", "ccp", "dep")
OPTIMIZE_MODES = ("jotb", "sotfb", "h0")
RATE_MODES = ("h0", "h1")


class UsageError(ValueError):
    """Bad flags, or an unknown figure or mode."""


# ---------------------------------------------------------------------------
# small file plumbing


@dataclass(frozen=True)
class RunManifest:
    """What a finished command produced and from which inputs."""

    command: str
    scenario: str
    seed: int | None    # None for the commands that draw nothing
    outdir: str
    files: tuple
    wall_time_s: float

    def write(self, path):
        payload = asdict(self)
        payload["files"] = list(self.files)
        with atomic_open(path) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# shared operating point


def _slot0_env(cfg):
    """Slot-0 power environment on the straight-ferry starting path."""
    plan = trajectory.initial_plan(cfg)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    return kernels.slot_env(cfg, gains, 0)


# ---------------------------------------------------------------------------
# metrics-sweep


def cmd_metrics_sweep(cfg, figure, outdir):
    """Write one CSV per curve of the chosen metric family.

    Connection/outage curves are evaluated at the slot-0 operating point
    with the covert power at its exact slot optimum, one curve per antenna
    count. The detection sweep instead uses the uncoupled full-power
    picture (no cover carve-out), the regime an energy detector actually
    faces when the covert user ignores the coupling rule.
    """
    if figure not in FIGURES:
        raise UsageError(f"unknown figure {figure!r} (choose from {FIGURES})")
    files = []

    def emit(name, column, values):
        write_atomic_csv(os.path.join(outdir, name), (column, figure),
                         list(zip(grid.tolist(), values.tolist())))
        files.append(name)

    if figure == "dep":
        env = _slot0_env(cfg)
        s0 = env.budget + cfg.sigma_w2_w
        s1 = s0 + env.c_cw * cfg.q_c_max_w
        grid = np.linspace(0.5 * s0, 2.0 * s1, 301)
        for m in (50, 100):
            stats = secmetrics.DetectionStats(
                sigma0=s0, sigma1=s1,
                q_th=secmetrics.optimal_threshold(s0, s1), m=m)
            _, _, p_e = secmetrics.dep(stats, grid)
            emit(f"dep_m{m}.csv", "q_th", p_e)
        return files

    grid = (np.linspace(0.0, 16.0, 129) if figure == "ccp"
            else np.linspace(0.0, 30.0, 121))
    for n in (2, 4):
        alt = scenario.with_overrides(cfg, n_b=n, n_c=n)
        env = _slot0_env(alt)
        q_c = beamform.bsa_optimize(env=env, zeta1=alt.zeta1_w).q_c
        q_b, p_ba, p_ca, p_cw = env.split_powers(q_c)
        if figure == "scp":
            emit(f"scp_h0_n{n}.csv", "r_t", secmetrics.scp_h0(
                env.c_ba * env.q_b_max, env.sigma_a2, grid))
            emit(f"scp_h1_n{n}.csv", "r_t",
                 secmetrics.scp_h1(p_ba, p_ca, env.sigma_a2, grid))
        elif figure == "sop":
            emit(f"sop_h0_n{n}.csv", "r_w",
                 secmetrics.sop_h0(env.budget, env.sigma_w2, grid))
            emit(f"sop_h1_n{n}.csv", "r_w", secmetrics.sop_h1(
                q_b * env.g_bw, p_cw, env.sigma_w2, grid))
        else:
            emit(f"ccp_n{n}.csv", "r_c",
                 secmetrics.ccp(p_ba, p_ca, env.sigma_a2, env.r_t, grid))
    return files


# ---------------------------------------------------------------------------
# rate-vs-power


def cmd_rate_vs_power(cfg, mode, outdir):
    """Write the weighted slot rate against the swept transmit power, on
    a 10 001-point grid.

    Mode h1 sweeps the covert power over its feasible interval (the grid is
    fine enough to localize the maximizer to the bisection tolerance);
    mode h0 sweeps the secret power with the covert user silent.
    """
    if mode not in RATE_MODES:
        raise UsageError(f"unknown mode {mode!r} (choose from {RATE_MODES})")
    env = _slot0_env(cfg)
    name = f"rate_vs_power_{mode}.csv"

    if mode == "h1":
        grid = np.linspace(0.0, env.q_c_feasible, 10_001)
        rows = list(zip(grid.tolist(), np.asarray(env.rate(grid)).tolist()))
        write_atomic_csv(os.path.join(outdir, name), ("q_c", "rate"), rows)
        return [name]

    grid = np.linspace(1e-6 * cfg.q_b_max_w, cfg.q_b_max_w, 10_001)
    rate = kernels.h0_slot(grid, env).rate
    rows = list(zip(grid.tolist(), rate.tolist()))
    write_atomic_csv(os.path.join(outdir, name), ("q_b", "rate"), rows)
    return [name]


# ---------------------------------------------------------------------------
# optimize


def cmd_optimize(cfg, mode, outdir, kappa=None, max_iters=50):
    """Run one planner variant and dump its artifacts.

    Returns (exit code, produced files). A run that aborted mid-loop still
    dumps its last accepted iterate, with the failure reported via the
    exit code.
    """
    if mode not in OPTIMIZE_MODES:
        raise UsageError(f"unknown mode {mode!r} "
                         f"(choose from {OPTIMIZE_MODES})")
    if kappa is not None:
        cfg = scenario.with_overrides(cfg, kappa=float(kappa))
    runner = {"jotb": orchestrator.run_bcd,
              "sotfb": orchestrator.run_sotfb,
              "h0": orchestrator.run_h0_benchmark}[mode]
    trace = runner(cfg, max_iters=max_iters)
    files = orchestrator.write_run_artifacts(outdir, cfg, trace)
    print(f"{mode}: objective {trace.objective:.6f} after "
          f"{trace.iterations} refinement iterations "
          f"({'converged' if trace.converged else 'iteration cap'})")
    if trace.error:
        print(f"optimization failed: {trace.error}", file=sys.stderr)
        return EXIT_OPTIMIZATION, files
    return EXIT_OK, files


# ---------------------------------------------------------------------------
# validate


def _check_agreement(cfg, seed, samples, report):
    rows = mc_oracle.agreement_suite(samples=samples, seed=seed)
    hits = sum(r.agrees for r in rows)
    need = len(rows) - 2
    report.append((hits >= need,
                   f"closed-form vs simulation: {hits}/{len(rows)} rows "
                   f"inside the 95% interval (need >= {need})"))
    return rows


def _check_detector_mc(seed, trials, report):
    stats1 = secmetrics.DetectionStats(sigma0=1.0, sigma1=2.0,
                                       q_th=2.0 * math.log(2.0), m=1)
    _, _, exact = secmetrics.dep(stats1)
    ok_exact = abs(exact - 0.75) <= 1e-12
    bad = []
    for m in (1, 10, 100):
        stats = secmetrics.DetectionStats(
            sigma0=1.0, sigma1=2.0,
            q_th=secmetrics.optimal_threshold(1.0, 2.0), m=m)
        _, _, p_e = secmetrics.dep(stats)
        _, _, est = mc_oracle.mc_dep(stats, trials=trials, seed=seed)
        if not est.agrees_with(p_e):
            bad.append(m)
    report.append((ok_exact and not bad,
                   "radiometer closed form vs symbol simulation at "
                   f"m in (1, 10, 100): {'ok' if not bad else bad}, "
                   f"anchor point 0.75 {'hit' if ok_exact else 'missed'}"))


def _check_threshold_rule(seed, report):
    rng = make_rng(seed, worker=17)
    worst = 0.0
    for _ in range(10):
        s0 = 10.0 ** rng.uniform(-1.0, 1.0)
        s1 = s0 * (1.0 + 10.0 ** rng.uniform(-2.0, 1.0))
        m = int(rng.integers(1, 200))
        stats = secmetrics.DetectionStats(
            sigma0=s0, sigma1=s1,
            q_th=secmetrics.optimal_threshold(s0, s1), m=m)
        grid = np.geomspace(0.2 * s0, 5.0 * s1, 1000)
        _, _, p_grid = secmetrics.dep(stats, grid)
        _, _, p_star = secmetrics.dep(stats)
        worst = max(worst, p_star - float(np.min(p_grid)))
    report.append((worst <= 1e-12,
                   f"operating threshold beats a 1000-point grid "
                   f"(worst excess {worst:.2e})"))


def _check_covertness(env, best, m_samples, report):
    decision = beamform.decision_at(env, best.q_c)
    residual = decision.covertness_residual(env)
    s0 = env.budget + env.sigma_w2
    stats = secmetrics.DetectionStats(
        sigma0=s0,
        sigma1=decision.q_b * env.g_bw + decision.q_c * env.c_cw
        + env.sigma_w2,
        q_th=s0, m=m_samples)
    _, _, p_e = secmetrics.dep(stats, np.geomspace(0.5 * s0, 2.0 * s0, 7))
    flat = float(np.max(np.abs(np.asarray(p_e) - 1.0)))
    report.append((residual <= 1e-9 and flat <= 1e-12,
                   f"received-power coupling holds (residual {residual:.2e},"
                   f" detector stuck at error 1 within {flat:.2e})"))


def _check_monotonicity(env, report):
    q_b, p_ba, p_ca, p_cw = env.split_powers(0.5 * env.q_c_feasible)
    r_grid = np.linspace(0.0, 30.0, 100)
    scp = [secmetrics.scp_h1(p_ba, p_ca, env.sigma_a2, r) for r in r_grid]
    sop = [secmetrics.sop_h0(env.budget, env.sigma_w2, r) for r in r_grid]
    dep_m = []
    for m in range(1, 101):
        stats = secmetrics.DetectionStats(
            sigma0=1.0, sigma1=1.8,
            q_th=secmetrics.optimal_threshold(1.0, 1.8), m=m)
        dep_m.append(secmetrics.dep(stats)[2])
    ok = (np.all(np.diff(scp) <= 1e-12) and np.all(np.diff(sop) <= 1e-12)
          and np.all(np.diff(dep_m) <= 1e-12))
    report.append((bool(ok),
                   "connection falls with the target rate, leakage with the"
                   " redundancy rate, best detection error with the block"
                   " length"))


def _check_slot_curve(env, res, report):
    grid_best = float(np.max(env.rate(np.linspace(0.0, env.q_c_feasible,
                                                  2001))))
    ok = res.unimodal and res.objective >= grid_best - 1e-5 * abs(grid_best)
    report.append((bool(ok),
                   f"slot power search: single hump, bisection value "
                   f"{res.objective:.6f} vs coarse grid {grid_best:.6f}"))


def cmd_validate(cfg, outdir, seed=0, samples=100_000, quick=False):
    """Run the simulation agreement suite plus invariant spot checks.

    Returns (exit code, produced files) and prints one PASS/FAIL line per
    check. --quick cuts the sample counts; the binomial intervals widen
    to match, so the checks stay calibrated.
    """
    samples = int(samples)
    trials = 10_000
    if quick:
        samples = min(samples, 20_000)
    report = []
    rows = _check_agreement(cfg, seed, samples, report)
    _check_detector_mc(seed, trials, report)
    _check_threshold_rule(seed, report)
    # one slot-0 operating point and its power search serve the three
    # model checks
    env = _slot0_env(cfg)
    best = beamform.bsa_optimize(env=env, zeta1=cfg.zeta1_w)
    _check_covertness(env, best, cfg.m_samples, report)
    _check_monotonicity(env, report)
    _check_slot_curve(env, best, report)

    mc_oracle.write_agreement_csv(os.path.join(outdir, "agreement.csv"), rows)
    lines = [f"{'PASS' if ok else 'FAIL'} {text}" for ok, text in report]
    failures = sum(1 for ok, _ in report if not ok)
    lines.append(f"{len(report) - failures}/{len(report)} checks passed")
    with atomic_open(os.path.join(outdir, "report.txt")) as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return (EXIT_VALIDATION if failures else EXIT_OK,
            ["agreement.csv", "report.txt"])


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text):
    """--seed's type: a non-negative integer, the one key make_rng takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"--seed must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = _Parser(prog="covertuav",
                     description="Security-metric curves, slot-rate sweeps, "
                                 "flight planning, and validation.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", default=None,
                        help="bundled scenario name or a YAML path "
                             "(default: paper_default)")
    common.add_argument("--out", default=None,
                        help="output directory (default: runs/<command>)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics-sweep", parents=[common],
                       help="CSV curves of one security metric")
    p.add_argument("--figure", required=True, choices=FIGURES)

    p = sub.add_parser("rate-vs-power", parents=[common],
                       help="weighted slot rate vs a transmit power")
    p.add_argument("--mode", default="h1", choices=RATE_MODES)

    p = sub.add_parser("optimize", parents=[common],
                       help="run the joint planner or a baseline")
    p.add_argument("--mode", default="jotb", choices=OPTIMIZE_MODES)
    p.add_argument("--kappa", type=float, default=None,
                   help="override the objective weight")

    p = sub.add_parser("validate", parents=[common],
                       help="simulation cross-checks and invariants")
    p.add_argument("--seed", type=_seed, default=0,
                   help="base seed of every Monte Carlo stream (default: 0)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--quick", action="store_true",
                   help="cut sample counts (intervals widen to match)")
    return parser


def _resolve_scenario(spec):
    if spec is None:
        return scenario.bundled_scenario()
    if os.path.exists(spec):
        return scenario.load_scenario(spec)
    return scenario.bundled_scenario(spec)


def _dispatch(cfg, args, outdir):
    if args.command == "metrics-sweep":
        return EXIT_OK, cmd_metrics_sweep(cfg, args.figure, outdir)
    if args.command == "rate-vs-power":
        return EXIT_OK, cmd_rate_vs_power(cfg, args.mode, outdir)
    if args.command == "optimize":
        return cmd_optimize(cfg, args.mode, outdir, kappa=args.kappa)
    return cmd_validate(cfg, outdir, seed=args.seed, samples=args.samples,
                        quick=args.quick)


def main(argv=None):
    start = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve_scenario(args.scenario)
        outdir = args.out or os.path.join("runs", args.command)
        os.makedirs(outdir, exist_ok=True)
    except (UsageError, scenario.ScenarioError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        code, files = _dispatch(cfg, args, outdir)
    except (beamform.CovertBudgetError, trajectory.TrajectoryError,
            np.linalg.LinAlgError) as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZATION
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    manifest = RunManifest(command=args.command,
                           scenario=args.scenario or "paper_default",
                           seed=getattr(args, "seed", None), outdir=outdir,
                           files=tuple(files),
                           wall_time_s=time.perf_counter() - start)
    manifest.write(os.path.join(outdir, "manifest.json"))
    print(f"wrote {len(files)} file(s) + manifest.json under {outdir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
