"""One benchmark workload in one process: set-up, timed operations, checks.

Started by run.py with the BLAS thread count already pinned in the
environment; writes one JSON result file, which run.py reads. Usage:

    python3 perfbench/worker.py --workload frontier --inputs DIR --outdir DIR
        --seconds 30 --trace 0 --result FILE [--setup-only]
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

T_START = time.perf_counter()

import tracer  # noqa: E402  (stdlib only; keeps the set-up clock honest)

# Median reference_s() on a 2-core x86_64 VM (OpenBLAS on one thread) in
# its fast periods. Times are scaled by REFERENCE_S / reference_s().
REFERENCE_S = 0.0195
PROBE_INTERVAL_S = 1.0      # reference_s() once a second during operations
SETUP_REFERENCES = 9        # reference_s() samples after set-up

_ref_arrays = None


def reference_s():
    """Seconds of one pass of a fixed mix of matrix products, draws and a loop.

    The mix stands for the program's own work: linear algebra in the
    planner, random draws and elementwise math in the oracle and kernels,
    interpreted loops around them. It uses no code of the program, and it
    writes into arrays allocated once per process, so neither the program's
    code nor the state it leaves in the allocator moves it.
    """
    global _ref_arrays
    import numpy as np
    if _ref_arrays is None:
        rng = np.random.default_rng(1)
        a = rng.standard_normal((200, 200))
        _ref_arrays = (rng, a, np.empty_like(a), np.empty(25_000),
                       np.empty(25_000))
    rng, a, c, x, y = _ref_arrays
    t0 = time.perf_counter()
    for _ in range(15):
        np.matmul(a, a, out=c)
    for _ in range(12):
        rng.standard_normal(out=x)
        np.multiply(x, x, out=y)
        np.log1p(y, out=y)
        y.sum()
    acc = 0.0
    for i in range(100_000):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples reference_s() from a timer signal while the block runs.

    The handler runs in the main thread between bytecodes, so it measures
    the speed the operation itself gets at that moment, on its own CPU. The
    timer is one-shot and re-armed after each sample, so a slow sample never
    runs into the next.
    """

    def __init__(self, interval=PROBE_INTERVAL_S):
        self.interval, self.samples, self.active = interval, [], False

    def _sample(self, signum, frame):
        if self.active:
            self.samples.append(reference_s())
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _setup(workload, inputs):
    """Import the package, load the scenario and plan the first path.

    Returns (cfg, scenario file dict or None, seconds since process start).
    """
    from covertuav import scenario, trajectory
    import covertuav.cli  # noqa: F401  (the CLI imports every layer)
    scen = None
    if workload == "baselines":
        import yaml
        path = inputs["scenario"]
        cfg = scenario.load_scenario(path)
        with open(path) as fh:
            scen = yaml.safe_load(fh)
    else:
        cfg = scenario.bundled_scenario()
    trajectory.initial_plan(cfg)
    return cfg, scen, time.perf_counter() - T_START


def _quiet(fn, *args):
    """Call fn with the program's standard output kept out of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


class Frontier:
    """``orchestrator.pareto_sweep`` on paper_default over seeded weights.

    pareto_sweep returns only the frontier table, so this process's
    ``orchestrator.run_bcd`` is wrapped to keep each weight point's
    BcdTrace, scenario and wall time for the checks and ``point_s``.
    """

    def __init__(self, cfg, scen, inputs, outdir):
        from covertuav import orchestrator
        import checks
        with open(inputs["kappas"]) as fh:
            self.kappas = json.load(fh)
        self.cfg, self.orch, self.checks = cfg, orchestrator, checks
        self.points = []
        run_bcd = orchestrator.run_bcd

        def capture(alt, *args, **kwargs):
            start = time.perf_counter()
            trace = run_bcd(alt, *args, **kwargs)
            self.points.append((alt, trace, time.perf_counter() - start))
            return trace

        orchestrator.run_bcd = capture

    def run(self):
        self.points = []
        start = time.perf_counter()
        rows = self.orch.pareto_sweep(self.cfg, self.kappas)
        op_s = time.perf_counter() - start
        return {"op_s": op_s, "sweep_s": op_s,
                "point_s": [p[2] for p in self.points], "bytes": 0,
                "rows": rows, "points": self.points}

    def check(self, rec):
        problems = self.checks.check_sweep(rec.pop("rows"), self.kappas)
        if len(rec["points"]) != len(self.kappas):
            problems.append("sweep ran a different number of points")
        sop, gains = [0.0], [0.0]
        for alt, trace, _ in rec.pop("points"):
            found, gain = self.checks.check_bcd_point(alt, trace)
            problems += [f"kappa {alt.kappa}: {p}" for p in found]
            sop.append(self.checks.sop_h1_max(alt, trace))
            gains.append(gain)
        rec["sop_h1_max"], rec["certificate_gain"] = max(sop), max(gains)
        return problems


class Baselines:
    """``covertuav optimize --mode sotfb`` then ``--mode h0`` via cli.main."""

    MODES = ("sotfb", "h0")

    def __init__(self, cfg, scen, inputs, outdir):
        from covertuav import cli
        import checks
        self.cli, self.checks, self.scen = cli, checks, scen
        self.scenario_path = inputs["scenario"]
        self.outdirs = {m: os.path.join(outdir, m) for m in self.MODES}

    def run(self):
        rec = {"op_s": 0.0, "codes": {}, "bytes": 0}
        for mode in self.MODES:
            argv = ["optimize", "--mode", mode, "--scenario",
                    self.scenario_path, "--out", _fresh(self.outdirs[mode])]
            start = time.perf_counter()
            rec["codes"][mode] = _quiet(self.cli.main, argv)
            rec[f"{mode}_s"] = time.perf_counter() - start
            rec["op_s"] += rec[f"{mode}_s"]
            rec["bytes"] += self.checks.tree_bytes(self.outdirs[mode])
        return rec

    def check(self, rec):
        return [f"{mode}: {p}" for mode in self.MODES
                for p in self.checks.check_optimize(
                    self.outdirs[mode], self.scen, rec["codes"][mode])]


class Validate:
    """``covertuav validate --samples N --seed S`` via cli.main."""

    def __init__(self, cfg, scen, inputs, outdir):
        from covertuav import cli
        import checks
        import gen
        self.cli, self.checks = cli, checks
        self.outdir = os.path.join(outdir, "validate")
        self.argv = ["validate", "--samples", str(gen.VALIDATE_SAMPLES),
                     "--seed", str(gen.VALIDATE_SEED), "--out", self.outdir]

    def run(self):
        _fresh(self.outdir)
        start = time.perf_counter()
        code = _quiet(self.cli.main, self.argv)
        op_s = time.perf_counter() - start
        return {"op_s": op_s, "validate_s": op_s, "code": code,
                "bytes": self.checks.tree_bytes(self.outdir)}

    def check(self, rec):
        return self.checks.check_validate(self.outdir, rec["code"])


WORKLOADS = {"frontier": Frontier, "baselines": Baselines,
             "validate": Validate}


def measure(work, seconds, first_op=0):
    """Run and check operations until the next one would overrun seconds.

    At least one operation runs, so a workload whose operation outlasts
    `seconds` measures exactly one. Each record keeps the reference samples
    a SpeedProbe took during its operation. Checks are not timed but count
    against the budget.
    """
    records, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with SpeedProbe() as probe:
            rec = work.run()
        rec["ref_s"] = probe.samples
        rec["op"] = first_op + len(records)
        try:
            rec["problems"] = work.check(rec)
        except Exception as exc:  # a crashing check is a failed check
            rec["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
        rec["wall_s"] = time.perf_counter() - t0
        records.append(rec)
        typical = statistics.median(r["wall_s"] for r in records)
        if time.perf_counter() - start + typical > seconds:
            return records


def traced_run(work, seconds, first_op, untraced_op_s, outdir):
    """Measure again with every layer traced; return (records, metrics).

    The spans are written to outdir/spans.csv.gz.
    """
    import layers
    rec = tracer.Tracer(hooks=layers.HOOKS)
    rec.install()
    rec.op = first_op - 1
    untraced = work.run

    def run():
        rec.op += 1
        rec.active = True
        try:
            return untraced()
        finally:
            rec.active = False

    work.run = run
    try:
        records = measure(work, seconds, first_op)
    finally:
        rec.uninstall()
        del work.run
    tracer.write_spans(os.path.join(outdir, "spans.csv.gz"), rec.spans)
    return records, layers.per_layer(records, rec.spans, rec.counters,
                                     untraced_op_s)


def _median(records, key):
    values = []
    for r in records:
        v = r.get(key)
        if v is not None:
            values.extend(v if isinstance(v, list) else [v])
    return statistics.median(values) if values else None


def end_to_end(records, setup_ref_s):
    """The user-visible times of the run's operations.

    op_wall_s is the mean wall time of an operation, and op_s that time
    scaled to the reference speed by the mean of the reference samples
    taken during the operations (the set-up's, if none was). The others are
    medians of wall times. Means move smoothly with the share of the run
    spent in a slow period of the machine, where medians jump between the
    fast and the slow figure.
    """
    keys = ("sweep_s", "point_s", "sotfb_s", "h0_s", "validate_s")
    out = {k: _median(records, k) for k in keys}
    samples = [x for r in records for x in r["ref_s"]]
    out["ref_s"] = statistics.fmean(samples) if samples else setup_ref_s
    out["op_wall_s"] = statistics.fmean(r["op_s"] for r in records)
    out["op_s"] = out["op_wall_s"] * REFERENCE_S / out["ref_s"]
    return {k: v for k, v in out.items() if v is not None}


def environment():
    """Library versions, BLAS and kernel backend of this process."""
    import numpy
    import scipy
    from covertuav import kernels
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "kernel_backend": kernels.active_backend()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.inputs) as fh:
        inputs = json.load(fh)

    cfg, scen, setup_s = _setup(args.workload, inputs)
    ref_s = statistics.median(reference_s() for _ in range(SETUP_REFERENCES))
    result = {"setup_s": setup_s * REFERENCE_S / ref_s,
              "setup_wall_s": setup_s, "setup_ref_s": ref_s}
    if not args.setup_only:
        os.makedirs(args.outdir, exist_ok=True)
        work = WORKLOADS[args.workload](cfg, scen, inputs, args.outdir)
        records = measure(work, args.seconds)
        result["e2e"] = end_to_end(records, ref_s)
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        if args.trace:
            traced, layer_metrics = traced_run(work, args.seconds,
                                               len(records),
                                               result["e2e"]["op_wall_s"],
                                               args.outdir)
            result["layers"] = layer_metrics
            records += traced
        result["ops"] = len(records)
        result["op_s"] = [r["op_s"] for r in records]
        result["ref_s"] = [x for r in records for x in r["ref_s"]]
        result["certificate_gain"] = [r["certificate_gain"] for r in records
                                      if "certificate_gain" in r]
        result["failures"] = [{"op": r["op"], "problems": r["problems"]}
                              for r in records if r["problems"]]
        result["environment"] = environment()
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
