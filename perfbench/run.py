"""covertuav benchmark: one seeded workload, timed, traced on request, checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 30 --trace 0

The inputs are generated from --seed (gen.py). The workload itself runs in
one worker process (worker.py) with the BLAS thread count pinned; set-up is
timed in that process and in short set-up-only processes before and after
it, so that the samples span the run.
Lines before the last describe the run; the last line of standard output is
the JSON result. The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the benchmark could not run.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("frontier", "baselines", "validate")
SETUP_PROBES = 2            # set-up-only processes before and again after
BLAS_THREADS = "1"          # pinned on every commit; at most nproc
RUN_TIMEOUT_S = 170         # all worker processes of one run together
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_s": "s"}
# wall times and the speed reference behind op_s, printed for reading
PARTS = ("op_wall_s", "setup_wall_s", "sweep_s", "point_s", "sotfb_s", "h0_s", "validate_s",
         "ref_s")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def checkout_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "covertuav",
                                       "__init__.py")):
        fail("run from the root of a covertuav checkout "
             "(src/covertuav not found)")
    return root


def worker_env(root):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv, env, result_path, deadline):
    """Run one worker process to completion and return its result dict."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv,
           "--result", result_path]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(argv)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def source_digest(root):
    """sha256 over the package's source and data files, in path order."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "covertuav")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".yaml")):
                path = os.path.join(d, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, worker_record):
    sha = git_sha(root)
    # an exported source tree has no git SHA; its digest names the code then
    source = {"git_sha": sha} if sha else {"src_sha256": source_digest(root)}
    return {**source,
            "machine": f"{platform.machine()} {platform.platform()}",
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "blas_threads": int(BLAS_THREADS), **worker_record}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = checkout_root()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, ".lock"), "w") as lock:
        # one workload at a time: concurrent planners distort every timing
        fcntl.flock(lock, fcntl.LOCK_EX)
        rundir = os.path.join(runs, f"{args.workload}-s{args.seed}"
                                    f"-t{args.trace}")
        shutil.rmtree(rundir, ignore_errors=True)
        inputs = gen.write_inputs(args.workload, args.seed, root,
                                  os.path.join(rundir, "inputs"))
        inputs_path = os.path.join(rundir, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        env = worker_env(root)
        common = ["--workload", args.workload, "--inputs", inputs_path,
                  "--outdir", os.path.join(rundir, "out"),
                  "--seconds", str(args.seconds)]
        probes = SETUP_PROBES if not args.trace else 0

        def setup_probes(tag):
            return [run_worker([*common, "--setup-only"], env,
                               os.path.join(rundir, f"setup-{tag}{i}.json"),
                               deadline) for i in range(probes)]

        before = setup_probes("before")
        res = run_worker([*common, "--trace", str(args.trace)], env,
                         os.path.join(rundir, "worker.json"), deadline)
        setups = [*before, res, *setup_probes("after")]

    res["environment"] = environment(root, res["environment"])
    res["setup_samples_s"] = [r["setup_s"] for r in setups]
    res["setup_wall_samples_s"] = [r["setup_wall_s"] for r in setups]
    res["e2e"]["setup_wall_s"] = statistics.median(
        res["setup_wall_samples_s"])
    failed = len(res["failures"])
    if args.trace:
        metrics = res["layers"]
    else:
        values = {"setup_s": statistics.median(res["setup_samples_s"]),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "op_s": res["e2e"]["op_s"]}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
    out = {"correct": failed == 0, "attempted": res["ops"], "failed": failed,
           "metrics": metrics}
    with open(os.path.join(rundir, "result.json"), "w") as fh:
        json.dump({**res, "result": out}, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  inputs "
          f"{json.dumps({k: os.path.relpath(v, root) for k, v in inputs.items()})}")
    print(f"environment {json.dumps(res['environment'], sort_keys=True)}")
    for name in PARTS:
        if name in res["e2e"]:
            print(f"  {name:<28} {res['e2e'][name]:12.6g} s")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:12.6g} {m['unit']}")
    print(f"  {'failed_frac':<28} {failed / res['ops']:12.6g} ratio "
          f"(ops {res['ops']})")
    for f in res["failures"]:
        print(f"  FAILED op {f['op']}: {'; '.join(f['problems'])}")
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
