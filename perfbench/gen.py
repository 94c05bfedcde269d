"""Seeded input generator for the benchmark workloads.

Everything the program under test receives is made here from the workload
seed: the weight list of the ``frontier`` sweep and the scenario YAML of the
``baselines`` runs. Draws come from Python's ``random.Random`` and values are
written as JSON, so one seed gives byte-identical files on any machine and
any numpy version.
"""

import json
import math
import os
import random

import yaml

# frontier: weights drawn from (KAPPA_LO, KAPPA_HI), one per equal-width
# stratum so that every seed spreads its points over the whole frontier
KAPPA_LO, KAPPA_HI = 0.05, 0.95
N_KAPPAS = 3

# baselines: paper_default stretched to twice the horizon at the same slot
# length, with the three ground nodes moved by up to JITTER_M per axis. A
# draw that brings the adversary more than MIN_LEAK_GAP_M closer to the
# secret user is redrawn: the covert-silent (H0) secret rate is 1.0 bit/use
# on paper_default, 0.68 at 10 m closer and 0 at 40 m closer, where the H0
# run degenerates to a single trivial round.
BASELINE_SLOTS = 260
JITTER_M = 10.0
MIN_LEAK_GAP_M = 10.0
JITTERED = ("l_b_m", "l_c_m", "l_w_m")

# validate: the sample count of every Monte Carlo row and the seed the
# program draws with (see README.md for why it is fixed)
VALIDATE_SAMPLES = 1_000_000
VALIDATE_SEED = 0


def draw_kappas(seed):
    """Ascending weights, one uniform draw inside each stratum.

    Draws stay 2 % of a stratum away from its edges, so that rounding to
    four decimals keeps every weight strictly inside (KAPPA_LO, KAPPA_HI).
    """
    rng = random.Random(f"frontier/{seed}")
    width = (KAPPA_HI - KAPPA_LO) / N_KAPPAS
    return [round(KAPPA_LO + width * (i + rng.uniform(0.02, 0.98)), 4)
            for i in range(N_KAPPAS)]


def baseline_scenario(seed, base):
    """The baselines scenario as a flat dict of file-format keys."""
    rng = random.Random(f"baselines/{seed}")
    d = dict(base)
    slot_s = float(base["t_s"]) / int(base["n_slots"])
    d["name"] = f"baselines_s{seed}"
    d["n_slots"] = BASELINE_SLOTS
    d["t_s"] = BASELINE_SLOTS * slot_s
    while True:
        for key in JITTERED:
            x, y = base[key]
            d[key] = [round(float(x) + rng.uniform(-JITTER_M, JITTER_M), 3),
                      round(float(y) + rng.uniform(-JITTER_M, JITTER_M), 3)]
        if _dist(d["l_b_m"], d["l_w_m"]) \
                >= _dist(base["l_b_m"], base["l_w_m"]) - MIN_LEAK_GAP_M:
            return d


def _dist(a, b):
    return math.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1]))


def dump_flat_yaml(d):
    """Flat mapping as YAML text: sorted keys, JSON-formatted values."""
    return "".join(f"{key}: {json.dumps(d[key])}\n" for key in sorted(d))


def write_inputs(workload, seed, root, outdir):
    """Write the inputs of one workload run under outdir; return their paths.

    root is the checkout holding src/covertuav; the baselines scenario
    starts from its bundled paper_default.yaml.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    if workload == "frontier":
        paths["kappas"] = os.path.join(outdir, "kappas.json")
        with open(paths["kappas"], "w") as fh:
            fh.write(json.dumps(draw_kappas(seed)) + "\n")
    elif workload == "baselines":
        base_path = os.path.join(root, "src", "covertuav", "data",
                                 "paper_default.yaml")
        with open(base_path) as fh:
            base = yaml.safe_load(fh)
        paths["scenario"] = os.path.join(outdir, "scenario.yaml")
        with open(paths["scenario"], "w") as fh:
            fh.write(dump_flat_yaml(baseline_scenario(seed, base)))
    elif workload != "validate":
        raise ValueError(f"unknown workload {workload!r}")
    return paths
