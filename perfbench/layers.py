"""Per-layer metrics of a traced run: span self times plus counters.

Every value is per operation unless its name says it is a ratio or a rate.
See README.md for the end-to-end metric and workload each one should move.
"""

import collections
import statistics

import numpy as np

import tracer

RUNNERS = ("orchestrator.run_bcd", "orchestrator.run_h0_benchmark",
           "orchestrator.run_sotfb")
ESTIMATORS = ("estimate_scp_h0", "estimate_scp_h1", "estimate_sop_h0",
              "estimate_sop_h1", "estimate_ccp", "mc_scp_h1")


def _arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _bsa(c, args, kwargs, res):
    c["bsa_calls"] += 1
    c["bsa_evals"] += res.evaluations
    c["bsa_iters"] += res.iterations
    c["bsa_nonunimodal"] += not res.unimodal


def _sca(c, args, kwargs, res):
    c["sca_iters"] += res.iterations
    c["sca_accepted"] += len(res.objectives) - 1


def _rate(c, args, kwargs, res):
    c["rate_points"] += np.size(_arg(args, kwargs, "q_c"))


def _radiometer(c, args, kwargs, res):
    c["radiometer_draws"] += np.size(_arg(args, kwargs, "draws"))


def _runner(c, args, kwargs, res):
    c["rounds"] += res.iterations
    c["objective_sum"] += res.objective
    c["runs"] += 1


def _estimate(c, args, kwargs, res):
    c["mc_samples"] += res.n_samples


def _dep(c, args, kwargs, res):
    c["mc_samples"] += 2 * res[0].n_samples    # one block per hypothesis


HOOKS = {"beamform.bsa_optimize": _bsa,
         "trajectory.sca_trajectory": _sca,
         "kernels.slot_rate_curve": _rate,
         "kernels.radiometer_statistic": _radiometer,
         "mc_oracle.mc_dep": _dep,
         **{name: _runner for name in RUNNERS},
         **{f"mc_oracle.{name}": _estimate for name in ESTIMATORS}}

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists
METRICS = (
    ("trajectory.self_s", "s"), ("trajectory.calls", "count"),
    ("trajectory.subproblem_s", "s"), ("trajectory.subproblem_calls", "count"),
    ("trajectory.sca_iters", "count"), ("trajectory.sca_accept_ratio", "ratio"),
    ("trajectory.blend_tries", "count"),
    ("beamform.self_s", "s"), ("beamform.calls", "count"),
    ("beamform.bsa_evals", "count"), ("beamform.bsa_iters", "count"),
    ("beamform.nonunimodal_frac", "ratio"),
    ("kernels.self_s", "s"), ("kernels.calls", "count"),
    ("kernels.rate_points", "count"), ("kernels.rate_points_per_s", "1/s"),
    ("kernels.radiometer_draws", "count"),
    ("orchestrator.self_s", "s"), ("orchestrator.rounds", "count"),
    ("orchestrator.round_s", "s"), ("orchestrator.objective_mean", "bit/use"),
    ("mc_oracle.self_s", "s"), ("mc_oracle.samples", "count"),
    ("mc_oracle.samples_per_s", "1/s"),
    ("secmetrics.self_s", "s"), ("secmetrics.calls", "count"),
    ("secmetrics.sop_h1_max", "prob"),
    ("channel.self_s", "s"), ("scenario.self_s", "s"),
    ("cli.self_s", "s"), ("io.write_s", "s"), ("io.bytes", "byte"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(records, spans, counters, untraced_op_s):
    """Per-layer metrics of the traced operations `records`."""
    n = len(records)
    own = tracer.self_times(spans)
    self_s = collections.defaultdict(float)
    calls = collections.Counter()
    inclusive = collections.defaultdict(float)
    blend_tries = io_write = mc_outer = 0.0
    for (name, start, end, parent, _), own_s in zip(spans, own):
        layer, func = name.split(".", 1)
        self_s[layer] += own_s
        calls[layer] += 1
        inclusive[name] += end - start
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "trajectory.rebuild_from_accels" \
                and parent_name == "trajectory.sca_trajectory":
            blend_tries += 1
        if func.startswith("write_"):
            io_write += own_s
        if layer == "mc_oracle" and not parent_name.startswith("mc_oracle."):
            mc_outer += end - start
    c = counters
    traced_op_s = statistics.fmean(r["op_s"] for r in records)
    values = {
        "trajectory.subproblem_s":
            inclusive["trajectory.solve_subproblem"] / n,
        "trajectory.subproblem_calls":
            sum(1 for s in spans if s[0] == "trajectory.solve_subproblem") / n,
        "trajectory.sca_iters": c["sca_iters"] / n,
        "trajectory.sca_accept_ratio": _ratio(c["sca_accepted"],
                                              c["sca_iters"]),
        "trajectory.blend_tries": blend_tries / n,
        "beamform.bsa_evals": c["bsa_evals"] / n,
        "beamform.bsa_iters": c["bsa_iters"] / n,
        "beamform.nonunimodal_frac": _ratio(c["bsa_nonunimodal"],
                                            c["bsa_calls"]),
        "kernels.rate_points": c["rate_points"] / n,
        "kernels.rate_points_per_s": _ratio(
            c["rate_points"], inclusive["kernels.slot_rate_curve"]),
        "kernels.radiometer_draws": c["radiometer_draws"] / n,
        "orchestrator.rounds": c["rounds"] / n,
        "orchestrator.round_s": _ratio(sum(inclusive[r] for r in RUNNERS),
                                       c["rounds"]),
        "orchestrator.objective_mean": _ratio(c["objective_sum"], c["runs"]),
        "mc_oracle.samples": c["mc_samples"] / n,
        "mc_oracle.samples_per_s": _ratio(c["mc_samples"], mc_outer),
        "secmetrics.sop_h1_max": max(r.get("sop_h1_max", 0.0)
                                     for r in records),
        "io.write_s": io_write / n,
        "io.bytes": statistics.mean(r["bytes"] for r in records),
        "trace.overhead_frac": traced_op_s / untraced_op_s - 1.0,
    }
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = self_s[layer] / n
        values[f"{layer}.calls"] = calls[layer] / n
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in METRICS}
