"""Tests of the benchmark itself: tracer arithmetic, input generator, op checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import collections
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from covertuav import cli, orchestrator, scenario, trajectory  # noqa: E402


# -- tracer ----------------------------------------------------------------------


def test_self_time_of_a_synthetic_nest():
    spans = [("orchestrator.run_bcd", 0.0, 10.0, -1, 1),
             ("trajectory.sca_trajectory", 1.0, 4.0, 0, 1),
             ("trajectory.solve_subproblem", 2.0, 3.0, 1, 1),
             ("beamform.bsa_optimize", 5.0, 9.0, 0, 1),
             ("kernels.slot_rate_curve", 6.0, 7.0, 3, 1),
             ("kernels.slot_rate_curve", 6.5, 8.0, 3, 1)]   # overlaps
    assert tracer.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 2.0, 1.0, 1.5])
    records = [{"op_s": 10.0, "bytes": 0}, {"op_s": 12.0, "bytes": 0}]
    got = layers.per_layer(records, spans, collections.Counter(), 10.0)
    per_op = {"orchestrator": 3.0, "trajectory": 3.0, "beamform": 2.0,
              "kernels": 2.5, "cli": 0.0}
    for layer, total in per_op.items():
        assert got[f"{layer}.self_s"]["value"] == pytest.approx(total / 2)
    assert got["trajectory.subproblem_s"]["value"] == pytest.approx(0.5)
    assert got["kernels.calls"]["value"] == 1.0
    assert got["trace.overhead_frac"]["value"] == pytest.approx(0.1)


def test_tracer_records_nested_spans_and_restores_the_program():
    cfg = scenario.bundled_scenario()
    original = trajectory.rebuild_from_accels
    rec = tracer.Tracer()
    rec.install()
    try:
        assert trajectory.rebuild_from_accels is not original
        trajectory.initial_plan(cfg)            # inactive: nothing recorded
        assert rec.spans == []
        rec.active = True
        trajectory.initial_plan(cfg)
    finally:
        rec.uninstall()
    assert trajectory.rebuild_from_accels is original
    names = [s[0] for s in rec.spans]
    assert names[0] == "trajectory.initial_plan"
    rebuild = names.index("trajectory.rebuild_from_accels")
    assert rec.spans[rebuild][3] == 0
    assert "channel.squared_horizontal_distance" in names
    assert all(s[2] >= s[1] for s in rec.spans)


# -- generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["frontier", "baselines"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    def files(seed, name):
        paths = gen.write_inputs(workload, seed, ROOT, str(tmp_path / name))
        return {k: open(p, "rb").read() for k, p in paths.items()}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_generated_inputs_respect_their_ranges():
    for seed in range(20):
        kappas = gen.draw_kappas(seed)
        assert kappas == sorted(kappas)
        assert all(gen.KAPPA_LO < k < gen.KAPPA_HI for k in kappas)
        cfg = scenario.scenario_from_dict(
            gen.baseline_scenario(seed, _paper_default()))
        assert cfg.n_slots == gen.BASELINE_SLOTS and cfg.delta_t == 1.0


def _paper_default():
    import yaml
    path = os.path.join(ROOT, "src", "covertuav", "data",
                        "paper_default.yaml")
    with open(path) as fh:
        return yaml.safe_load(fh)


# -- speed reference -------------------------------------------------------------


def test_speed_probe_samples_during_the_block_and_then_stops():
    before = signal.getsignal(signal.SIGALRM)
    with worker.SpeedProbe(interval=0.05) as probe:
        end = time.perf_counter() + 10.0
        while len(probe.samples) < 3 and time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 3          # the one-shot timer re-arms
    assert all(s > 0 for s in probe.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_op_s_is_the_mean_wall_time_scaled_by_the_mean_reference():
    records = [{"op_s": 3.0, "ref_s": [0.05, 0.10]},
               {"op_s": 5.0, "ref_s": [0.45]}]
    e2e = worker.end_to_end(records, setup_ref_s=0.20)
    assert e2e["ref_s"] == pytest.approx(0.20)
    assert e2e["op_wall_s"] == pytest.approx(4.0)
    assert e2e["op_s"] == pytest.approx(4.0 * worker.REFERENCE_S / 0.20)
    # operations too short for a sample fall back on the set-up's reference
    e2e = worker.end_to_end([{"op_s": 3.0, "ref_s": []}], setup_ref_s=0.20)
    assert e2e["op_s"] == pytest.approx(3.0 * worker.REFERENCE_S / 0.20)


# -- op checks -------------------------------------------------------------------


class _Checked:
    """A workload whose operation is already done; only its check runs."""

    def __init__(self, check):
        self.check = lambda rec: check()

    def run(self):
        return {"op_s": 0.0}


def _failed_ops(check):
    records = worker.measure(_Checked(check), seconds=0.0)
    return sum(1 for r in records if r["problems"])


@pytest.fixture(scope="module")
def short_optimize(tmp_path_factory):
    """An ``optimize --mode h0`` run on a 20-slot scenario."""
    tmp = tmp_path_factory.mktemp("optimize")
    scen = dict(_paper_default(), n_slots=20)
    path = tmp / "scenario.yaml"
    path.write_text(gen.dump_flat_yaml(scen))
    out = tmp / "out"
    code = worker._quiet(cli.main, ["optimize", "--mode", "h0", "--scenario",
                                    str(path), "--out", str(out)])
    return scen, out, code


def _tamper(path, column, value, row=5):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = str(value)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_optimize_artifacts_pass_then_fail_when_tampered(short_optimize):
    scen, out, code = short_optimize

    def check():
        return checks.check_optimize(str(out), scen, code)

    assert check() == []
    assert _failed_ops(check) == 0
    _tamper(out / "trajectory.csv", "speed", scen["v_max_mps"] + 1e-3)
    assert any("speed" in p for p in check())
    assert _failed_ops(check) == 1


def test_manifest_must_list_exactly_the_files(short_optimize):
    scen, out, code = short_optimize
    (out / "stray.csv").write_text("x\n")
    try:
        assert checks.check_manifest(str(out))
    finally:
        (out / "stray.csv").unlink()


def test_validate_report_with_a_fail_line_is_a_failed_op(tmp_path):
    out = str(tmp_path / "validate")
    code = worker._quiet(cli.main, ["validate", "--quick", "--seed", "0",
                                    "--out", out])
    assert _failed_ops(lambda: checks.check_validate(out, code)) == 0
    report = os.path.join(out, "report.txt")
    with open(report) as fh:
        lines = fh.read().splitlines()
    lines[0] = "FAIL" + lines[0][len("PASS"):]
    with open(report, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert _failed_ops(lambda: checks.check_validate(out, code)) == 1
    assert checks.check_validate(out, 3)


def test_stationarity_certificate_rejects_a_one_round_plan():
    cfg = scenario.bundled_scenario()
    trace = orchestrator.run_bcd(cfg, max_iters=1)
    gain = checks.stationarity_gain(cfg, trace.plan, trace.q_c)
    assert gain >= cfg.bcd_tol
    problems, _ = checks.check_bcd_point(cfg, trace)
    assert any("not stationary" in p for p in problems)


def test_dominated_rows_follow_criterion_10():
    rows = [orchestrator.ParetoRow(kappa=0.2, phi_s=1.0, phi_c=2.0),
            orchestrator.ParetoRow(kappa=0.5, phi_s=2.0, phi_c=1.0),
            orchestrator.ParetoRow(kappa=0.8, phi_s=1.5, phi_c=0.5)]
    assert checks.dominated(rows) == [0.8]
    assert checks.check_sweep(rows[:2], [0.2, 0.5]) == []
