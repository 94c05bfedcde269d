"""End-to-end command-line runs against temp output directories."""

import json
import math
import os

import numpy as np
import pytest

from covertuav import beamform, channel, cli, trajectory


def _load(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def _manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# flag plumbing


def test_sweep_spec_rejects_empty_range():
    with pytest.raises(cli.UsageError, match="at least one point"):
        cli.SweepSpec(0.0, 1.0, 0)


def test_sweep_spec_rejects_reversed_bounds():
    with pytest.raises(cli.UsageError, match="precede"):
        cli.SweepSpec(2.0, 1.0, 5)


def test_sweep_spec_rejects_nonfinite_bounds():
    with pytest.raises(cli.UsageError, match="finite"):
        cli.SweepSpec(0.0, float("inf"), 5)


def test_sweep_spec_grid_is_inclusive():
    vals = cli.SweepSpec(1.0, 3.0, 5).values()
    assert vals[0] == 1.0 and vals[-1] == 3.0 and len(vals) == 5


def test_default_sweep_unknown_figure(cfg):
    with pytest.raises(cli.UsageError, match="unknown figure"):
        cli.default_sweep("snr", cfg)


def test_bad_figure_flag_exits_with_config_error(tmp_path, capsys):
    rc = cli.main(["metrics-sweep", "--figure", "snr",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_unknown_scenario_exits_with_config_error(tmp_path, capsys):
    rc = cli.main(["validate", "--scenario", "no_such_bundle",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


def test_out_of_range_weight_exits_with_config_error(tmp_path):
    rc = cli.main(["optimize", "--mode", "h0", "--kappa", "1.5",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


def test_default_outdir_is_named_after_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["rate-vs-power", "--mode", "h1"])
    assert rc == cli.EXIT_OK
    assert os.path.exists(
        os.path.join("runs", "rate-vs-power", "manifest.json"))


# ---------------------------------------------------------------------------
# metric curves


def test_connection_curves(cfg, tmp_path):
    rc = cli.main(["metrics-sweep", "--figure", "scp", "--out",
                   str(tmp_path)])
    assert rc == cli.EXIT_OK
    manifest = _manifest(str(tmp_path))
    assert set(manifest["files"]) == {
        "scp_h0_n2.csv", "scp_h1_n2.csv", "scp_h0_n4.csv", "scp_h1_n4.csv"}
    for name in manifest["files"]:
        arr = _load(tmp_path / name)
        assert arr.dtype.names == ("r_t", "scp")
        scp = arr["scp"]
        assert scp[0] == pytest.approx(1.0, abs=1e-9)
        assert scp[-1] < 1e-3
        assert np.all(np.diff(scp) <= 1e-12)
    # more antennas concentrate more power: the curve shifts right
    low = _load(tmp_path / "scp_h0_n2.csv")["scp"]
    high = _load(tmp_path / "scp_h0_n4.csv")["scp"]
    assert np.all(high >= low - 1e-12)


def test_outage_curves(cfg, tmp_path):
    rc = cli.main(["metrics-sweep", "--figure", "sop", "--out",
                   str(tmp_path)])
    assert rc == cli.EXIT_OK
    for name in _manifest(str(tmp_path))["files"]:
        arr = _load(tmp_path / name)
        assert arr.dtype.names == ("r_w", "sop")
        sop = arr["sop"]
        assert np.all((sop >= 0) & (sop <= 1))
        assert np.all(np.diff(sop) <= 1e-12)
        assert sop[-1] < 0.05


def test_covert_connection_curves(cfg, tmp_path):
    rc = cli.main(["metrics-sweep", "--figure", "ccp", "--out",
                   str(tmp_path)])
    assert rc == cli.EXIT_OK
    files = _manifest(str(tmp_path))["files"]
    assert set(files) == {"ccp_n2.csv", "ccp_n4.csv"}
    for name in files:
        arr = _load(tmp_path / name)
        assert arr.dtype.names == ("r_c", "ccp")
        assert np.all(np.diff(arr["ccp"]) <= 1e-12)


def test_detection_curves_are_u_shaped(cfg, tmp_path):
    rc = cli.main(["metrics-sweep", "--figure", "dep", "--out",
                   str(tmp_path)])
    assert rc == cli.EXIT_OK
    files = _manifest(str(tmp_path))["files"]
    assert set(files) == {"dep_m50.csv", "dep_m100.csv"}
    mins = {}
    for name in files:
        arr = _load(tmp_path / name)
        assert arr.dtype.names == ("q_th", "dep")
        pe = arr["dep"]
        i = int(np.argmin(pe))
        assert 0 < i < len(pe) - 1
        assert pe[0] == pytest.approx(1.0, abs=1e-6)
        assert pe[-1] == pytest.approx(1.0, abs=1e-6)
        mins[name] = float(pe[i])
    assert mins["dep_m100.csv"] == pytest.approx(0.9994225781448398,
                                                 rel=1e-9)
    # longer observation windows detect better
    assert mins["dep_m100.csv"] < mins["dep_m50.csv"]


# ---------------------------------------------------------------------------
# rate sweeps


def test_rate_sweep_covert_power(cfg, tmp_path):
    rc = cli.main(["rate-vs-power", "--mode", "h1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    arr = _load(tmp_path / "rate_vs_power_h1.csv")
    assert arr.dtype.names == ("q_c", "rate")
    assert len(arr) == 10_001
    i = int(np.argmax(arr["rate"]))
    plan = trajectory.initial_plan(cfg)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    env = beamform.slot_env(cfg, gains, 0)
    res = beamform.bsa_optimize(env=env, zeta1=cfg.zeta1_w)
    spacing = arr["q_c"][1] - arr["q_c"][0]
    assert abs(arr["q_c"][i] - res.q_c) <= cfg.zeta1_w + spacing
    assert arr["rate"][i] == pytest.approx(res.objective, rel=1e-5)


def test_rate_sweep_secret_power(cfg, tmp_path):
    rc = cli.main(["rate-vs-power", "--mode", "h0", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    arr = _load(tmp_path / "rate_vs_power_h0.csv")
    assert arr.dtype.names == ("q_b", "rate")
    i = int(np.argmax(arr["rate"]))
    assert 0 < i < len(arr) - 1
    assert arr["q_b"][i] == pytest.approx(0.1461, abs=2e-4)
    assert arr["rate"][i] == pytest.approx(2.584222327975583, rel=1e-9)
    # the full-power end of the sweep is the covert-silent slot-0 design
    plan = trajectory.initial_plan(cfg)
    gains = channel.gains_for_positions(cfg, plan.comm_positions)
    assert arr["q_b"][-1] == cfg.q_b_max_w
    env = beamform.slot_env(cfg, gains, 0)
    assert arr["rate"][-1] == beamform.h0_decision(env).rate
    # seeded grid points against the covert-silent rule written out per
    # point in scalar math (the sweep evaluates it as one array call)
    rng = np.random.default_rng(11)
    for i in rng.choice(len(arr), 20, replace=False):
        q_b = float(arr["q_b"][i])
        leak = q_b * env.g_bw / env.sigma_w2
        r_w = math.log2(1.0 - math.log(cfg.eta_s) * leak)
        want = (math.exp(-env.gamma_t * env.sigma_a2 / (q_b * env.c_ba))
                * max(env.r_t - r_w, 0.0))
        assert arr["rate"][i] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_rate_sweep_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["rate-vs-power", "--out", str(out_a)]) == cli.EXIT_OK
    assert cli.main(["rate-vs-power", "--out", str(out_b)]) == cli.EXIT_OK
    a = (out_a / "rate_vs_power_h1.csv").read_bytes()
    b = (out_b / "rate_vs_power_h1.csv").read_bytes()
    assert a == b


# ---------------------------------------------------------------------------
# optimize


def test_optimize_without_covert_user(cfg, tmp_path, capsys):
    rc = cli.main(["optimize", "--mode", "h0", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    manifest = _manifest(str(tmp_path))
    assert set(manifest["files"]) == {"trace.csv", "beamformers.csv",
                                      "trajectory.csv", "config.yaml"}
    for name in manifest["files"]:
        assert os.path.exists(tmp_path / name)
    beam = _load(tmp_path / "beamformers.csv")
    assert np.all(beam["q_c"] == 0.0)
    assert np.all(beam["ccp"] == 0.0)
    assert len(beam) == cfg.n_slots
    out = capsys.readouterr().out
    assert "objective" in out and "manifest.json" in out


def test_optimize_fixed_beamformer_pins_covert_power(cfg, tmp_path):
    rc = cli.main(["optimize", "--mode", "sotfb", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    beam = _load(tmp_path / "beamformers.csv")
    assert np.all(beam["q_c"] == beam["q_c"][0])
    assert beam["q_c"][0] > 0


@pytest.mark.parametrize("mode, steps", [
    ("jotb", "refinement iterations"), ("sotfb", "refinement iterations"),
    ("h0", "refinement iterations")])
def test_optimize_names_what_it_counts(cfg, mode, steps, tmp_path, capsys):
    """Every mode is one refinement loop and reports its iterations. The
    returned file list is what landed on disk."""
    code, files = cli.cmd_optimize(cfg, mode, str(tmp_path), max_iters=1)
    assert code == cli.EXIT_OK
    assert f"after 1 {steps} " in capsys.readouterr().out
    assert sorted(files) == sorted(os.listdir(tmp_path))


@pytest.mark.parametrize("mode", ["jotb", "sotfb", "h0"])
def test_optimize_failure_names_the_block_and_keeps_artifacts(
        mode, tmp_path, monkeypatch, capsys):
    """A trajectory block that raises ends every mode with exit code 2, an
    error naming the round and block, and the run's artifacts on disk."""
    def fail(*args, **kwargs):
        raise trajectory.TrajectoryError("injected")

    monkeypatch.setattr(trajectory, "solve_subproblem", fail)
    rc = cli.main(["optimize", "--mode", mode, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OPTIMIZATION
    assert "round 1, trajectory block" in capsys.readouterr().err
    for name in ("trajectory.csv", "trace.csv", "manifest.json"):
        assert os.path.exists(tmp_path / name)


# ---------------------------------------------------------------------------
# validate


def test_validate_quick_passes(cfg, tmp_path, capsys):
    rc = cli.main(["validate", "--quick", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    report = (tmp_path / "report.txt").read_text()
    lines = report.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "6/6 checks passed"
    assert os.path.exists(tmp_path / "agreement.csv")
    manifest = _manifest(str(tmp_path))
    assert set(manifest["files"]) == {"agreement.csv", "report.txt"}


def test_validate_low_sample_request_is_config_error(tmp_path, capsys):
    rc = cli.main(["validate", "--samples", "100", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert ">= 10000" in capsys.readouterr().err


def test_validate_reports_failures_with_dedicated_exit_code(
        tmp_path, monkeypatch, capsys):
    def stub_agreement(cfg, seed, samples, report):
        report.append((True, "stub"))
        return []

    def stub_pass(*args):
        args[-1].append((True, "stub"))

    def stub_fail(cfg, report):
        report.append((False, "forced failure"))

    monkeypatch.setattr(cli, "_check_agreement", stub_agreement)
    monkeypatch.setattr(cli, "_check_detector_mc", stub_pass)
    monkeypatch.setattr(cli, "_check_threshold_rule", stub_pass)
    monkeypatch.setattr(cli, "_check_covertness", stub_pass)
    monkeypatch.setattr(cli, "_check_monotonicity", stub_pass)
    monkeypatch.setattr(cli, "_check_slot_curve", stub_fail)
    rc = cli.main(["validate", "--quick", "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    report = (tmp_path / "report.txt").read_text()
    assert "FAIL forced failure" in report
    assert "5/6 checks passed" in report
