"""Config loading, unit conversion, and validation behavior."""

import dataclasses
import math
import os

import numpy as np
import pytest
import yaml

from covertuav import scenario
from covertuav.scenario import (
    ScenarioError,
    bundled_scenario,
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    watt_to_dbm,
    with_overrides,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_dbm_to_watt_anchors():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watt(-90.0) == pytest.approx(1e-12, rel=1e-15)


def test_unit_round_trips():
    for dbm in (-90.0, -30.0, 0.0, 17.5, 30.0):
        assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm, abs=1e-12)
    for db in (-10.0, -3.0, 0.0, 3.0, 12.34):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


def test_nonpositive_values_cannot_be_logged():
    with pytest.raises(ScenarioError):
        watt_to_dbm(0.0)
    with pytest.raises(ScenarioError):
        linear_to_db(-1.0)


def test_bundled_default_matches_expected_operating_point():
    c = bundled_scenario()
    assert c.q_b_max_w == pytest.approx(1.0, rel=1e-12)
    assert c.q_c_max_w == pytest.approx(1e-3, rel=1e-12)
    assert c.sigma_a2_w == pytest.approx(1e-12, rel=1e-12)
    assert c.sigma_w2_w == pytest.approx(1e-12, rel=1e-12)
    assert c.lambda0 == pytest.approx(0.1, rel=1e-12)
    assert c.eta0 == pytest.approx(0.1, rel=1e-12)
    assert c.k_ba == pytest.approx(10.0 ** 0.3, rel=1e-12)
    assert c.k_ca == pytest.approx(1.0, rel=1e-12)
    assert (c.r_t, c.r_c) == (16.0, 4.0)
    assert c.eta_s == 0.01 and c.kappa == 0.5 and c.m_samples == 100
    assert (c.n_b, c.n_c) == (2, 2)
    assert (c.xi_ba, c.xi_ca) == (-2.0, -2.0)
    assert (c.xi_bw, c.xi_cw) == (-3.0, -3.0)
    assert c.l_b == (200.0, 300.0)
    assert c.l_c == (200.0, 150.0)
    assert c.l_w == (100.0, 400.0)
    assert c.l_start == (0.0, 0.0) and c.l_end == (500.0, 500.0)
    assert c.h_m == 200.0
    assert (c.t_s, c.n_slots) == (130.0, 130)
    assert (c.v_min, c.v_max, c.a_max) == (1.0, 20.0, 10.0)
    # ferry cruise speed: straight-line distance over the horizon
    cruise = math.hypot(500.0, 500.0) / 130.0
    assert c.v_start == pytest.approx(cruise, rel=1e-12)
    assert c.v_end == pytest.approx(cruise, rel=1e-12)


def test_bundled_t100_variant():
    c = bundled_scenario("paper_t100")
    assert (c.t_s, c.n_slots) == (100.0, 100)
    assert c.delta_t == pytest.approx(1.0)


def test_unknown_bundled_name_is_rejected():
    with pytest.raises(ScenarioError, match="no bundled scenario named"):
        bundled_scenario("does_not_exist")


def test_derived_quantities():
    c = bundled_scenario()
    assert c.delta_t == pytest.approx(1.0, rel=1e-15)
    assert c.zeta1_w == pytest.approx(1e-7, rel=1e-12)
    assert c.ferry_distance == pytest.approx(math.hypot(500.0, 500.0), rel=1e-15)
    shorter = with_overrides(c, t_s=100.0, n_slots=50)
    assert shorter.delta_t == pytest.approx(2.0, rel=1e-15)


def test_config_is_immutable():
    c = bundled_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.r_t = 1.0


@pytest.mark.parametrize("field,value,needle", [
    ("n_b", 0, "n_b_antennas"),
    ("q_b_max_w", 0.0, "q_b_max must be positive"),
    ("q_c_max_w", -1.0, "q_c_max must be positive"),
    ("eta_s", 1.0, "eta_s must lie in"),
    ("kappa", 1.5, "kappa must lie in"),
    ("m_samples", 0, "m_samples"),
    ("sigma_a2_w", 0.0, "sigma_a2 must be positive"),
    ("sigma_w2_w", -1e-12, "sigma_w2 must be positive"),
    ("xi_ba", 2.0, "xi_ba must be negative"),
    ("xi_cw", 0.0, "xi_cw must be negative"),
    ("h_m", 0.0, "h_m must be positive"),
    ("n_slots", 1, "n_slots must be >= 2"),
    ("v_min", 0.0, "v_min_mps must be positive"),
    ("v_max", 0.5, "v_max_mps must exceed v_min_mps"),
    ("a_max", 0.0, "a_max_mps2 must be positive"),
    ("v_start", 30.0, "v_start_mps must lie in"),
    ("v_end", 0.1, "v_end_mps must lie in"),
    ("bsa_tol_rel", 0.0, "bsa_tol_rel must be positive"),
    # counts are ints (numpy ints included) from a file and from overrides
    ("n_slots", 130.7, "n_slots must be an integer, got 130.7"),
    ("n_slots", 130.0, "n_slots must be an integer, got 130.0"),
    ("n_b", 2.5, "n_b_antennas must be an integer, got 2.5"),
    ("n_b", True, "n_b_antennas must be an integer, got True"),
    ("n_c", np.float64(2.0), "n_c_antennas must be an integer"),
    ("m_samples", 99.5, "m_samples must be an integer, got 99.5"),
    # every other value is a real number (not a bool) or, for a free
    # terminal speed, None; a pair's message names the bad coordinate
    ("h_m", "abc", "^h_m must be a number, got 'abc'$"),
    ("t_s", "10", "^t_s must be a number, got '10'$"),
    ("kappa", None, "^kappa must be a number, got None$"),
    ("h_m", True, "^h_m must be a number, got True$"),
    ("v_start", None, "^v_start_mps must be a number, got None$"),
    ("q_b_max_w", [1.0], r"^q_b_max_dbm must be a number, got \[1.0\]$"),
    ("l_b", (1, "x"), "^l_b_m must be a number, got 'x'$"),
    ("l_start", (0.0, False), "^l_start_m must be a number, got False$"),
])
def test_named_rejections(field, value, needle):
    """Every invalid field raises with a message naming the field."""
    c = bundled_scenario()
    with pytest.raises(ScenarioError, match=needle):
        with_overrides(c, **{field: value})


def test_numpy_integer_counts_are_accepted_and_saved(tmp_path):
    c = with_overrides(bundled_scenario(), n_b=np.int64(4), n_slots=np.int32(60))
    assert (c.n_b, c.n_slots) == (4, 60)
    path = os.path.join(tmp_path, "np.yaml")
    save_scenario(c, path)
    back = load_scenario(path)
    assert (back.n_b, back.n_slots) == (4, 60)
    assert type(back.n_b) is int and type(back.n_slots) is int


@pytest.mark.parametrize("value", [130, 130.0, "130"])
def test_file_counts_accept_integral_numbers(value):
    with open(os.path.join(DATA, "paper_default.saved.yaml")) as fh:
        d = yaml.safe_load(fh)
    c = scenario_from_dict({**d, "n_slots": value})
    assert c.n_slots == 130 and type(c.n_slots) is int


@pytest.mark.parametrize("name,source", [
    ("paper_default", "bundled"),
    ("paper_t100", "bundled"),
    ("baselines_s1", "file"),
])
def test_saved_text_is_pinned(tmp_path, name, source):
    """save_scenario writes the same bytes for the bundled scenarios and for
    the benchmark's jittered 260-slot scenario."""
    c = (bundled_scenario(name) if source == "bundled"
         else load_scenario(os.path.join(DATA, f"{name}.yaml")))
    path = os.path.join(tmp_path, "saved.yaml")
    save_scenario(c, path)
    with open(path) as fh, \
            open(os.path.join(DATA, f"{name}.saved.yaml")) as want:
        assert fh.read() == want.read()


def _full_file_dict():
    with open(os.path.join(DATA, "paper_default.saved.yaml")) as fh:
        return yaml.safe_load(fh)


DEFAULTED_KEYS = {"m_samples", "bsa_tol_rel", "bcd_tol", "v_start_mps",
                  "v_end_mps"}


@pytest.mark.parametrize("key", [k for k in _full_file_dict() if k != "name"])
def test_only_defaulted_keys_may_be_dropped(key):
    """Dropping a key either names it as missing or, for exactly the keys
    with a file default, loads the same scenario as spelling the default
    out."""
    full = _full_file_dict()
    d = {k: v for k, v in full.items() if k != key}
    if key in DEFAULTED_KEYS:
        assert scenario_from_dict(d) == scenario_from_dict(full)
    else:
        with pytest.raises(ScenarioError,
                           match=f"^missing scenario field {key}$"):
            scenario_from_dict(d)


def test_dropped_name_defaults():
    d = {k: v for k, v in _full_file_dict().items() if k != "name"}
    assert scenario_from_dict(d).name == "scenario"


def test_coincident_endpoints_rejected():
    c = bundled_scenario()
    with pytest.raises(ScenarioError, match="must differ"):
        with_overrides(c, l_end=(0.0, 0.0))


@pytest.mark.parametrize("user", ["l_b", "l_c"])
def test_user_at_adversary_rejected(user):
    """A user on the adversary's spot has no ground link; both keys are
    named."""
    c = bundled_scenario()
    with pytest.raises(ScenarioError, match=f"{user}_m and l_w_m must differ"):
        with_overrides(c, **{user: c.l_w})


def test_missing_field_named_in_error():
    d = {"n_b_antennas": 2}
    with pytest.raises(ScenarioError, match="missing scenario field"):
        scenario_from_dict(d)


def test_bad_pair_rejected():
    c = bundled_scenario()
    with pytest.raises(ScenarioError, match="l_w_m must be a pair"):
        with_overrides(c, l_w=(1.0, 2.0, 3.0))


def test_free_terminal_speed_round_trip(tmp_path):
    c = with_overrides(bundled_scenario(), v_end=None, name="freetail")
    path = os.path.join(tmp_path, "freetail.yaml")
    save_scenario(c, path)
    back = load_scenario(path)
    assert back.v_end is None
    assert back.name == "freetail"
    # and the full numeric payload survives the round trip
    for f in dataclasses.fields(c):
        a, b = getattr(c, f.name), getattr(back, f.name)
        if isinstance(a, float):
            assert b == pytest.approx(a, rel=1e-12, abs=1e-300), f.name
        else:
            assert a == b, f.name


def test_save_load_round_trip(tmp_path, cfg):
    path = os.path.join(tmp_path, "base.yaml")
    save_scenario(cfg, path)
    back = load_scenario(path)
    for f in dataclasses.fields(cfg):
        a, b = getattr(cfg, f.name), getattr(back, f.name)
        if isinstance(a, float):
            assert b == pytest.approx(a, rel=1e-12), f.name
        else:
            assert a == b, f.name


def test_with_overrides_revalidates_and_preserves():
    c = bundled_scenario()
    bumped = with_overrides(c, r_t=12.0)
    assert bumped.r_t == 12.0
    assert bumped.r_c == c.r_c
    with pytest.raises(ScenarioError):
        with_overrides(c, sigma_a2_w=0.0)


def test_load_scenario_missing_file():
    with pytest.raises((ScenarioError, OSError)):
        load_scenario("/nonexistent/path/to/scenario.yaml")


def test_default_v_start_falls_back_to_cruise():
    # file-format dict with the speed keys omitted entirely
    base = {
        "name": "nokeys", "n_b_antennas": 2, "n_c_antennas": 2,
        "q_b_max_dbm": 30.0, "q_c_max_dbm": 0.0, "r_t_bits": 16.0,
        "r_c_bits": 4.0, "eta_s": 0.01, "kappa": 0.5, "m_samples": 100,
        "sigma_a2_dbm": -90.0, "sigma_w2_dbm": -90.0, "lambda0_db": -10.0,
        "eta0_db": -10.0, "k_ba_db": 3.0, "k_ca_db": 0.0,
        "xi_ba": -2.0, "xi_ca": -2.0, "xi_bw": -3.0, "xi_cw": -3.0,
        "l_b_m": [200, 300], "l_c_m": [200, 150], "l_w_m": [100, 400],
        "l_start_m": [0, 0], "l_end_m": [500, 500], "h_m": 200.0,
        "t_s": 130.0, "n_slots": 130, "v_min_mps": 1.0, "v_max_mps": 20.0,
        "a_max_mps2": 10.0,
    }
    c = scenario_from_dict(base)
    cruise = math.hypot(500.0, 500.0) / 130.0
    assert c.v_start == pytest.approx(cruise, rel=1e-12)
    assert c.v_end == pytest.approx(cruise, rel=1e-12)
    free = scenario_from_dict({**base, "v_end_mps": "free"})
    assert free.v_end is None
