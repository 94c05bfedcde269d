"""Scenario configuration: geometry, radio parameters, flight limits.

Files are flat key/value YAML with units encoded in the key suffixes
(`*_dbm`, `*_db`, `*_m`, `*_mps`, `*_mps2`, `*_s`, `*_bits`). Everything is
converted to linear/SI units at load time and kept that way internally —
dB and dBm exist only at the file boundary. The file format is declared
once, on the fields of :class:`ScenarioConfig`: each names its file key and
unit class, and the keys with a file default (`m_samples`, the two
tolerances, and the speeds, which default to the straight-ferry cruise
speed) carry it there. Configs are frozen and validated on construction,
so a count that is not an integer is refused whether it comes from a file
or from :func:`with_overrides`, which derives variants.
"""

import dataclasses
import importlib.resources
import math
import numbers
from dataclasses import dataclass

import yaml

from ._csvio import atomic_open

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "dbm_to_watt",
    "watt_to_dbm",
    "db_to_linear",
    "linear_to_db",
    "scenario_from_dict",
    "load_scenario",
    "bundled_scenario",
    "save_scenario",
    "with_overrides",
]


class ScenarioError(ValueError):
    """A scenario field violates its contract. The message names the field."""


def dbm_to_watt(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watt_to_dbm(x_w: float) -> float:
    if x_w <= 0:
        raise ScenarioError("power in watts must be positive to express in dBm")
    return 10.0 * math.log10(x_w) + 30.0


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ScenarioError("linear value must be positive to express in dB")
    return 10.0 * math.log10(x)


class _Unit:
    """How one unit class is read from the file (`load(key, value)`, a
    ScenarioError naming the key on a bad value) and written back."""

    def __init__(self, load, save=lambda x: x):
        self.load, self.save = load, save


def _number(key, v):
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ScenarioError(f"{key} must be a number, got {v!r}") from None


def _count(key, v):
    """An integral number as an int; any other number is left as it is for
    the count check in _validate to name."""
    x = _number(key, v)
    return int(x) if x.is_integer() else v


def _pair(key, v):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ScenarioError(f"{key} must be a pair [x, y], got {v!r}")
    return (_number(key, v[0]), _number(key, v[1]))


_NUM = _Unit(_number)
_COUNT = _Unit(_count, int)
_DBM = _Unit(lambda key, v: dbm_to_watt(_number(key, v)), watt_to_dbm)
# a zero Rician factor (pure Rayleigh fading) is saved as -inf dB
_DB = _Unit(lambda key, v: db_to_linear(_number(key, v)),
           lambda x: linear_to_db(x) if x > 0 else -math.inf)
_PAIR = _Unit(_pair, list)
# speeds default to the straight-ferry cruise speed; a free terminal speed
# is None here and "free" in the file
_SPEED = _Unit(_number)
_FREE_SPEED = _Unit(lambda key, v: None if v == "free" else _number(key, v),
                   lambda x: "free" if x is None else x)


def _file(key, unit=_NUM, default=dataclasses.MISSING):
    """A field stored under file key `key` in `unit`; `default` applies both
    when a file omits the key and when the constructor is not given it."""
    return dataclasses.field(default=default,
                             metadata={"key": key, "unit": unit})


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """One scenario, all values linear/SI. Immutable after construction.

    Each field but `name` declares its file key and unit class; the loader,
    the saver and the count check all read these declarations, in this
    order.
    """

    name: str
    # antennas
    n_b: int = _file("n_b_antennas", _COUNT)
    n_c: int = _file("n_c_antennas", _COUNT)
    # power budgets (W)
    q_b_max_w: float = _file("q_b_max_dbm", _DBM)
    q_c_max_w: float = _file("q_c_max_dbm", _DBM)
    # rates (bits per channel use)
    r_t: float = _file("r_t_bits")
    r_c: float = _file("r_c_bits")
    # secrecy outage cap and objective weight
    eta_s: float = _file("eta_s")
    kappa: float = _file("kappa")
    # radiometer block length (samples per detection window)
    m_samples: int = _file("m_samples", _COUNT, 100)
    # noise powers (W)
    sigma_a2_w: float = _file("sigma_a2_dbm", _DBM)
    sigma_w2_w: float = _file("sigma_w2_dbm", _DBM)
    # reference gains (linear) and Rician factors (linear)
    lambda0: float = _file("lambda0_db", _DB)
    eta0: float = _file("eta0_db", _DB)
    k_ba: float = _file("k_ba_db", _DB)
    k_ca: float = _file("k_ca_db", _DB)
    # path-loss exponents (negative)
    xi_ba: float = _file("xi_ba")
    xi_ca: float = _file("xi_ca")
    xi_bw: float = _file("xi_bw")
    xi_cw: float = _file("xi_cw")
    # ground positions (m)
    l_b: tuple = _file("l_b_m", _PAIR)
    l_c: tuple = _file("l_c_m", _PAIR)
    l_w: tuple = _file("l_w_m", _PAIR)
    # flight endpoints (m), altitude (m), horizon (s), slot count
    l_start: tuple = _file("l_start_m", _PAIR)
    l_end: tuple = _file("l_end_m", _PAIR)
    h_m: float = _file("h_m")
    t_s: float = _file("t_s")
    n_slots: int = _file("n_slots", _COUNT)
    # flight limits; v_end None leaves the terminal speed unpinned
    v_min: float = _file("v_min_mps")
    v_max: float = _file("v_max_mps")
    a_max: float = _file("a_max_mps2")
    v_start: float = _file("v_start_mps", _SPEED)
    v_end: float | None = _file("v_end_mps", _FREE_SPEED)
    # optimizer tolerances
    bsa_tol_rel: float = _file("bsa_tol_rel", default=1e-4)
    bcd_tol: float = _file("bcd_tol", default=1e-4)

    # -- derived quantities ------------------------------------------------

    @property
    def delta_t(self) -> float:
        """Slot duration (s)."""
        return self.t_s / self.n_slots

    @property
    def zeta1_w(self) -> float:
        """Absolute BSA power tolerance (W)."""
        return self.bsa_tol_rel * self.q_c_max_w

    @property
    def ferry_distance(self) -> float:
        return math.hypot(self.l_end[0] - self.l_start[0],
                          self.l_end[1] - self.l_start[1])

    def __post_init__(self):
        _validate(self)


# (field, file key, unit, file default) of every field but `name`
_FILE_FIELDS = tuple((f.name, f.metadata["key"], f.metadata["unit"], f.default)
                     for f in dataclasses.fields(ScenarioConfig) if f.metadata)


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _is_number(v, kind=numbers.Real):
    return isinstance(v, kind) and not isinstance(v, bool)


def _validate(c: ScenarioConfig):
    # each field holds what its unit class loads (a free terminal speed is
    # None); the messages name the file key
    for name, key, unit, _ in _FILE_FIELDS:
        v = getattr(c, name)
        if unit is _COUNT:
            _require(_is_number(v, numbers.Integral),
                     f"{key} must be an integer, got {v!r}")
        elif unit is _PAIR:
            _require(isinstance(v, tuple) and len(v) == 2,
                     f"{key} must be a pair of coordinates, got {v!r}")
            for x in v:
                _require(_is_number(x), f"{key} must be a number, got {x!r}")
        elif not (unit is _FREE_SPEED and v is None):
            _require(_is_number(v), f"{key} must be a number, got {v!r}")
    _require(c.n_b >= 1, f"n_b_antennas must be >= 1, got {c.n_b}")
    _require(c.n_c >= 1, f"n_c_antennas must be >= 1, got {c.n_c}")
    _require(c.q_b_max_w > 0, f"q_b_max must be positive, got {c.q_b_max_w} W")
    _require(c.q_c_max_w > 0, f"q_c_max must be positive, got {c.q_c_max_w} W")
    _require(c.r_t >= 0, f"r_t_bits must be >= 0, got {c.r_t}")
    _require(c.r_c >= 0, f"r_c_bits must be >= 0, got {c.r_c}")
    _require(0 < c.eta_s < 1, f"eta_s must lie in (0, 1), got {c.eta_s}")
    _require(0 <= c.kappa <= 1, f"kappa must lie in [0, 1], got {c.kappa}")
    _require(c.m_samples >= 1, f"m_samples must be >= 1, got {c.m_samples}")
    _require(c.sigma_a2_w > 0, f"sigma_a2 must be positive, got {c.sigma_a2_w} W")
    _require(c.sigma_w2_w > 0, f"sigma_w2 must be positive, got {c.sigma_w2_w} W")
    _require(c.lambda0 > 0, f"lambda0 must be positive, got {c.lambda0}")
    _require(c.eta0 > 0, f"eta0 must be positive, got {c.eta0}")
    _require(c.k_ba >= 0, f"k_ba must be >= 0, got {c.k_ba}")
    _require(c.k_ca >= 0, f"k_ca must be >= 0, got {c.k_ca}")
    for nm in ("xi_ba", "xi_ca", "xi_bw", "xi_cw"):
        _require(getattr(c, nm) < 0, f"{nm} must be negative, got {getattr(c, nm)}")
    _require(c.l_start != c.l_end,
             "l_start_m and l_end_m must differ (the flight needs a ferry direction)")
    for nm in ("l_b", "l_c"):
        _require(getattr(c, nm) != c.l_w,
                 f"{nm}_m and l_w_m must differ (a user at the adversary has "
                 f"no ground link distance)")
    _require(c.h_m > 0, f"h_m must be positive, got {c.h_m}")
    _require(c.t_s > 0, f"t_s must be positive, got {c.t_s}")
    _require(c.n_slots >= 2, f"n_slots must be >= 2, got {c.n_slots}")
    _require(c.v_min > 0, f"v_min_mps must be positive (fixed wing), got {c.v_min}")
    _require(c.v_max > c.v_min,
             f"v_max_mps must exceed v_min_mps, got {c.v_max} <= {c.v_min}")
    _require(c.a_max > 0, f"a_max_mps2 must be positive, got {c.a_max}")
    _require(c.v_min <= c.v_start <= c.v_max,
             f"v_start_mps must lie in [v_min, v_max], got {c.v_start}")
    _require(c.v_end is None or c.v_min <= c.v_end <= c.v_max,
             f"v_end_mps must lie in [v_min, v_max] or be free, got {c.v_end}")
    _require(c.bsa_tol_rel > 0, f"bsa_tol_rel must be positive, got {c.bsa_tol_rel}")
    _require(c.bcd_tol > 0, f"bcd_tol must be positive, got {c.bcd_tol}")


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a config from file-format keys (dB/dBm converted to linear)."""
    kw = {"name": str(d.get("name", "scenario"))}
    for name, key, unit, default in _FILE_FIELDS:
        v = d.get(key, default)
        if unit is _SPEED or unit is _FREE_SPEED:
            if v is None or v is dataclasses.MISSING:
                t_s = kw["t_s"]
                v = (math.hypot(kw["l_end"][0] - kw["l_start"][0],
                                kw["l_end"][1] - kw["l_start"][1]) / t_s
                     if t_s > 0 else 0.0)
        elif v is dataclasses.MISSING:
            raise ScenarioError(f"missing scenario field {key}")
        kw[name] = unit.load(key, v)
    return ScenarioConfig(**kw)


def load_scenario(path: str) -> ScenarioConfig:
    """Load a scenario file (flat key/value YAML)."""
    with open(path, "r") as f:
        try:
            d = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ScenarioError(
                f"scenario file {path} is not valid YAML: {exc}") from None
    if not isinstance(d, dict):
        raise ScenarioError(f"scenario file {path} did not parse to a mapping")
    return scenario_from_dict(d)


def bundled_scenario(name: str = "paper_default") -> ScenarioConfig:
    """Load one of the scenarios shipped with the package."""
    res = importlib.resources.files("covertuav").joinpath(f"data/{name}.yaml")
    if not res.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    d = yaml.safe_load(res.read_text())
    return scenario_from_dict(d)


def _to_file_dict(c: ScenarioConfig) -> dict:
    d = {"name": c.name}
    for name, key, unit, _ in _FILE_FIELDS:
        d[key] = unit.save(getattr(c, name))
    return d


def save_scenario(c: ScenarioConfig, path: str):
    """Write a scenario back to the file format (atomic: temp + rename)."""
    with atomic_open(path) as f:
        yaml.safe_dump(_to_file_dict(c), f, sort_keys=False)


def with_overrides(c: ScenarioConfig, **kw) -> ScenarioConfig:
    """New config with fields replaced; revalidated like a loaded file."""
    return dataclasses.replace(c, **kw)
