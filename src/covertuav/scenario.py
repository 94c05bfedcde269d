"""Scenario configuration: geometry, radio parameters, flight limits.

Files are flat key/value YAML with units encoded in the key suffixes
(`*_dbm`, `*_db`, `*_m`, `*_mps`, `*_mps2`, `*_s`, `*_bits`). Everything is
converted to linear/SI units at load time and kept that way internally —
dB and dBm exist only at the file boundary. Configs are frozen; derive
variants with :func:`with_overrides`.
"""

import dataclasses
import importlib.resources
import math
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


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario, all values linear/SI. Immutable after construction."""

    name: str
    # antennas
    n_b: int
    n_c: int
    # power budgets (W)
    q_b_max_w: float
    q_c_max_w: float
    # rates (bits per channel use)
    r_t: float
    r_c: float
    # secrecy outage cap and objective weight
    eta_s: float
    kappa: float
    # radiometer block length (samples per detection window)
    m_samples: int
    # noise powers (W)
    sigma_a2_w: float
    sigma_w2_w: float
    # reference gains (linear) and Rician factors (linear)
    lambda0: float
    eta0: float
    k_ba: float
    k_ca: float
    # path-loss exponents (negative)
    xi_ba: float
    xi_ca: float
    xi_bw: float
    xi_cw: float
    # ground positions (m)
    l_b: tuple
    l_c: tuple
    l_w: tuple
    # flight endpoints (m), altitude (m), horizon (s), slot count
    l_start: tuple
    l_end: tuple
    h_m: float
    t_s: float
    n_slots: int
    # flight limits; v_end None leaves the terminal speed unpinned
    v_min: float
    v_max: float
    a_max: float
    v_start: float
    v_end: float | None
    # optimizer tolerances
    bsa_tol_rel: float = 1e-4
    bcd_tol: float = 1e-4

    # -- derived quantities ------------------------------------------------

    @property
    def delta_t(self) -> float:
        """Slot duration (s)."""
        return self.t_s / self.n_slots

    @property
    def gamma_t(self) -> float:
        """SNR threshold 2^R_t - 1 for the secret stream."""
        return 2.0 ** self.r_t - 1.0

    @property
    def gamma_c(self) -> float:
        """SNR threshold 2^R_c - 1 for the covert stream."""
        return 2.0 ** self.r_c - 1.0

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


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _validate(c: ScenarioConfig):
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
    for nm in ("l_b", "l_c", "l_w", "l_start", "l_end"):
        v = getattr(c, nm)
        _require(isinstance(v, tuple) and len(v) == 2,
                 f"{nm}_m must be a pair of coordinates, got {v!r}")
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


def _number(key, v, integer=False):
    """The file value v of `key` as a float, or as an int for a count; a
    ScenarioError naming the key when it is neither."""
    try:
        x = float(v)
    except (TypeError, ValueError):
        raise ScenarioError(f"{key} must be a number, got {v!r}") from None
    if integer and not x.is_integer():
        raise ScenarioError(f"{key} must be an integer, got {v!r}")
    return int(x) if integer else x


def _pair(d, key):
    v = d[key]
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ScenarioError(f"{key} must be a pair [x, y], got {v!r}")
    return (_number(key, v[0]), _number(key, v[1]))


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a config from file-format keys (dB/dBm converted to linear)."""
    d = dict(d)

    def num(key, default=None, integer=False):
        return _number(key, d[key] if default is None else d.get(key, default),
                       integer)

    try:
        l_start = _pair(d, "l_start_m")
        l_end = _pair(d, "l_end_m")
        t_s = num("t_s")
        ferry = math.hypot(l_end[0] - l_start[0], l_end[1] - l_start[1])
        cruise = ferry / t_s if t_s > 0 else 0.0
        v_start = d.get("v_start_mps")
        v_end = d.get("v_end_mps")
        return ScenarioConfig(
            name=str(d.get("name", "scenario")),
            n_b=num("n_b_antennas", integer=True),
            n_c=num("n_c_antennas", integer=True),
            q_b_max_w=dbm_to_watt(num("q_b_max_dbm")),
            q_c_max_w=dbm_to_watt(num("q_c_max_dbm")),
            r_t=num("r_t_bits"),
            r_c=num("r_c_bits"),
            eta_s=num("eta_s"),
            kappa=num("kappa"),
            m_samples=num("m_samples", 100, integer=True),
            sigma_a2_w=dbm_to_watt(num("sigma_a2_dbm")),
            sigma_w2_w=dbm_to_watt(num("sigma_w2_dbm")),
            lambda0=db_to_linear(num("lambda0_db")),
            eta0=db_to_linear(num("eta0_db")),
            k_ba=db_to_linear(num("k_ba_db")),
            k_ca=db_to_linear(num("k_ca_db")),
            xi_ba=num("xi_ba"),
            xi_ca=num("xi_ca"),
            xi_bw=num("xi_bw"),
            xi_cw=num("xi_cw"),
            l_b=_pair(d, "l_b_m"),
            l_c=_pair(d, "l_c_m"),
            l_w=_pair(d, "l_w_m"),
            l_start=l_start,
            l_end=l_end,
            h_m=num("h_m"),
            t_s=t_s,
            n_slots=num("n_slots", integer=True),
            v_min=num("v_min_mps"),
            v_max=num("v_max_mps"),
            a_max=num("a_max_mps2"),
            v_start=_number("v_start_mps",
                            cruise if v_start is None else v_start),
            v_end=(None if v_end == "free"
                   else _number("v_end_mps", cruise if v_end is None else v_end)),
            bsa_tol_rel=num("bsa_tol_rel", 1e-4),
            bcd_tol=num("bcd_tol", 1e-4),
        )
    except KeyError as e:
        raise ScenarioError(f"missing scenario field {e.args[0]}") from None


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
    return {
        "name": c.name,
        "n_b_antennas": c.n_b,
        "n_c_antennas": c.n_c,
        "q_b_max_dbm": watt_to_dbm(c.q_b_max_w),
        "q_c_max_dbm": watt_to_dbm(c.q_c_max_w),
        "r_t_bits": c.r_t,
        "r_c_bits": c.r_c,
        "eta_s": c.eta_s,
        "kappa": c.kappa,
        "m_samples": c.m_samples,
        "sigma_a2_dbm": watt_to_dbm(c.sigma_a2_w),
        "sigma_w2_dbm": watt_to_dbm(c.sigma_w2_w),
        "lambda0_db": linear_to_db(c.lambda0),
        "eta0_db": linear_to_db(c.eta0),
        "k_ba_db": linear_to_db(c.k_ba) if c.k_ba > 0 else -math.inf,
        "k_ca_db": linear_to_db(c.k_ca) if c.k_ca > 0 else -math.inf,
        "xi_ba": c.xi_ba,
        "xi_ca": c.xi_ca,
        "xi_bw": c.xi_bw,
        "xi_cw": c.xi_cw,
        "l_b_m": list(c.l_b),
        "l_c_m": list(c.l_c),
        "l_w_m": list(c.l_w),
        "l_start_m": list(c.l_start),
        "l_end_m": list(c.l_end),
        "h_m": c.h_m,
        "t_s": c.t_s,
        "n_slots": c.n_slots,
        "v_min_mps": c.v_min,
        "v_max_mps": c.v_max,
        "a_max_mps2": c.a_max,
        "v_start_mps": c.v_start,
        "v_end_mps": "free" if c.v_end is None else c.v_end,
        "bsa_tol_rel": c.bsa_tol_rel,
        "bcd_tol": c.bcd_tol,
    }


def save_scenario(c: ScenarioConfig, path: str):
    """Write a scenario back to the file format (atomic: temp + rename)."""
    with atomic_open(path) as f:
        yaml.safe_dump(_to_file_dict(c), f, sort_keys=False)


def with_overrides(c: ScenarioConfig, **kw) -> ScenarioConfig:
    """New config with fields replaced; revalidated."""
    return dataclasses.replace(c, **kw)
