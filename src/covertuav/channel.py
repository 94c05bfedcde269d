"""Propagation model.

Air links (ground user -> UAV) are Rician with distance-power-law large-scale
gain `a² = lambda0 * d^xi` where d is the 3-D distance through altitude H.
Ground links (user -> adversary) are Rayleigh with `a² = eta0 * lambda0 * d^xi`
over the horizontal distance. A gain table (`ChannelGains`) holds only these
per-antenna gains; the full-trace gain N·a² of an N-antenna link (the mean
of ‖h‖² over fading) is applied where the slot model is built
(`kernels.slot_env`).

All gains are linear power ratios; positions are metres.
"""

from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig

__all__ = [
    "ChannelGains",
    "FadingDraw",
    "squared_horizontal_distance",
    "air_large_scale",
    "ground_large_scale",
    "gains_for_slacks",
    "gains_for_positions",
    "rician_fading",
    "draw_fading",
]


def squared_horizontal_distance(positions, point):
    """‖L - point‖² for one position (2,) or a stack (..., 2) of them."""
    positions = np.asarray(positions, dtype=float)
    delta = positions - np.asarray(point, dtype=float)
    return np.sum(delta * delta, axis=-1)


def air_large_scale(cfg: ScenarioConfig, mu, xi):
    """Per-antenna large-scale power gain lambda0 * d^xi with d² = H² + mu."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise ValueError("squared horizontal distance mu must be >= 0")
    d2 = cfg.h_m ** 2 + mu
    return cfg.lambda0 * d2 ** (xi / 2.0)


def ground_large_scale(cfg: ScenarioConfig, dist, xi):
    """Per-antenna large-scale power gain eta0 * lambda0 * d^xi (ground link)."""
    dist = float(dist)
    if dist <= 0:
        raise ValueError("ground link distance must be positive")
    return cfg.eta0 * cfg.lambda0 * dist ** xi


@dataclass(frozen=True)
class ChannelGains:
    """Per-antenna large-scale gains along a flight path.

    Air-side arrays are indexed by slot (same length as the position stack
    or slack arrays they were built from); ground-side gains are scalars
    (the adversary and the users do not move).
    """

    a2_ba: np.ndarray   # air gains, secret user -> UAV
    a2_ca: np.ndarray   # air gains, covert user -> UAV
    a2_bw: float        # ground gain, secret user -> adversary
    a2_cw: float        # ground gain, covert user -> adversary

    def __post_init__(self):
        for nm in ("a2_ba", "a2_ca"):
            getattr(self, nm).setflags(write=False)


def gains_for_slacks(cfg: ScenarioConfig, mu_ba, mu_ca) -> ChannelGains:
    """Evaluate all large-scale gains at squared horizontal UAV-to-user
    distances (scalars or per-slot arrays)."""
    a2_ba = air_large_scale(cfg, mu_ba, cfg.xi_ba)
    a2_ca = air_large_scale(cfg, mu_ca, cfg.xi_ca)
    d_bw = float(np.hypot(cfg.l_b[0] - cfg.l_w[0], cfg.l_b[1] - cfg.l_w[1]))
    d_cw = float(np.hypot(cfg.l_c[0] - cfg.l_w[0], cfg.l_c[1] - cfg.l_w[1]))
    a2_bw = ground_large_scale(cfg, d_bw, cfg.xi_bw)
    a2_cw = ground_large_scale(cfg, d_cw, cfg.xi_cw)
    return ChannelGains(a2_ba=a2_ba, a2_ca=a2_ca, a2_bw=a2_bw, a2_cw=a2_cw)


def gains_for_positions(cfg: ScenarioConfig, positions) -> ChannelGains:
    """Evaluate all large-scale gains for a stack of UAV positions (M, 2)."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    return gains_for_slacks(
        cfg, squared_horizontal_distance(positions, cfg.l_b),
        squared_horizontal_distance(positions, cfg.l_c))


def rician_fading(rng: np.random.Generator, n_antennas: int, k: float, size: int = 1):
    """Draw `size` Rician small-scale vectors, shape (size, n_antennas).

    The line-of-sight component has unit-modulus entries (all-ones phase
    reference) and the scattered part is CN(0, 1) per entry, mixed as
    sqrt(K/(K+1)) and sqrt(1/(K+1)), so E‖g‖² = n_antennas for every K.
    K = 0 reduces to Rayleigh.
    """
    if k < 0:
        raise ValueError("Rician factor k must be >= 0")
    los = np.ones((size, n_antennas), dtype=complex)
    scat = (rng.standard_normal((size, n_antennas))
            + 1j * rng.standard_normal((size, n_antennas))) / np.sqrt(2.0)
    return np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * scat


@dataclass(frozen=True)
class FadingDraw:
    """Channel vectors for one slot: h = sqrt(a²) * g, shapes (size, N)."""

    h_ba: np.ndarray
    h_ca: np.ndarray
    h_bw: np.ndarray
    h_cw: np.ndarray


def draw_fading(cfg: ScenarioConfig, gains: ChannelGains, slot: int,
                rng: np.random.Generator, size: int = 1) -> FadingDraw:
    """Sample channel vectors at slot `slot` of a gain table."""
    if not 0 <= slot < len(gains.a2_ba):
        raise IndexError(f"slot {slot} outside gain table of length {len(gains.a2_ba)}")
    h_ba = np.sqrt(gains.a2_ba[slot]) * rician_fading(rng, cfg.n_b, cfg.k_ba, size)
    h_ca = np.sqrt(gains.a2_ca[slot]) * rician_fading(rng, cfg.n_c, cfg.k_ca, size)
    h_bw = np.sqrt(gains.a2_bw) * rician_fading(rng, cfg.n_b, 0.0, size)
    h_cw = np.sqrt(gains.a2_cw) * rician_fading(rng, cfg.n_c, 0.0, size)
    return FadingDraw(h_ba=h_ba, h_ca=h_ca, h_bw=h_bw, h_cw=h_cw)
