"""Per-slot transmit design for the secret and covert uplinks.

The covert user's transmit power q_c is the only scalar degree of freedom
once the received-power coupling at the adversary is enforced: the cover
power carved out at the adversary fixes the secret user's power, the
redundancy rate and both connection probabilities, so the slot reduces to a
one-dimensional rise-then-decay curve searched by derivative-sign
bisection, run over all slots (or candidate beams) at once. Beam
directions enter through the received-power coefficients: the default
isotropic mode uses the full-trace antenna gains, while the
direction-aware mode projects explicit channel vectors onto a rank-one
beam family mixing the covert user's own link with the leakage direction.
The slot model itself (rate, redundancy, connection probabilities, and
the covert-silent rule) lives in `kernels`, with its one input, the
`kernels.SlotEnv` record that `kernels.slot_env` builds; this module only
chooses the powers and beams it is evaluated at, and tabulates the achieved
metrics, one column per quantity and one entry per slot (`SlotDecisions`).
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from ._csvio import write_atomic_csv
# the record, the function building it and its error, by their beamform names
from .kernels import CovertBudgetError, SlotEnv, slot_env

__all__ = ["CovertBudgetError", "SlotEnv", "env_from_vectors",
           "bsa_optimize", "BsaBatch", "bsa_slots",
           "SlotDecisions", "decision_at", "h0_decision",
           "DirectionDecision", "choose_directions",
           "Oracle2dResult", "oracle_2d", "write_decisions_csv"]


def _channel_vectors(h_ba, h_ca, h_cw):
    """The three channel vectors as complex arrays; ValueError naming a
    zero one."""
    vecs = tuple(np.asarray(h, dtype=complex) for h in (h_ba, h_ca, h_cw))
    for name, h in zip(("h_ba", "h_ca", "h_cw"), vecs):
        if np.linalg.norm(h) == 0:
            raise ValueError(f"channel vector {name} is zero")
    return vecs


def _mixing_basis(h_ca, h_cw):
    """Orthonormal pair spanning the covert beam family, with the phase
    folded so the leakage amplitude is |alpha| cos(theta) - beta sin(theta).

    Returns (e1, e2, |alpha|, beta); e2 is None when the leakage vector has
    no component off the covert user's own direction (single antenna, or
    parallel channels), in which case only theta = 0 is meaningful.
    """
    n1 = float(np.linalg.norm(h_ca))
    e1 = h_ca / n1
    alpha = complex(np.vdot(e1, h_cw))
    resid = h_cw - alpha * e1
    beta = float(np.linalg.norm(resid))
    if beta < 1e-12 * max(1.0, float(np.linalg.norm(h_cw))):
        return e1, None, abs(alpha), 0.0
    e2 = resid / beta
    if abs(alpha) > 0:
        e2 = e2 * np.exp(1j * np.angle(alpha))
    return e1, e2, abs(alpha), beta


def _beam(e1, e2, theta):
    if e2 is None or theta == 0.0:
        return e1
    return math.cos(theta) * e1 - math.sin(theta) * e2


def env_from_vectors(cfg, gains, h_ba, h_ca, h_cw, theta=0.0):
    """Direction-aware environment for explicit channel vectors.

    The secret beam is maximum-ratio toward the receiver; the covert beam is
    the family member at mixing angle theta, or one beam per angle when
    theta is an array (the covert gains are then arrays too). The secret
    user's adversary-side coupling stays at the full-trace gain so the
    carved-power bookkeeping remains feasible for every beam choice.
    """
    h_ba, h_ca, h_cw = _channel_vectors(h_ba, h_ca, h_cw)
    e1, e2, _, _ = _mixing_basis(h_ca, h_cw)
    beams = [_beam(e1, e2, float(t)) for t in np.ravel(theta)]
    c_ca, c_cw = (np.array([np.abs(np.vdot(u, h)) ** 2 for u in beams])
                  for h in (h_ca, h_cw))
    if np.ndim(theta) == 0:
        c_ca, c_cw = float(c_ca[0]), float(c_cw[0])
    return dataclasses.replace(slot_env(cfg, gains),
                               c_ba=float(np.linalg.norm(h_ba) ** 2),
                               c_ca=c_ca, c_cw=c_cw)


class BsaBatch(NamedTuple):
    """Outcome of the power search: arrays with one entry per slot, or
    Python scalars for the one-slot search (`bsa_optimize`)."""

    q_c: np.ndarray
    objective: np.ndarray
    unimodal: np.ndarray   # False where the pre-scan saw multiple humps
    evaluations: np.ndarray
    iterations: np.ndarray  # bisection steps (bracket halvings)


_PRESCAN = 129   # points of the single-hump pre-scan


def _bsa_rows(rate, hi, zeta1, q_c_max):
    """Derivative-sign bisection for the best covert power of many rows
    at once.

    rate(q, rows) gives the rate of the rows with indices `rows` at the
    powers q, one row of q per index. Row r is searched over [0, hi[r]].
    Every step of the search makes one rate call for all rows still
    active, and each row takes exactly the steps, and gets exactly the
    result, of a search of that row alone. A coarse pre-scan checks the
    single-hump assumption; rows where it sees several interior rises get
    their bracket from a dense grid and are flagged. Unimodal rows whose
    slope does not change sign stop at an end point. The others bisect on
    the sign of the numerical derivative until the bracket is within
    zeta1.
    """
    hi = np.asarray(hi, dtype=float)
    if (hi <= 0).any():
        raise CovertBudgetError("no feasible covert power interval")
    step = max(1e-6 * q_c_max, 1e-12)
    every = np.arange(hi.size)

    def slope(q, rows):
        if not rows.size:
            return np.empty(0)
        f = rate(np.stack([np.maximum(q - step, 0.0),
                           np.minimum(q + step, hi[rows])], axis=1), rows)
        return f[:, 1] - f[:, 0]

    # pre-scan for the single-hump assumption (rises below noise are ignored)
    vals = rate(np.linspace(0.0, hi, _PRESCAN, axis=-1), every)
    evals = np.full(hi.size, _PRESCAN)
    diffs = np.diff(vals, axis=1)
    noise = 1e-12 * np.fmax(1.0, np.max(np.abs(vals), axis=1))
    unimodal = ~((diffs[:, :-1] <= 0)
                 & (diffs[:, 1:] > noise[:, None])).any(axis=1)

    lo, up = np.zeros(hi.size), hi.copy()
    multi = np.flatnonzero(~unimodal)
    if multi.size:
        dense = np.linspace(0.0, hi[multi], 10_001, axis=-1)
        best = np.argmax(rate(dense, multi), axis=1)
        pick = np.arange(multi.size)
        lo[multi] = dense[pick, np.maximum(best - 1, 0)]
        up[multi] = dense[pick, np.minimum(best + 1, dense.shape[1] - 1)]
        evals[multi] += dense.shape[1]

    # unimodal rows still rising at hi, or already falling at 0, stop there;
    # each end-point slope test costs two evaluations
    q_c = np.empty(hi.size)
    bisect = ~unimodal
    uni = np.flatnonzero(unimodal)
    top = slope(hi[uni], uni) >= 0
    q_c[uni[top]] = hi[uni[top]]
    evals[uni] += 2
    rest = uni[~top]
    bottom = slope(np.zeros(rest.size), rest) <= 0
    q_c[rest[bottom]] = 0.0
    evals[rest] += 2
    bisect[rest[~bottom]] = True

    iters = np.zeros(hi.size, dtype=int)
    active = np.flatnonzero(bisect & (up - lo > zeta1))
    while active.size:
        mid = 0.5 * (lo[active] + up[active])
        rising = slope(mid, active) > 0
        lo[active[rising]] = mid[rising]
        up[active[~rising]] = mid[~rising]
        iters[active] += 1
        active = active[up[active] - lo[active] > zeta1]
    q_c[bisect] = 0.5 * (lo[bisect] + up[bisect])
    objective = rate(q_c[:, None], every)[:, 0]
    return BsaBatch(q_c=q_c, objective=objective, unimodal=unimodal,
                    evaluations=evals + 2 * iters + 1, iterations=iters)


def _bsa_env(env, zeta1):
    """`_bsa_rows` over the slots (or beams) of an environment whose gains
    c_ba, c_ca and c_cw are per-slot arrays or scalars."""
    c_ba, c_ca, c_cw = (c[:, None] for c in np.broadcast_arrays(
        env.c_ba, env.c_ca, env.c_cw))

    def rate(q, rows):
        return kernels.slot_rate_curve(q, dataclasses.replace(
            env, c_ba=c_ba[rows], c_ca=c_ca[rows], c_cw=c_cw[rows]))

    hi = np.broadcast_to(env.q_c_feasible, c_ba.shape[:1])
    return _bsa_rows(rate, hi, zeta1, env.q_c_max)


def bsa_optimize(cfg=None, gains=None, zeta1=None, slot=0, env=None):
    """Derivative-sign bisection for the best covert power in one slot.

    Searches [0, q_c_feasible]. A coarse pre-scan checks the single-hump
    assumption; when it sees several interior rises the search falls back to
    a dense grid plus local bisection refinement and flags the result.
    The returned power is within zeta1 (default: the scenario tolerance)
    of the true argmax. This is the batched search of `bsa_slots` run on
    one slot, evaluated through `env.rate`; returns a `BsaBatch` of Python
    scalars.
    """
    env = slot_env(cfg, gains, slot) if env is None else env
    if zeta1 is None:
        zeta1 = (cfg.zeta1_w if cfg is not None else 1e-4 * env.q_c_max)

    def rate(q, rows):
        return np.reshape(env.rate(q.ravel()), q.shape)

    res = _bsa_rows(rate, [env.q_c_feasible], zeta1, env.q_c_max)
    return BsaBatch._make(col.item() for col in res)


def bsa_slots(cfg, gains):
    """`bsa_optimize` of every slot of `gains` at once (isotropic mode),
    to the scenario tolerance `cfg.zeta1_w`.

    Returns a `BsaBatch` whose entries equal the one-slot searches.
    """
    return _bsa_env(slot_env(cfg, gains), cfg.zeta1_w)


@dataclass(frozen=True)
class SlotDecisions:
    """Per-slot transmit design and its achieved metrics, one column per
    field: read-only arrays with one entry per slot, or Python floats for
    one slot. A covert-silent table (`h0_decision`) carries q_c = theta =
    ccp = 0 and the covert-silent connection probability in scp.
    """

    q_b: np.ndarray
    q_c: np.ndarray
    theta: np.ndarray
    r_w: np.ndarray
    r_s: np.ndarray
    scp: np.ndarray      # secret connection probability
    ccp: np.ndarray      # covert connection probability
    rate: np.ndarray     # weighted slot rate

    def __post_init__(self):
        names = [f.name for f in dataclasses.fields(self)]
        cols = np.broadcast_arrays(*(np.asarray(getattr(self, n), dtype=float)
                                     for n in names))
        for name, col in zip(names, cols):
            if col.ndim:
                col = col.copy()
                col.setflags(write=False)
            else:
                col = col.item()
            object.__setattr__(self, name, col)

    def __len__(self):
        return len(self.rate)

    def __getitem__(self, s):
        """The one-slot record of slot s."""
        return SlotDecisions(*(getattr(self, f.name)[s]
                               for f in dataclasses.fields(self)))

    def covertness_residual(self, env):
        """|budget - (p_bw + p_cw)| relative to the budget, per slot of
        the `SlotEnv` env."""
        p_bw = self.q_b * env.g_bw
        p_cw = self.q_c * env.c_cw
        return abs(env.budget - (p_bw + p_cw)) / env.budget


def decision_at(env, q_c):
    """Achieved metrics of every slot of the `SlotEnv` env at the covert
    powers q_c (one `kernels.h1_slot` call); CovertBudgetError naming the
    bound when a slot's cover exceeds the budget."""
    t = kernels.h1_slot(q_c, env)
    env.check_cover(t.p_cw)
    return SlotDecisions(q_b=t.q_b, q_c=q_c, theta=0.0, r_w=t.r_w,
                         r_s=t.r_s, scp=t.scp, ccp=t.scp * t.tail,
                         rate=t.rate)


def h0_decision(env):
    """Covert-user-silent design of every slot of the `SlotEnv` env: the
    secret user transmits at full power with redundancy high enough to
    honor the outage cap (`kernels.h0_slot`)."""
    t = kernels.h0_slot(env.q_b_max, env)
    return SlotDecisions(q_b=env.q_b_max, q_c=0.0, theta=0.0, r_w=t.r_w,
                         r_s=t.r_s, scp=t.scp, ccp=0.0, rate=t.rate)


@dataclass(frozen=True)
class DirectionDecision:
    """Joint (theta, q_c) choice over the rank-one beam family: the unit
    beams and the one-slot design record, which carries theta."""

    u_b: np.ndarray
    u_c: np.ndarray
    decision: SlotDecisions   # one-slot record


def choose_directions(cfg, gains, h_ba, h_ca, h_cw, zeta1=None):
    """Pick beam directions from explicit channel vectors.

    The secret beam is maximum-ratio toward the receiver. The covert beam
    is selected from the two-dimensional mixing family by a coarse angle
    scan (33 angles over [0, pi/2], plus the leakage-nulling angle), each
    angle scored by its own power search; theta = 0 reproduces the pure
    maximum-ratio beam, so the scan never does worse than it.
    Returns the directions and the winning power decision; beamformers are
    exactly rank one (w = sqrt(power) * direction).
    """
    h_ba, h_ca, h_cw = _channel_vectors(h_ba, h_ca, h_cw)
    u_b = h_ba / np.linalg.norm(h_ba)
    e1, e2, alpha_abs, beta = _mixing_basis(h_ca, h_cw)
    if e2 is None:
        angles = np.array([0.0])
    else:
        angles = np.linspace(0.0, 0.5 * math.pi, 33)
        if beta > 0:
            null_theta = math.atan2(alpha_abs, beta)
            angles = np.unique(np.append(angles, null_theta))

    zeta1 = cfg.zeta1_w if zeta1 is None else zeta1

    def score(cands):
        """(theta, q_c, objective) of the best of the angles, the first one
        on ties; one batched power search scores them all."""
        res = _bsa_env(env_from_vectors(cfg, gains, h_ba, h_ca, h_cw, cands),
                       zeta1)
        i = int(np.argmax(res.objective))
        return float(cands[i]), float(res.q_c[i]), res.objective[i]

    best = score(angles)
    if angles.size > 1:
        # refine around the coarse winner: two shrinking local passes
        span = float(np.max(np.diff(angles)))
        for _ in range(2):
            center = best[0]
            local = score(np.linspace(max(center - span, 0.0),
                                      min(center + span, 0.5 * math.pi), 9))
            if local[2] > best[2]:
                best = local
            span /= 4.0
    theta, q_c, _ = best
    env = env_from_vectors(cfg, gains, h_ba, h_ca, h_cw, theta)
    decision = dataclasses.replace(decision_at(env, q_c), theta=theta)
    return DirectionDecision(u_b=u_b, u_c=_beam(e1, e2, theta),
                             decision=decision)


@dataclass(frozen=True)
class Oracle2dResult:
    """Exhaustive search outcome over (covert power, mixing angle)."""

    q_c: float
    theta: float
    objective: float


def oracle_2d(cfg, gains, h_ba, h_ca, h_cw, grid=(64, 64)):
    """Brute-force search of the (q_c, theta) rectangle.

    Used by tests to bound the suboptimality of the bisection plus angle
    scan; grid resolution must be at least 64 x 64.
    """
    n_q, n_theta = grid
    if n_q < 64 or n_theta < 64:
        raise ValueError("oracle grid must be at least 64 x 64")
    h_ba, h_ca, h_cw = _channel_vectors(h_ba, h_ca, h_cw)
    _, e2, _, _ = _mixing_basis(h_ca, h_cw)
    angles = (np.array([0.0]) if e2 is None
              else np.linspace(0.0, 0.5 * math.pi, n_theta))
    q_grid = np.linspace(0.0, cfg.q_c_max_w, n_q)
    env = env_from_vectors(cfg, gains, h_ba, h_ca, h_cw, angles)
    vals = kernels.slot_rate_curve(q_grid, dataclasses.replace(
        env, c_ca=env.c_ca[:, None], c_cw=env.c_cw[:, None]))
    i, ix = np.unravel_index(np.argmax(vals), vals.shape)
    return Oracle2dResult(q_c=float(q_grid[ix]), theta=float(angles[i]),
                          objective=float(vals[i, ix]))


_DECISION_COLUMNS = ("slot", "q_b", "q_c", "theta", "r_w", "r_s",
                     "scp_h1", "ccp", "rate")


def write_decisions_csv(path, decisions):
    """One row per slot of a `SlotDecisions` table (atomic
    temp-plus-rename); the scp column is headed scp_h1."""
    d = decisions
    cols = (d.q_b, d.q_c, d.theta, d.r_w, d.r_s, d.scp, d.ccp, d.rate)
    write_atomic_csv(path, _DECISION_COLUMNS,
                     zip(range(len(d)), *(c.tolist() for c in cols)))
