"""Monte Carlo validation of the closed-form security metrics.

Every estimator here rebuilds its probability event from raw complex-Gaussian
draws (standard normals scaled by the link powers) and counts successes; none
of them evaluate the closed-form expressions.

Every estimator counts through one chunked counter (`_count_hits`): chunk
w of the samples draws from `make_rng(seed, worker=w)`, and the chunks are
counted on the CPUs the process may use, the calling thread taking every
k-th one and a shared pool of helper threads the rest. Counts are summed as
integers, so every estimate is bit-identical to the serial loop's whatever
the CPU count and the order in which chunks finish. Draws are streamed in
fixed-size blocks, so a chunk in flight holds little more than its output.
The agreement sweep keys each row with `_row_seed`, a hash of the base seed
and the row index, so no row replays another row's stream at a nearby base
seed.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels, secmetrics
from ._csvio import write_atomic_csv
from .channel import rician_fading
from .rng import make_rng

__all__ = ["McEstimate", "MIN_SAMPLES",
           "estimate_scp_h0", "estimate_scp_h1", "estimate_sop_h0",
           "estimate_sop_h1", "estimate_ccp",
           "mc_scp_h1", "mc_dep",
           "AgreementRow", "agreement_suite", "write_agreement_csv"]

MIN_SAMPLES = 10_000
_CHUNK = 250_000
_TRIAL_CHUNK = 2_500
_BLOCK = 32_768     # normals per streamed draw block


@dataclass(frozen=True)
class McEstimate:
    """Binomial point estimate with a 95% confidence half-width."""

    estimate: float
    n_samples: int
    half_width: float

    def agrees_with(self, value):
        """True when `value` lies inside the confidence interval."""
        return abs(float(value) - self.estimate) <= self.half_width


def _binomial(hits, n):
    p = hits / n
    return McEstimate(estimate=p, n_samples=n,
                      half_width=1.96 * math.sqrt(p * (1.0 - p) / n))


def _check_samples(samples):
    samples = int(samples)
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    return samples


def _cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


_POOL = None    # (executor, helper count), built on the first parallel count


def _helper_pool(helpers):
    """The shared pool of at least `helpers` threads, built on first use."""
    global _POOL
    if _POOL is None or _POOL[1] < helpers:
        from concurrent.futures import ThreadPoolExecutor
        if _POOL is not None:
            _POOL[0].shutdown(wait=False)
        _POOL = (ThreadPoolExecutor(helpers, thread_name_prefix="mc-chunk"),
                 helpers)
    return _POOL[0]


def _count_hits(event, samples, seed, chunk=_CHUNK):
    """Sum of event(rng, n) over chunks of at most `chunk` samples, chunk w
    drawing from `make_rng(seed, worker=w)`; an event may count several
    outcomes at once as an array.

    With k = min(chunks, CPUs) > 1, the calling thread counts chunks 0, k,
    2k, ... and k - 1 pool threads the other residues. If a chunk raises,
    the chunks not yet started are dropped and that exception is raised.
    """
    chunks = -(-samples // chunk)
    k = min(chunks, _cpus())
    failed = []

    def count(first):
        hits = 0
        try:
            for worker in range(first, chunks, k):
                if failed:
                    break
                hits += event(make_rng(seed, worker=worker),
                              min(chunk, samples - worker * chunk))
        except BaseException:
            failed.append(True)
            raise
        return hits

    if k == 1:
        return count(0)
    pool = _helper_pool(k - 1)
    helpers = [pool.submit(count, first) for first in range(1, k)]
    try:
        hits = count(0)
        for future in helpers:
            hits += future.result()
    except BaseException:
        failed.append(True)
        for future in helpers:
            if not future.cancel():
                future.exception()      # let a running chunk finish
        raise
    return hits


def _estimate(event, samples, seed):
    """Binomial estimate of the event's probability from `samples` draws."""
    samples = _check_samples(samples)
    return _binomial(int(_count_hits(event, samples, seed)), samples)


def _exp_power(rng, mean, n):
    """n draws of |z|^2 with z complex Gaussian of variance `mean`.

    The n real parts are drawn at once and the n imaginary parts in blocks
    of `_BLOCK` through one buffer. A Generator's stream does not depend on
    the call sizes, so this is (0.5*mean)*(re*re + im*im) of one-shot draws
    bit for bit: the same operations in the same order.
    """
    out = rng.standard_normal(n)
    out *= out
    buf = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        part = out[start:start + _BLOCK]
        im = buf[:len(part)]
        rng.standard_normal(out=im)
        im *= im
        part += im
    out *= 0.5 * mean
    return out


# -- power-parameterized event estimators --------------------------------------


def _estimate_tail(power, noise, rate, samples, seed):
    """Empirical Pr{faded power >= (2^rate - 1) noise}, the power
    exponential with mean `power`."""
    threshold = (2.0 ** rate - 1.0) * noise

    def event(rng, n):
        return np.count_nonzero(_exp_power(rng, power, n) >= threshold)

    return _estimate(event, samples, seed)


def estimate_scp_h0(p_ba, sigma_a2, r_t, samples=100_000, seed=0):
    """Empirical Pr{faded secret power >= (2^r_t - 1) sigma_a2}."""
    return _estimate_tail(p_ba, sigma_a2, r_t, samples, seed)


def estimate_scp_h1(p_ba, p_ca, sigma_a2, r_t, samples=100_000, seed=0):
    """Empirical Pr{p_ba / (faded interference + noise) >= 2^r_t - 1}.

    The secret beamformed power is held fixed; the interference from the
    covert stream fades with mean p_ca, matching the event behind the
    interference-limited connection formula.
    """
    gamma = 2.0 ** r_t - 1.0

    def event(rng, n):
        threshold = _exp_power(rng, p_ca, n)
        threshold += sigma_a2
        threshold *= gamma
        return np.count_nonzero(p_ba >= threshold)

    return _estimate(event, samples, seed)


def estimate_sop_h0(p_bw, sigma_w2, r_w, samples=100_000, seed=0):
    """Empirical Pr{faded leakage power >= (2^r_w - 1) sigma_w2}."""
    return _estimate_tail(p_bw, sigma_w2, r_w, samples, seed)


def estimate_sop_h1(p_bw, p_cw, sigma_w2, r_w, samples=100_000, seed=0):
    """Empirical Pr{faded leakage / (faded cover + noise) >= 2^r_w - 1}.

    Both the secret leakage (mean p_bw) and the covert cover (mean p_cw)
    are drawn per sample, so the event is the one behind sop_h1 and, at
    zero cover, behind sop_h0.
    """
    gamma = 2.0 ** r_w - 1.0

    def event(rng, n):
        leakage = _exp_power(rng, p_bw, n)
        threshold = _exp_power(rng, p_cw, n)
        threshold += sigma_w2
        threshold *= gamma
        return np.count_nonzero(leakage >= threshold)

    return _estimate(event, samples, seed)


def estimate_ccp(p_ba, p_ca, sigma_a2, r_t, r_c, samples=100_000, seed=0):
    """Empirical joint probability of secret decode and covert connection.

    The interference seen while decoding the secret stream and the covert
    link gain after cancellation are independent fading blocks (the model
    treats the two SNRs as independent), so each sample uses two draws.
    """
    gamma_t = 2.0 ** r_t - 1.0
    gamma_c = 2.0 ** r_c - 1.0

    def event(rng, n):
        threshold = _exp_power(rng, p_ca, n)
        covert = _exp_power(rng, p_ca, n)
        threshold += sigma_a2
        threshold *= gamma_t
        ok = p_ba >= threshold
        ok &= covert >= gamma_c * sigma_a2
        return np.count_nonzero(ok)

    return _estimate(event, samples, seed)


# -- randomized agreement sweep -------------------------------------------------

# metric -> the link fields its closed form (`secmetrics.<metric>`) and its
# estimator (`estimate_<metric>`) both take, in order; the two functions are
# looked up by name at call time, so a patched or traced one is the one run
_AGREEMENT = {
    "scp_h0": ("p_ba", "sigma_a2", "r_t"),
    "scp_h1": ("p_ba", "p_ca", "sigma_a2", "r_t"),
    "sop_h0": ("p_bw", "sigma_w2", "r_w"),
    "sop_h1": ("p_bw", "p_cw", "sigma_w2", "r_w"),
    "ccp": ("p_ba", "p_ca", "sigma_a2", "r_t", "r_c"),
}


def _random_link(rng):
    """One random parameter set with every metric away from 0/1 saturation.

    Noise is the unit of power (the events are scale-free), rates are drawn
    first and the mean powers back-solved so the exponential tails land at
    moderate probabilities.
    """
    r_t = float(rng.uniform(0.8, 4.0))
    r_w = float(rng.uniform(0.3, r_t))
    r_c = float(rng.uniform(0.2, 1.5))
    p_ba = (2.0 ** r_t - 1.0) / float(rng.uniform(0.25, 2.0))
    p_ca = float(rng.uniform(0.4, 3.0))
    p_bw = (2.0 ** r_w - 1.0) / float(rng.uniform(0.25, 2.0))
    p_cw = float(rng.uniform(0.2, 2.0)) * p_bw
    return dict(p_ba=p_ba, p_ca=p_ca, p_bw=p_bw, p_cw=p_cw,
                sigma_a2=1.0, sigma_w2=1.0, r_t=r_t, r_w=r_w, r_c=r_c)


def _row_seed(base_seed, idx):
    """Hash-mixed per-row key so nearby base seeds never share streams.

    The XOR worker scheme keeps chunk keys adjacent by design; rows of the
    agreement sweep instead need keys spread over the whole key space, or
    sweeps at nearby base seeds would re-toss the same coins.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=(71, int(idx)))
    return int(ss.generate_state(1, np.uint64)[0])


def agreement_suite(samples=100_000, seed=0, sets_per_metric=4):
    """Randomized closed-form-vs-simulation rows, one metric per row.

    Draws `sets_per_metric` fresh parameter sets for each of the five
    connection/outage metrics (20 rows by default). Links whose closed value
    saturates below 0.02 or above 0.98 are redrawn, keeping every comparison
    in the regime where the binomial interval is informative. Fully
    deterministic for a given base seed.
    """
    rng = make_rng(seed, worker=9_001)
    metrics = list(_AGREEMENT)
    rows = []
    for idx in range(int(sets_per_metric) * len(metrics)):
        metric = metrics[idx % len(metrics)]
        for _ in range(200):
            link = _random_link(rng)
            args = [link[field] for field in _AGREEMENT[metric]]
            closed = float(getattr(secmetrics, metric)(*args))
            if 0.02 <= closed <= 0.98:
                break
        row_seed = _row_seed(seed, idx)
        est = globals()[f"estimate_{metric}"](*args, samples=samples,
                                              seed=row_seed)
        rows.append(AgreementRow(metric=metric, closed_form=closed,
                                 mc_estimate=est.estimate, ci=est.half_width,
                                 samples=est.n_samples, seed=row_seed))
    return rows


# -- physical-layer estimators over explicit beamformers ------------------------


def mc_scp_h1(cfg, gains, beamformers, samples=100_000, seed=0, slot=0):
    """Vector-channel secret connection estimate for one slot.

    Draws the covert user's air channel as independent Rayleigh vectors
    against the fixed covert beamformer, with the secret beamformed power at
    its deterministic full-trace value. `beamformers` is the (w_b, w_c)
    pair of complex weight vectors.
    """
    w_b, w_c = (np.asarray(w, dtype=complex) for w in beamformers)
    if w_b.shape != (cfg.n_b,) or w_c.shape != (cfg.n_c,):
        raise ValueError("beamformer shapes must match the antenna counts")
    p_ba = float(np.vdot(w_b, w_b).real) * (cfg.n_b * gains.a2_ba[slot])
    gamma, sigma, a2 = 2.0 ** cfg.r_t - 1.0, cfg.sigma_a2_w, gains.a2_ca[slot]

    def event(rng, n):   # K = 0: Rayleigh
        h = math.sqrt(a2) * rician_fading(rng, len(w_c), 0.0, size=n)
        interference = np.abs(h.conj() @ w_c) ** 2
        return np.count_nonzero(p_ba >= gamma * (interference + sigma))

    return _estimate(event, samples, seed)


def mc_dep(stats, q_th=None, trials=10_000, seed=0):
    """Symbol-level radiometer simulation of the detector's error rates.

    Each trial draws m complex symbols under each hypothesis, averages the
    received power and compares against the threshold. Returns McEstimates
    for (P_F, P_M, P_e); the P_e row reuses the summed counts, with a
    conservative summed half-width.
    """
    trials = _check_samples(trials)
    q = stats.q_th if q_th is None else float(q_th)
    if q <= 0:
        raise ValueError("threshold q_th must be positive")
    m = int(stats.m)
    rows = max(1, _BLOCK // (2 * m))

    def statistic(rng, n, scale):
        # the (n, 2m) draw in row blocks of one stream, so the per-trial
        # statistics are those of a one-shot draw
        return np.concatenate([
            kernels.radiometer_statistic(
                rng.standard_normal((min(rows, n - start), 2 * m)), scale)
            for start in range(0, n, rows)])

    def event(rng, n):
        t0 = statistic(rng, n, stats.sigma0)
        t1 = statistic(rng, n, stats.sigma1)
        return np.array([np.count_nonzero(t0 > q), np.count_nonzero(t1 <= q)])

    fa, md = _count_hits(event, trials, seed, chunk=_TRIAL_CHUNK)
    p_f = _binomial(int(fa), trials)
    p_m = _binomial(int(md), trials)
    p_e = McEstimate(estimate=p_f.estimate + p_m.estimate, n_samples=trials,
                     half_width=p_f.half_width + p_m.half_width)
    return p_f, p_m, p_e


# -- agreement reporting ---------------------------------------------------------


@dataclass(frozen=True)
class AgreementRow:
    """Closed-form-vs-Monte-Carlo comparison for one metric evaluation."""

    metric: str
    closed_form: float
    mc_estimate: float
    ci: float
    samples: int
    seed: int

    @property
    def agrees(self):
        return abs(self.closed_form - self.mc_estimate) <= self.ci


def write_agreement_csv(path, rows):
    """Write AgreementRows to CSV (atomic temp-plus-rename)."""
    write_atomic_csv(path, ("metric", "closed_form", "mc_estimate", "ci",
                            "samples", "seed"),
                     [[row.metric, row.closed_form, row.mc_estimate, row.ci,
                       row.samples, row.seed] for row in rows])
