"""Seedable random number streams.

All randomness in the package flows through Philox counter-based generators
(`numpy.random.Philox`). Philox is stateless-per-key, so a (seed, stream)
pair fully determines the sequence: the same seed reproduces the same draws
on any machine. A worker's key is the base seed XOR the worker index, so
the streams are not independent across nearby seeds: base seeds s and s'
share a key whenever s ^ s' is a worker index in use. A four-chunk Monte
Carlo count (workers 0-3) at any of the seeds 12-15 therefore draws from the
same four keys, 12-15, and gives the same counts.
"""

import numpy as np

__all__ = ["make_rng", "worker_seed"]


def worker_seed(base_seed: int, worker: int = 0) -> int:
    """Derive the key for worker `worker` from a base seed (base XOR index)."""
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    if worker < 0:
        raise ValueError("worker must be non-negative")
    return int(base_seed) ^ int(worker)


def make_rng(seed: int, worker: int = 0) -> np.random.Generator:
    """Return a Philox-backed Generator for (seed, worker)."""
    return np.random.Generator(np.random.Philox(key=worker_seed(seed, worker)))
