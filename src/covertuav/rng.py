"""Seedable random number streams.

All randomness in the package flows through `make_rng`, the one stream
rule: Philox counter-based generators (`numpy.random.Philox`) keyed by a
`numpy.random.SeedSequence` of the seed with the worker index as its spawn
key. Philox is meant to be keyed by independent keys (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), and the
SeedSequence hash gives every (seed, worker) pair its own key, so nearby
seeds share no stream. A (seed, worker) pair fully determines the
sequence, so the same seed reproduces the same draws on any machine.
"""

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int, worker: int = 0) -> np.random.Generator:
    """Return the Philox-backed Generator of stream `worker` under `seed`.

    Both must be non-negative integers (SeedSequence raises ValueError
    otherwise).
    """
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=(int(worker),))))
