"""make_rng, the package's one stream rule."""

import numpy as np
import pytest

from covertuav.rng import make_rng


def test_stream_is_philox_keyed_by_the_seed_sequence_spawn_key():
    want = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(5, spawn_key=(3,)))).standard_normal(8)
    assert np.array_equal(make_rng(5, worker=3).standard_normal(8), want)
    assert np.array_equal(make_rng(5).standard_normal(8),
                          make_rng(5, worker=0).standard_normal(8))


def test_worker_streams_do_not_alias_nearby_seeds():
    """Worker w at seed s and worker 0 at seed s ^ w draw different
    streams, as do any two (seed, worker) pairs below 16."""
    for seed in range(16):
        for worker in range(1, 16):
            a = make_rng(seed, worker=worker).standard_normal(4)
            b = make_rng(seed ^ worker).standard_normal(4)
            assert not np.array_equal(a, b)
    firsts = {make_rng(seed, worker=worker).integers(2 ** 63)
              for seed in range(16) for worker in range(16)}
    assert len(firsts) == 256


@pytest.mark.parametrize("seed, worker", [(-1, 0), (0, -1)])
def test_negative_seed_or_worker_is_rejected(seed, worker):
    with pytest.raises(ValueError, match="non-negative"):
        make_rng(seed, worker=worker)
