import warnings

import numpy as np
import pytest

from toursid.rng import below, blend, blend_array, coin

SEEDS = (0, 1, -1, 2**63 + 11, 2**64 + 5)
INDEX = np.arange(-3, 6)


def test_blend_reference_vectors():
    # literal splitmix64 outputs; the scalar reference may never drift
    assert blend(0) == 16294208416658607535
    assert blend(1, 2) == 16633411237766777132
    assert blend(2**63 + 11, 5, 7) == 16585654831153576364


def test_coin_and_below_derive_from_blend():
    assert coin(3, 4, 5) == blend(3, 4, 5) & 1
    assert below(3, 7, 4, 5) == blend(3, 4, 5) % 7


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", (0, 1, 2, 3))
def test_blend_array_matches_blend(seed, k):
    # index i varies along axis i, so the result is the full k-dimensional grid
    arrays = [INDEX.reshape((1,) * i + (-1,) + (1,) * (k - 1 - i)) for i in range(k)]
    out = blend_array(seed, *arrays)
    assert out.dtype == np.uint64
    assert out.shape == (len(INDEX),) * k
    for pos in np.ndindex(out.shape):
        assert int(out[pos]) == blend(seed, *(int(INDEX[p]) for p in pos))


def test_blend_array_broadcasts_scalars_and_shapes():
    rows = np.arange(4)[:, None]
    cols = np.arange(3, dtype=np.uint64)
    out = blend_array(9, rows, 2**64 - 1, cols)
    assert out.shape == (4, 3)
    assert all(
        int(out[i, j]) == blend(9, i, 2**64 - 1, j) for i in range(4) for j in range(3)
    )
    assert blend_array(9, np.zeros((0, 5), dtype=np.int64)).shape == (0, 5)
    assert int(blend_array(9, 4)) == blend(9, 4)
    assert blend_array(9).shape == ()


def test_blend_array_rejects_non_integers():
    with pytest.raises(TypeError):
        blend_array(1, np.array([0.5]))


def test_blend_array_raises_no_overflow_warning():
    # numpy scalars warn on the 64-bit wrap-around that splitmix64 relies on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in SEEDS:
            blend_array(seed, 7)
            blend_array(seed, np.int64(-2), np.uint64(2**64 - 1))
            blend_array(seed, INDEX[:, None], INDEX)
