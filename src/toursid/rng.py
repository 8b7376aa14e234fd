"""Counter-based deterministic randomness.

Every randomized routine in the package derives its bits from explicit
(seed, index, ...) tuples through splitmix64 (Steele, Lea and Flood, *Fast
splittable pseudorandom number generators*, OOPSLA 2014), so outputs are
reproducible across platforms and runs. There is no global RNG state
anywhere.

The scalar `blend`, `coin` and `below` are the reference. `blend_array` is
their vectorised numpy twin: it broadcasts arrays of indices and returns
exactly `blend`'s bits as `uint64`, so every hot loop draws its bits through
it without changing a single output. The scalar functions are pure Python;
numpy is imported by the array functions when they are first called, so a
process that only uses the scalars never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def blend(seed: int, *indices: int) -> int:
    """64-bit hash of (seed, *indices); uniform and platform-stable."""
    h = _mix((seed + _GOLDEN) & _MASK)
    for ix in indices:
        h = _mix(h ^ _mix((ix + _GOLDEN) & _MASK))
    return h


def coin(seed: int, *indices: int) -> int:
    """A single deterministic coin flip in {0, 1}."""
    return blend(seed, *indices) & 1


def below(seed: int, bound: int, *indices: int) -> int:
    """Deterministic integer in [0, bound).

    Modulo bias is negligible for bound << 2**64.
    """
    return blend(seed, *indices) % bound


def _mix_array(x: np.ndarray) -> np.ndarray:
    """`_mix` in place on a uint64 array (array arithmetic wraps silently)."""
    import numpy as np

    x ^= x >> np.uint64(30)
    x *= np.uint64(_M1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_M2)
    x ^= x >> np.uint64(31)
    return x


def _as_uint64(ix) -> np.ndarray:
    import numpy as np

    if isinstance(ix, int):
        ix &= _MASK
    arr = np.asarray(ix)
    if arr.dtype.kind not in "iub":
        raise TypeError(f"blend_array indices must be integers, not {arr.dtype}")
    return arr.astype(np.uint64)


def blend_array(seed: int, *indices) -> np.ndarray:
    """`blend(seed, *indices)` for every element of the broadcast indices.

    Each index is an integer or an integer array; negative entries wrap
    modulo 2**64 exactly as in `blend`. Returns a uint64 array of the
    broadcast shape whose entries equal the scalar `blend` bit for bit.
    Each index is mixed at its own shape and the running hash at the shape
    of the indices so far, so a column of sample indices against a row of
    slots is mixed once per sample, not once per slot.
    """
    import numpy as np

    arrays = [_as_uint64(ix) for ix in indices]
    shape = np.broadcast_shapes(*(arr.shape for arr in arrays))
    # work on copies of at least one dimension: 0-d operands would decay to
    # numpy scalars, whose multiplications warn on the intended 64-bit
    # wrap-around
    ndim = max(len(shape), 1)
    h = np.full((1,) * ndim, _mix((seed + _GOLDEN) & _MASK), dtype=np.uint64)
    for arr in arrays:
        x = arr.reshape((1,) * (ndim - arr.ndim) + arr.shape) + np.uint64(_GOLDEN)
        h = h ^ _mix_array(x)
        _mix_array(h)
    return h.reshape(shape)
