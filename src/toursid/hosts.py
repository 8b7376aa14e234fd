"""Host-tournament generators: raw enumeration, isomorphism-class
representatives, and seeded coin tournaments (`coin_rows`, shared by the
uniform hosts and the planted two-block hosts).

Raw enumeration counts through the pair codes and decodes each with
`Tournament.from_code`; `digraph` defines the pair order.

The class table for n <= 8, `tournament_classes.bin`, is loaded on first use
by `_class_table` only. It holds one little-endian int32 per isomorphism
class, n-major with CLASS_COUNTS[n] entries per n (OEIS A000568): the
class's orbit minimum, its smallest pair code, ascending within each n
(`class_codes`). The smallest code is the canonical form of orderly
generation, so the first class at every n is code 0, the transitive
tournament. The brute force over S_n that wrote the table lives with the
tests, which also check it by a pruned search.

Only the seeded coin tournaments use numpy and the counter-based RNG, and
they import both when first called; raw enumeration and the class table are
pure Python, so an exhaustive scan loads neither.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .digraph import SizeLimitError, Tournament, pair_count

# tournaments on n unlabeled vertices, n = 0..8 (OEIS A000568); the table
# holds one code per class, and enumerating n = 9 (191536 classes) is far out
CLASS_COUNTS = (1, 1, 1, 2, 4, 12, 56, 456, 6880)
REPRESENTATIVES_LIMIT = len(CLASS_COUNTS) - 1
_CLASS_TABLE = Path(__file__).with_name("tournament_classes.bin")
# entries of one streamed block: rows of coins here, of sampled maps or of
# sampled quasirandom subsets in `families` and `quasi` (21 rows of 768 at
# n = 768); the exact quasi scan bit-slices 2^14 subsets into each int
# (2 KiB). 2^14 uint64 entries keep each numpy temporary within 128 KiB,
# glibc's default mmap threshold, at any sample count and up to n = 2^14.
_BLOCK = 1 << 14


def _block_rows(width: int) -> int:
    """Rows per streamed block whose widest temporary holds `width` entries
    per row: as many as fit in `_BLOCK` entries, and at least one."""
    return max(1, _BLOCK // max(width, 1))


def all_tournaments(n: int) -> Iterator[Tournament]:
    """Every labeled tournament on n vertices, in pair-code order."""
    for code in range(1 << pair_count(n)):
        yield Tournament.from_code(n, code)


@lru_cache(maxsize=None)
def _class_table() -> tuple[int, ...]:
    data = _CLASS_TABLE.read_bytes()
    size = 4 * sum(CLASS_COUNTS)
    if len(data) != size:
        raise ValueError(
            f"{_CLASS_TABLE.name} holds {len(data)} bytes, expected {size}: "
            f"one int32 code per class for n <= {REPRESENTATIVES_LIMIT}"
        )
    return struct.unpack(f"<{size // 4}i", data)


def class_codes(n: int) -> tuple[int, ...]:
    """The smallest pair code of each isomorphism class of n-vertex
    tournaments, in ascending order."""
    if n > REPRESENTATIVES_LIMIT:
        raise SizeLimitError(f"class table is guarded at n = {REPRESENTATIVES_LIMIT}")
    if n < 0:
        raise ValueError("host size must be nonnegative")
    start = sum(CLASS_COUNTS[:n])
    return _class_table()[start : start + CLASS_COUNTS[n]]


@lru_cache(maxsize=None)
def tournament_representatives(n: int) -> tuple[Tournament, ...]:
    """One tournament per isomorphism class of n-vertex tournaments, the
    smallest code of each, decoded from `class_codes(n)`."""
    return tuple(Tournament.from_code(n, code) for code in class_codes(n))


def coin_rows(n: int, seed: int, boundary: int = 0) -> list[int]:
    """Out-rows of the seeded tournament in which, for every pair i < j,
    i beats j if i < boundary <= j and otherwise iff coin(seed, i, j) is 1.

    The coins come from `blend_array` over chunks of whole rows, so the bits
    equal the scalar `coin` and the temporaries stay bounded at any n.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    import numpy as np

    from .rng import blend_array

    rows: list[int] = []
    cols = np.arange(n)[None, :]
    step = _block_rows(n)
    for start in range(0, n, step):
        i = np.arange(start, min(start + step, n))[:, None]
        lo, hi = np.minimum(i, cols), np.maximum(i, cols)
        # win[i, j]: the smaller endpoint of the pair beats the larger one
        win = (blend_array(seed, lo, hi) & np.uint64(1)).astype(bool)
        win |= (lo < boundary) & (boundary <= hi)
        adj = (win ^ (i > cols)) & (i != cols)
        packed = np.packbits(adj, axis=1, bitorder="little")
        rows.extend(int.from_bytes(r.tobytes(), "little") for r in packed)
    return rows


def uniform_tournament(n: int, seed: int) -> Tournament:
    """Seeded uniform random tournament; each pair is an independent coin."""
    return Tournament.from_rows(coin_rows(n, seed))


def two_block_tournament(n: int, c, seed: int) -> Tournament:
    """Planted two-block host: vertices below floor(c*n) beat vertices at or
    above it; every other pair is a seeded coin."""
    frac = Fraction(c)
    if not 0 <= frac <= 1:
        raise ValueError("block fraction must lie in [0, 1]")
    return Tournament.from_rows(coin_rows(n, seed, math.floor(frac * n)))
