"""Quasirandom direction, the code of the `quasi` command: the least eps
with e(A, B) - e(B, A) <= eps n^2 over disjoint vertex subsets A, B of a
tournament (`quasirandom_epsilon`).

The exact scan (`_exact_best`) bit-slices 2^14 subsets into each Python int
and never imports numpy. The sampled scan imports numpy, `rng.blend_array`
and `families._packed_rows` when it is first run, so the exact scan loads
none of them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .counting import HostCounts, _add_plane
from .digraph import Tournament, bits
from .hosts import _block_rows

QUASI_EXACT_LIMIT = 20


def quasirandom_epsilon(
    t: Tournament,
    mode: str = "exact",
    *,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Fraction:
    """Minimal eps with e(A,B) - e(B,A) <= eps n^2 over disjoint subset pairs.

    For fixed A the optimal B takes every vertex outside A with positive
    signed in-degree toward A. Exact mode scans all 2^n subsets A (guarded at
    n = 20) on bit-sliced Python ints, without numpy. Sampled mode draws
    seeded random subsets A as 64-bit word masks, as many blocks of
    `hosts._block_rows(n)` subsets at a time as fit in `hosts._BLOCK` words,
    and returns the high-water value, an exact lower bound on the true eps.
    A block adds the popcounts of its subsets' word w against word w of
    every out-row into its subsets x vertices counter, one word at a time.
    Both modes work in fixed-size blocks, so memory stays bounded at any n.
    """
    n = t.n
    if n <= 1:
        return Fraction(0)
    if mode == "exact":
        if n > QUASI_EXACT_LIMIT:
            raise ValueError(f"exact scan is guarded at n = {QUASI_EXACT_LIMIT}")
        return Fraction(_exact_best(t), n * n)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None or seed is None:
        raise ValueError("sampled mode needs samples and seed")
    if samples < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    from .families import _packed_rows
    from .rng import blend_array

    words = (n + 63) // 64
    # out_cols[w]: word w of every vertex's out-row
    out_cols = np.ascontiguousarray(_packed_rows(t).T)
    step = _block_rows(n)
    # the words of as many whole blocks as fit in _BLOCK entries are drawn in
    # one `blend_array` call: one call for 1000 subsets at n = 768
    chunk = step * _block_rows(step * words)
    best = 0
    for first in range(0, samples, chunk):
        # word w of subset A_j is blend(seed, j, w), cut to the n vertices
        j = np.arange(first, min(first + chunk, samples))[:, None]
        drawn = blend_array(seed, j, np.arange(words))
        if n % 64:
            drawn[:, -1] &= np.uint64((1 << (n % 64)) - 1)
        for start in range(0, len(drawn), step):
            a = drawn[start : start + step]
            meet = np.zeros((len(a), n), np.int32)
            for w in range(words):
                meet += np.bitwise_count(a[:, w, None] & out_cols[w])
            # v outside A adds the positive part of its signed in-degree toward
            # A, |in(v) & A| - |out(v) & A| = |A| - 2 |out(v) & A| in a tournament
            signed = np.bitwise_count(a).sum(axis=1, dtype=np.int32)[:, None] - 2 * meet
            little = a.astype("<u8", copy=False).view(np.uint8)  # bytes of A, LSB first
            inside = np.unpackbits(little, axis=1, count=n, bitorder="little")
            positive = np.maximum(signed, 0) * (inside == 0)
            best = max(best, int(positive.sum(axis=1).max()))
    return Fraction(best, n * n)


def _exact_best(t: Tournament) -> int:
    """The largest sum over v outside A of max(0, |in(v) & A| - |out(v) & A|)
    over all subsets A, bit-sliced: bit a of column X_u says whether vertex
    u < b is in subset a, and each block of 2^b subsets fixes the others."""
    from .hosts import _BLOCK  # read per call, so a patched block size holds

    n, rows = t.n, t.out_rows()
    b = min(n, _BLOCK.bit_length() - 1)
    full, low, k = (1 << (1 << b)) - 1, (1 << b) - 1, (n - 1).bit_length()
    cols = [((1 << (1 << u)) - 1 << (1 << u)) * (full // ((1 << (2 << u)) - 1)) for u in range(b)]
    outside = [col ^ full for col in cols] + [full] * (n - b)
    # per v, the count of its literals X_u (u -> v) and ~X_u (v -> u), u < b
    counters: list[list[int]] = [[] for _ in range(n)]
    for v, u in itertools.product(range(n), range(b)):
        if u != v:
            _add_plane(counters[v], cols[u] if rows[u] >> v & 1 else outside[u], 0)
    best, cache = 0, {}
    for high in range(0, 1 << n, 1 << b):
        acc: list[int] = []
        for v in bits(~high & ((1 << n) - 1)):
            # c = 2^k + |in(v) & high| - |out(v) & high| - |out(v) & low|, so
            # counter + c = 2^k + signed in-degree < 2^(k+1): plane k is its sign
            c = (1 << k) + (high & ~rows[v]).bit_count() - (rows[v] & (high | low)).bit_count()
            if (v, c) not in cache:
                x = list(counters[v])
                for j in bits(c):
                    _add_plane(x, full, j)
                sign = (x + [0] * k)[k] & outside[v]
                cache[v, c] = [p & sign for p in x[:k]]
            for j, p in enumerate(cache[v, c]):
                _add_plane(acc, p, j)
        best = max(best, HostCounts(1 << b, acc).max()[0])
    return best
