"""Host enumerations that only the tests use: the class enumeration and the
orbit-minimum brute force that wrote `tournament_classes.bin`, the pruned
orbit-minimum search that checks it, the bit columns of every raw host, the
invariant the enumeration buckets by, every oriented graph on a few
vertices, the per-pair pair-code decode and encode that the row-slice
codec of `Tournament.from_code` and `Tournament.code` must equal, and the
numpy block loop that the bit-sliced exact quasirandom scan must equal, and
the popcount cube that the word-sliced sampled scan must equal."""

from fractions import Fraction
from itertools import permutations, product
from typing import Iterator, Sequence

from toursid.graphs import are_isomorphic
from toursid.counting import HostColumns
from toursid.digraph import Digraph, Tournament, bits, pair_count
from toursid.families import _packed_rows
from toursid.hosts import _block_rows
from toursid.rng import blend_array


def pairwise_from_code(n: int, code: int) -> Tournament:
    """Decode a pair code one pair at a time: bit p set means i->j for the
    p-th pair (i, j), i < j, in lexicographic order."""
    rows = [0] * n
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            if code >> p & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
            p += 1
    return Tournament.from_rows(rows)


def pairwise_code(t: Tournament) -> int:
    """Encode a tournament's pair code one pair at a time."""
    c = 0
    p = 0
    for i in range(t.n):
        for j in range(i + 1, t.n):
            if t.has_edge(i, j):
                c |= 1 << p
            p += 1
    return c


def local_triangles(t: Tournament, v: int) -> int:
    """Number of cyclic triangles through v; an isomorphism invariant."""
    inr = t.in_rows()
    return sum((t.out(u) & inr[v]).bit_count() for u in bits(t.out(v)))


def invariant_key(t: Tournament) -> tuple:
    return tuple(sorted((t.out_degree(v), local_triangles(t, v)) for v in range(t.n)))


def enumerate_representatives(n: int) -> list[Tournament]:
    """The enumeration that wrote the class table; the tests' reference.

    Extends the (n-1)-vertex class list by every in/out pattern of a new
    vertex and dedups with the exact isomorphism backtracker. Deterministic:
    candidates are generated in (parent class, extension pattern) order and
    kept on first appearance of their class.
    """
    if n <= 1:
        return [Tournament.from_rows([0] * n)]
    reps: list[Tournament] = []
    buckets: dict[tuple, list[Tournament]] = {}
    for parent in enumerate_representatives(n - 1):
        base = parent.out_rows()
        for pattern in range(1 << (n - 1)):
            # new vertex n-1 beats exactly the pattern bits
            rows = [
                base[v] | (0 if pattern >> v & 1 else 1 << (n - 1))
                for v in range(n - 1)
            ]
            rows.append(pattern)
            cand = Tournament.from_rows(rows)
            key = invariant_key(cand)
            bucket = buckets.setdefault(key, [])
            if not any(are_isomorphic(cand, seen) for seen in bucket):
                bucket.append(cand)
                reps.append(cand)
    return reps


def all_oriented_graphs(n: int) -> Iterator[Digraph]:
    """Every oriented graph on n vertices (3 states per pair)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for states in product((0, 1, 2), repeat=len(pairs)):
        rows = [0] * n
        for (i, j), s in zip(pairs, states):
            if s == 1:
                rows[i] |= 1 << j
            elif s == 2:
                rows[j] |= 1 << i
        yield Digraph.from_rows(rows)


def raw_columns(n: int) -> HostColumns:
    """Every n-vertex pair code in code order: host h has code h."""
    pairs = pair_count(n)
    cols = []
    for p in range(pairs):
        # bit p of h: 2^p zeros, then 2^p ones, repeated
        col, width = ((1 << (1 << p)) - 1) << (1 << p), 2 << p
        while width < 1 << pairs:
            col |= col << width
            width <<= 1
        cols.append(col)
    return HostColumns(n, 1 << pairs, cols)


def brute_orbit_minima(n: int, codes: Sequence[int], batch: int = 64) -> list[int]:
    """The smallest pair code isomorphic to each code, by relabelling it with
    every permutation of [n] (numpy; about 2 s at n = 8).

    Relabelling by s sends bit p(i, j) of a code to bit p(s(i), s(j)) when
    s(i) < s(j), and its complement to bit p(s(j), s(i)) otherwise. So an
    image code is a fixed base plus the dot product of the code's bits with a
    per-permutation delta; float64 products of codes below 2^28 are exact.
    """
    import numpy as np

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = np.zeros((n, n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        index[i, j] = index[j, i] = k
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    a = perms[:, [i for i, _ in pairs]]
    b = perms[:, [j for _, j in pairs]]
    weight = (1 << index[a, b]).astype(np.float64)
    flip = a > b
    # bit 1 lands on weight unless flipped; bit 0 lands there only if flipped
    base = (weight * flip).sum(axis=1)
    delta = np.where(flip, -weight, weight)
    shifts = np.arange(len(pairs))
    out: list[int] = []
    for start in range(0, len(codes), batch):
        chunk = np.array(codes[start : start + batch], dtype=np.int64)
        code_bits = (chunk[None, :] >> shifts[:, None] & 1).astype(np.float64)
        images = base[:, None] + delta @ code_bits
        out.extend(int(m) for m in images.min(axis=0))
    return out


def pruned_orbit_minimum(t: Tournament) -> int:
    """The smallest pair code isomorphic to t, by a pruned search (about 3 s
    over the 6880 classes at n = 8).

    Host labels are assigned from n-1 down to 0, so the most significant
    code bits are fixed first: label k's bits are p(k, j) for j > k, highest
    j first, and bit p(k, j) is 1 iff label k beats label j. Only the free
    vertices with the smallest such beats-vector can take the next label;
    ties branch, and a prefix above the best code found so far is cut.
    """
    pairs, out = pair_count(t.n), t.out_rows()
    best = 1 << pairs

    def place(free: list[tuple[int, int]], key: int, depth: int) -> None:
        # free holds (beats-vector against the placed labels, vertex)
        nonlocal best
        if key > best >> (pairs - pair_count(depth)):
            return
        if not free:
            best = key
            return
        low = min(free)[0]
        for vec, v in free:
            if vec == low:
                rest = [(w << 1 | (out[u] >> v & 1), u) for w, u in free if u != v]
                place(rest, key << depth | low, depth + 1)

    place([(0, v) for v in range(t.n)], 0, 0)
    return best


def numpy_quasi_epsilon(t: Tournament) -> Fraction:
    """Exact quasirandom eps by the numpy block loop that the bit-sliced scan
    replaced: all 2^n subsets as uint64 masks in blocks of rows, with the
    signed in-degrees counted by popcounts (n <= 64)."""
    import numpy as np

    n = t.n
    if n <= 1:
        return Fraction(0)
    step, out_words = _block_rows(n), _packed_rows(t)
    v = np.arange(n)
    word_of, bit_of = v >> 6, (v & 63).astype(np.uint64)
    best = 0
    for lo in range(0, 1 << n, step):
        a = np.arange(lo, min(lo + step, 1 << n), dtype=np.uint64)[:, None]
        # for v outside A the signed in-degree toward A is
        # |in(v) & A| - |out(v) & A| = |A| - 2 |out(v) & A| in a tournament
        size = np.bitwise_count(a).sum(axis=1, dtype=np.int32)
        meet = np.bitwise_count(a[:, None, :] & out_words).sum(axis=2, dtype=np.int32)
        signed = size[:, None] - 2 * meet
        signed[(a[:, word_of] >> bit_of & np.uint64(1)).astype(bool)] = 0
        np.maximum(signed, 0, out=signed)
        best = max(best, int(signed.sum(axis=1).max()))
    return Fraction(best, n * n)


def cube_sampled_quasi_epsilon(t: Tournament, samples: int, seed: int) -> Fraction:
    """Sampled quasirandom eps by the popcount cube that the word-sliced scan
    replaced: each block's subsets meet every out-row in one
    subsets x vertices x words array, summed over its last axis."""
    import numpy as np

    n = t.n
    if n <= 1:
        return Fraction(0)
    out_words = _packed_rows(t)
    v, words = np.arange(n), (n + 63) // 64
    word_of, bit_of = v >> 6, (v & 63).astype(np.uint64)
    step = _block_rows(n * words)
    best = 0
    for start in range(0, samples, step):
        # word w of subset A_j is blend(seed, j, w), cut to the n vertices
        j = np.arange(start, min(start + step, samples))[:, None]
        a = blend_array(seed, j, np.arange(words))
        if n % 64:
            a[:, -1] &= np.uint64((1 << (n % 64)) - 1)
        size = np.bitwise_count(a).sum(axis=1, dtype=np.int32)
        meet = np.bitwise_count(a[:, None, :] & out_words).sum(axis=2, dtype=np.int32)
        signed = size[:, None] - 2 * meet
        signed[(a[:, word_of] >> bit_of & np.uint64(1)).astype(bool)] = 0
        np.maximum(signed, 0, out=signed)
        best = max(best, int(signed.sum(axis=1).max()))
    return Fraction(best, n * n)
