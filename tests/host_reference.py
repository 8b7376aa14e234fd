"""Host enumerations that only the tests use: the class enumeration that wrote
`tournament_classes.bin`, with the invariant it buckets by, and every
oriented graph on a few vertices."""

from itertools import product
from typing import Iterator

from toursid.digraph import Digraph, Tournament, are_isomorphic, bits


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
