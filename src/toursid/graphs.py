"""Undirected graphs (`UndirectedGraph`) and the isomorphism test of
digraphs (`are_isomorphic`).

A leaf beside `digraph`: `Digraph.underlying` imports it when called, and the
catalog (`constructions`) and the biclique covers (`covers`) import it; no
scan loads it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .digraph import Digraph, SizeLimitError, bits

ISO_VERTEX_LIMIT = 12


class UndirectedGraph:
    """A loop-free undirected graph stored as symmetric packed bit rows."""

    __slots__ = ("n", "_rows", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {{{u},{v}}} out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                continue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
        self.n = n
        self._rows = tuple(rows)
        self._m = m

    @property
    def edge_count(self) -> int:
        return self._m

    def row(self, v: int) -> int:
        return self._rows[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) with u < v, sorted lexicographically."""
        return [
            (u, v) for u in range(self.n) for v in bits(self._rows[u]) if v > u
        ]

    def is_tree(self) -> bool:
        if self.n == 0 or self._m != self.n - 1:
            return False
        seen = 1
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in bits(self._rows[v] & ~seen):
                seen |= 1 << w
                frontier.append(w)
        return seen == (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UndirectedGraph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"<UndirectedGraph n={self.n} m={self._m}>"


def are_isomorphic(d1: Digraph, d2: Digraph) -> Optional[tuple[int, ...]]:
    """Isomorphism witness (lexicographically least image tuple) or None.

    Degree-refined permutation backtracking; vertices of d1 are assigned in
    natural order with images tried ascending, so the first witness found is
    the lexicographically least. Hard size guard at ISO_VERTEX_LIMIT vertices.
    """
    if max(d1.n, d2.n) > ISO_VERTEX_LIMIT:
        raise SizeLimitError(
            f"isomorphism search is guarded at {ISO_VERTEX_LIMIT} vertices"
        )
    n = d1.n
    if n != d2.n or d1.edge_count != d2.edge_count:
        return None
    pairs1 = sorted((d1.out_degree(v), d1.in_degree(v)) for v in range(n))
    pairs2 = sorted((d2.out_degree(v), d2.in_degree(v)) for v in range(n))
    if pairs1 != pairs2:
        return None

    out1, in1 = d1.out_rows(), d1.in_rows()
    out2, in2 = d2.out_rows(), d2.in_rows()
    cand = [
        [
            w
            for w in range(n)
            if (out2[w].bit_count(), in2[w].bit_count())
            == (out1[v].bit_count(), in1[v].bit_count())
        ]
        for v in range(n)
    ]
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in cand[v]:
            if used[w]:
                continue
            ok = True
            for u in range(v):
                iu = image[u]
                if (out1[u] >> v & 1) != (out2[iu] >> w & 1) or (
                    in1[u] >> v & 1
                ) != (in2[iu] >> w & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        image[v] = -1
        return False

    if extend(0):
        return tuple(image)
    return None
