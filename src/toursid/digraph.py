"""Oriented-graph and tournament data model.

Vertices are the dense integers 0..n-1. Out-adjacency is stored as packed bit
rows (Python ints); in-rows are obtained on demand, by one `_transpose` of the
packed rows, and cached. `Digraph.from_rows` checks orientedness exactly on
every input, with the same transpose instead of a loop over the edges, so
building a large host stays pure Python and never loads numpy. Every
constructor ends in one setter, `_set`, which holds the only check that a
`Tournament` carries an edge on every pair.
This module defines the pair order: bit p of a tournament's pair code
(`pair_count(n)` bits) is set iff i->j for the p-th pair (i, j), i < j, in
lexicographic order. Row i's pairs are consecutive bits, so `from_code` and
`code` work on row slices of the code's binary string, in linear time.
Objects are immutable after construction: every transform returns a fresh
object, so values are safe to share and send across threads.

A digraph here is always *oriented*: no self-loops and no antiparallel edge
pairs. A tournament is a digraph whose orientation is total, i.e. exactly one
directed edge between every pair of distinct vertices.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

ISO_VERTEX_LIMIT = 12


class SizeLimitError(ValueError):
    """Raised when an operation is asked to exceed its hard size guard."""


def vertex_mask(
    vertices: int | Iterable[int], n: int, outside: str, twice: str = "vertex {} is listed twice"
) -> int:
    """The packed bit row of a subset of n vertices given as a mask, or as an
    iterable of distinct vertices. A negative or out-of-range vertex, or a
    mask outside [0, 2^n), is a ValueError with text `outside`, raised before
    anything is shifted; a repeated vertex v is one with `twice.format(v)`."""
    if isinstance(vertices, int):
        if vertices < 0 or vertices >> n:
            raise ValueError(outside)
        return vertices
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(outside)
        if mask >> v & 1:
            raise ValueError(twice.format(v))
        mask |= 1 << v
    return mask


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a packed row, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def pair_count(n: int) -> int:
    """The number of pairs of distinct vertices, the bits of a pair code."""
    return n * (n - 1) // 2


def pair_order(n: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, in pair-code order: pair p is bit p of a code."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The `width` columns of a bit matrix: bit u of column v is bit v of
    rows[u], and no row has a bit at or past `width`.

    Row u is rendered as its width-character bit string, lowest bit first, and
    the rows are concatenated; column v is then every width-th character from
    v, read back as an integer with row 0 as its lowest bit.
    """
    spec = f"0{width}b"
    flat = "".join([format(row, spec)[::-1] for row in rows])
    return tuple([int(flat[v::width][::-1] or "0", 2) for v in range(width)])


def _set(d: "Digraph", rows: tuple[int, ...], m: int) -> "Digraph":
    """Set d's fields over oriented out-rows with m edges, and return d; a
    Tournament must also carry an edge on every pair."""
    if isinstance(d, Tournament) and m != pair_count(len(rows)):
        raise ValueError("not a tournament: some pair carries no edge")
    object.__setattr__(d, "n", len(rows))
    object.__setattr__(d, "_out", rows)
    object.__setattr__(d, "_in", None)
    object.__setattr__(d, "_m", m)
    object.__setattr__(d, "meta", None)
    return d


def _trusted(cls, rows: tuple[int, ...], m: int):
    """An instance of cls over out-rows already known to be oriented, with m edges."""
    return _set(cls.__new__(cls), rows, m)


class Digraph:
    """An oriented graph on vertices 0..n-1.

    Invariants: no vertex is its own out-neighbor, no pair carries edges in
    both directions, and ``edge_count`` equals the sum of out-degrees.
    """

    __slots__ = ("n", "_out", "_in", "_m", "meta")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[v] >> u & 1:
                raise ValueError(f"antiparallel pair on {{{u},{v}}}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            m += 1
        _set(self, tuple(rows), m)

    def __setattr__(self, name, value):
        if name == "meta" and self.meta is None:
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Digraph values are immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Digraph":
        """Build from out-neighbor bit rows, validating orientedness."""
        rows = tuple(rows)
        n = len(rows)
        m = 0
        for u, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {u} has bits beyond vertex {n - 1}")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            m += row.bit_count()
        cols = _transpose(rows, n)
        for u in range(n):
            both = rows[u] & cols[u]
            if both:
                v = (both & -both).bit_length() - 1
                raise ValueError(f"antiparallel pair on {{{u},{v}}}")
        return _trusted(cls, rows, m)

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self._m

    def out(self, v: int) -> int:
        """Out-neighbors of v as a packed row."""
        return self._out[v]

    def inn(self, v: int) -> int:
        """In-neighbors of v as a packed row (cached)."""
        return self.in_rows()[v]

    def out_rows(self) -> tuple[int, ...]:
        return self._out

    def in_rows(self) -> tuple[int, ...]:
        if self._in is None:
            object.__setattr__(self, "_in", _transpose(self._out, self.n))
        return self._in

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._out[u] >> v & 1)

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self._out[u] >> v | self._out[v] >> u) & 1)

    def out_degree(self, v: int) -> int:
        return self._out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.inn(v).bit_count()

    def degree(self, v: int) -> int:
        return self.out_degree(v) + self.in_degree(v)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in bits(self._out[u])]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        tag = f" {self.meta['family']}" if self.meta else ""
        return f"<{type(self).__name__} n={self.n} m={self._m}{tag}>"

    def __reduce__(self):
        return (_rebuild, (type(self), self._out, self.meta))

    # -- primitive transforms ----------------------------------------------

    def reverse(self) -> "Digraph":
        """The digraph with every edge reversed. An involution."""
        return _trusted(type(self), self.in_rows(), self._m)

    def underlying(self) -> "UndirectedGraph":
        """The underlying undirected graph: {u,v} iff u->v or v->u."""
        return UndirectedGraph(
            self.n, [(u, v) for u, v in self.edges()]
        )

    def blowup(self, m: int) -> "Digraph":
        """Balanced m-blowup: vertex v becomes the block v*m..v*m+m-1.

        Each edge becomes m*m block-to-block edges; blocks are independent.
        """
        if m < 1:
            raise ValueError("blowup multiplier must be >= 1")
        rows = [0] * (self.n * m)
        block = (1 << m) - 1
        for u, row in enumerate(self._out):
            target = 0
            for v in bits(row):
                target |= block << (v * m)
            for i in range(m):
                rows[u * m + i] = target
        return Digraph.from_rows(rows)

    def relabel(self, perm: tuple[int, ...]) -> "Digraph":
        """Apply the vertex bijection v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        rows = [0] * self.n
        for u, row in enumerate(self._out):
            for v in bits(row):
                rows[perm[u]] |= 1 << perm[v]
        return type(self).from_rows(rows)


def _rebuild(cls, rows, meta):
    d = cls.from_rows(rows)
    if meta:
        d.meta = meta
    return d


class Tournament(Digraph):
    """A digraph with exactly one edge on every pair of distinct vertices."""

    __slots__ = ()

    @classmethod
    def from_code(cls, n: int, code: int) -> "Tournament":
        """Decode the pair code (see the module docstring)."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        pairs = pair_count(n)
        if not 0 <= code < 1 << pairs:
            raise ValueError(f"pair code out of range for n = {n}: needs 0 <= code < 2^{pairs}")
        word = format(code, f"0{pairs}b")[::-1]  # bit p is word[p]
        # row i beats j > i iff word[start + j - i - 1] is "1"
        upper, start = [], 0
        for i in range(n):
            end = start + n - 1 - i
            upper.append(int(word[start:end][::-1] + "0" * (i + 1), 2))
            start = end
        # i beats j < i iff j does not beat i: the complemented columns
        beaten = _transpose(upper, n)
        rows = tuple(row | ((1 << i) - 1 ^ beaten[i]) for i, row in enumerate(upper))
        return _trusted(cls, rows, pairs)

    def code(self) -> int:
        """The pair code: the rows' upper halves, last row first, are its binary string."""
        out, n = self._out, self.n
        word = "".join([format(out[i] >> i + 1, f"0{n - 1 - i}b") for i in range(n - 2, -1, -1)])
        return int(word or "0", 2)


def transitive_host(n: int) -> Tournament:
    """The transitive tournament with i->j for i<j: every pair code bit set."""
    return Tournament.from_code(n, (1 << pair_count(n)) - 1)


def fill_to_tournament(d: Digraph) -> Tournament:
    """Complete d to a tournament lexicographically: u->v for u<v on every
    non-adjacent pair. The output restricted to d's edge set is d itself."""
    rows = list(d.out_rows())
    for u in range(d.n):
        for v in range(u + 1, d.n):
            if not (rows[u] >> v | rows[v] >> u) & 1:
                rows[u] |= 1 << v
    return Tournament.from_rows(rows)


def disjoint_union(d1: Digraph, d2: Digraph) -> Digraph:
    """Disjoint union; d2's vertices are offset by d1.n."""
    shift = d1.n
    rows = list(d1.out_rows()) + [row << shift for row in d2.out_rows()]
    return Digraph.from_rows(rows)


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
