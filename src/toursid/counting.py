"""The counting layer of the exhaustive scans, and what every engine shares.

`_plan` compiles a pattern and its pinned set, once and cached, into the
walk that both exact engines take: a vertex order and each position's edges
to earlier positions. Both count the unpinned degree-0 vertices in closed
form, outside the walk.

* the count table, for exhaustive scans, lives here. `count_table` compiles a
  pattern once per host size n into a list of (pair-code mask, required bits,
  multiplicity) rows, one per distinct constraint set of an injective map
  into [n], and `labeled_counts` evaluates sum mult * [(code & mask) == req]
  in one pass over those rows, bit-sliced in plain Python ints: the hosts are
  `HostColumns` (one int per pair bit, one bit per host), a row's hosts are
  the AND of its columns, and each row's hits are ripple-added into a
  `HostCounts` vertical counter (one int per count bit), so every host of a
  size is counted at once and no numpy is imported;
* the backtracker and the single-host counters built on it
  (`count_homomorphisms`, `count_labeled`, `count_labeled_pinned`,
  `density`, `CountResult`), with the oracle `oracle_count` that checks both
  engines, live in `search`, which imports this module; this module does not
  import it, so a process that only scans exhaustively never loads it. The
  four counters can still be read here, forwarded by `toursid._forward`.

`labeled_bound` is the one baseline 2^(-e(D)) n^(v(D)-|I|) of every labeled
count, I being the pinned set (empty unless a pinned count is given the
required anchor of I).

Every engine checks its work against one budget, `work_budget()`: the
backtracker counts its expansions, and the count table and the oracle check
their enumeration volume before they start. The budget is set only by the
TOURSID_BUDGET environment variable (default DEFAULT_BUDGET); no function
takes it as an argument.

All verdict arithmetic (bounds, ratios) is exact: big integers and Fractions.
No report is serialized here; the `*_approx` floats are written by callers.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, NamedTuple, Optional, Sequence

from . import _forward
from .digraph import (
    Digraph,
    SizeLimitError,
    _transpose,
    bits,
    pair_count,
    pair_order,
    vertex_mask,
)

__getattr__ = _forward(
    __name__, "count_homomorphisms", "count_labeled", "count_labeled_pinned", "density"
)


DEFAULT_BUDGET = 10**9
_BUDGET_ENV = "TOURSID_BUDGET"

# deepest pattern the recursive backtracker accepts; well under Python's
# default recursion limit of 1000, leaving room for the callers' frames
SEARCH_DEPTH_LIMIT = 500

_OUTSIDE = "pinned set is not a subset of the pattern vertices"


class BudgetExceededError(RuntimeError):
    """The projected or accumulated search work exceeded the ceiling."""


def work_budget() -> int:
    """The work budget of every engine: the TOURSID_BUDGET environment
    variable, or DEFAULT_BUDGET when it is unset or empty. This is the one
    reader of the variable and the one budget setting, for the CLI and the
    library alike; a value that is not a non-negative integer is a
    ValueError that names the variable."""
    env = os.environ.get(_BUDGET_ENV)
    if not env:
        return DEFAULT_BUDGET
    try:
        if (budget := int(env)) >= 0:
            return budget
    except ValueError:
        pass
    raise ValueError(f"{_BUDGET_ENV}: invalid budget {env!r}, expected a non-negative integer")


def labeled_bound(d: Digraph, n: int, pinned: int = 0) -> Fraction:
    """2^(-e(D)) n^(v(D) - pinned): the expected number of labeled copies of
    d extending one anchor of `pinned` vertices in a random n-vertex host."""
    return Fraction(n ** (d.n - pinned), 1 << d.edge_count)


def _check_anchor(pins: dict[int, int], n: int) -> None:
    """Reject an anchor that is not injective or leaves the n-vertex host."""
    if len(set(pins.values())) != len(pins):
        raise ValueError("anchor must be injective")
    for hv in pins.values():
        if not 0 <= hv < n:
            raise ValueError(f"anchor image {hv} out of host range")


class _PinnedFields(NamedTuple):
    pattern: Digraph
    pinned: int


class PinnedPattern(_PinnedFields):
    """A pattern digraph with an independent pinned set.

    `pinned` may be given as a bit mask or an iterable of distinct vertices.
    The counters take the anchor of the pinned set as a separate argument.
    """

    __slots__ = ()

    def __new__(cls, pattern: Digraph, pinned):
        pinned = vertex_mask(pinned, pattern.n, _OUTSIDE, "pattern vertex {} is pinned twice")
        for v in bits(pinned):
            if (pattern.out(v) | pattern.inn(v)) & pinned:
                raise ValueError("pinned set must be independent in the pattern")
        return super().__new__(cls, pattern, pinned)

    @classmethod
    def _make(cls, fields):
        # `_replace` builds through `_make`: both re-run the checks above
        return cls(*fields)

    @property
    def pinned_vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.pinned))


@lru_cache(maxsize=256)
def _plan(
    d: Digraph, pinned: tuple[int, ...] = ()
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, bool], ...], ...], int, int]:
    """The walk of d that both engines take, with the sorted vertices
    `pinned` fixed by an anchor: (order, cons, isolated, group).

    `order` holds the pinned vertices, then the other vertices of positive
    degree greedily by max back-degree (ties by larger total degree, then
    smaller index), then the largest class of at least two twins (ties: the
    class holding the smallest vertex). `cons[t]` lists position t's edges to
    earlier positions s as (s, forward), forward when the edge runs from s.
    `isolated` counts the unpinned degree-0 vertices, which no walk visits.
    The trailing group, positions `group` to the end, is the maximal suffix
    of unpinned positions sharing one constraint list: the twins, or else
    just the last position.
    """
    placed = vertex_mask(pinned, d.n, _OUTSIDE)
    adj = [d.out(v) | d.inn(v) for v in range(d.n)]
    free = [v for v in range(d.n) if adj[v] and not placed >> v & 1]
    if len(pinned) + len(free) > SEARCH_DEPTH_LIMIT:
        raise SizeLimitError(
            f"backtracking is guarded at {SEARCH_DEPTH_LIMIT} active pattern vertices"
        )
    classes: dict[tuple[int, int], list[int]] = {}
    for v in free:
        classes.setdefault((d.out(v), d.inn(v)), []).append(v)
    twins = max(classes.values(), key=lambda c: (len(c), -c[0]), default=[])
    if len(twins) < 2:
        twins = []
    remaining = [v for v in free if v not in twins]
    order = list(pinned)
    while remaining:
        best = max(
            remaining,
            key=lambda v: ((adj[v] & placed).bit_count(), adj[v].bit_count(), -v),
        )
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
    order += twins
    cons = tuple(
        tuple((s, d.has_edge(u, v)) for s, u in enumerate(order[:t]) if adj[v] >> u & 1)
        for t, v in enumerate(order)
    )
    group = len(order)
    while group > len(pinned) and cons[group - 1] == cons[-1]:
        group -= 1
    return tuple(order), cons, d.n - len(order), group


class HostColumns:
    """A list of n-vertex hosts, bit-sliced: bit h of `cols[p]` is bit p of
    host h's pair code, `ncols[p]` is its complement within `full`, and
    `full` has one bit per host. Built once per host list and shared by every
    anchor counted on it."""

    __slots__ = ("n", "size", "full", "cols", "ncols")

    def __init__(self, n: int, size: int, cols: Iterable[int]):
        self.n, self.size, self.full = n, size, (1 << size) - 1
        self.cols = tuple(cols)
        self.ncols = tuple(c ^ self.full for c in self.cols)

    @classmethod
    def of_codes(cls, n: int, codes: Sequence[int]) -> HostColumns:
        """The hosts with the given pair codes, in the given order."""
        return cls(n, len(codes), _transpose(codes, pair_count(n)))


class HostCounts:
    """One count per host, stored as a vertical counter: bit h of plane k is
    bit k of host h's count."""

    __slots__ = ("size", "planes")

    def __init__(self, size: int, planes: list[int]):
        self.size = size
        self.planes = planes

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, h: int) -> int:
        if not 0 <= h < self.size:
            raise IndexError(f"host {h} out of range")
        return sum((plane >> h & 1) << k for k, plane in enumerate(self.planes))

    def max(self) -> tuple[int, int]:
        """The largest count and the first host that has it."""
        # keep the hosts whose count has every higher bit of the maximum
        cand, value = (1 << self.size) - 1, 0
        for k in reversed(range(len(self.planes))):
            if top := cand & self.planes[k]:
                cand, value = top, value | 1 << k
        return value, (cand & -cand).bit_length() - 1

    def min(self) -> int:
        """The smallest count: the largest count of the complemented planes,
        subtracted from 2^(planes) - 1."""
        full = (1 << self.size) - 1
        top, _ = HostCounts(self.size, [plane ^ full for plane in self.planes]).max()
        return (1 << len(self.planes)) - 1 - top

    def first_differing(self) -> Optional[int]:
        """The first host whose count differs from host 0's, or None."""
        full = (1 << self.size) - 1
        differ = 0
        for plane in self.planes:
            # the hosts whose bit here differs from host 0's
            differ |= plane ^ (full if plane & 1 else 0)
        return (differ & -differ).bit_length() - 1 if differ else None

    def total(self) -> int:
        """The sum of all counts."""
        return sum(plane.bit_count() << k for k, plane in enumerate(self.planes))


def count_table(
    d: Digraph, n: int, pins: Optional[dict[int, int]] = None
) -> list[tuple[int, int, int]]:
    """Compile the injective maps V(d) -> [n] extending `pins` into a list of
    rows (mask, req, mult) over n-vertex pair codes.

    An edge (u, v) of d with phi(u) < phi(v) requires bit p(phi(u), phi(v))
    of the code to be 1, and with phi(u) > phi(v) requires bit
    p(phi(v), phi(u)) to be 0, where p numbers the pairs as
    `digraph.pair_order` does (the `Tournament.code` order). Maps with equal
    (mask, req) share a row whose multiplicity counts them. The enumeration
    volume P(n - |pins|, v(d) - |pins|) is checked against the work budget
    before anything is enumerated; the budget is the table's only size bound.
    The maps are walked position by position along `_plan`, each partial map
    carrying its mask and req; the isolated vertices, which constrain
    nothing, multiply every row by (n - walked)_isolated.
    """
    pins = pins or {}
    _check_anchor(pins, n)
    spare = [h for h in range(n) if h not in pins.values()]
    volume = math.perm(len(spare), d.n - len(pins))
    ceiling = work_budget()
    if volume > ceiling:
        raise BudgetExceededError(
            f"count table of {volume} maps at n = {n} exceeds the budget {ceiling}"
        )
    if not volume:
        return []
    order, cons, isolated, _ = _plan(d, tuple(sorted(pins)))
    scale = math.perm(n - len(order), isolated)
    pairs = pair_count(n)
    # to[x][y]: the constraint of an edge mapped to x -> y, as mask << P | req
    to = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pair_order(n)):
        to[i][j], to[j][i] = 1 << pairs + p | 1 << p, 1 << pairs + p
    frm = [list(col) for col in zip(*to)]  # frm[y][x] = to[x][y]
    # the last position whose constraints read each position's image
    last = {s: t for t, edges in enumerate(cons) for s, _ in edges}
    # the partial maps, column by column: hosts used, constraint keys, and
    # the images of the placed positions that a later position still reads
    used, keys, images = [0], [0], {}
    for t, v in enumerate(order):
        # per edge to an earlier position s, the table that gives its key
        # from v's image h and s's image
        edges = [(s, frm if forward else to) for s, forward in cons[t]]
        grown = {s: [] for s in images if last[s] > t}
        if t in last:
            grown[t] = []
        next_used, next_keys = [], []
        for h in [pins[v]] if v in pins else spare:
            bit = 1 << h
            sel = [not u & bit for u in used]
            ks = list(compress(keys, sel))
            for s, table in edges:
                ks = list(map(or_, ks, map(table[h].__getitem__, compress(images[s], sel))))
            next_keys += ks
            next_used += [u | bit for u in compress(used, sel)]
            for s, col in grown.items():
                col += compress(images[s], sel) if s < t else [h] * len(ks)
        used, keys, images = next_used, next_keys, grown
    low = (1 << pairs) - 1
    return [(k >> pairs, k & low, mult * scale) for k, mult in Counter(keys).items()]


def labeled_counts(
    d: Digraph, hosts: HostColumns, pins: Optional[dict[int, int]] = None
) -> HostCounts:
    """Labeled counts of d (extending `pins`) on every host of `hosts`.

    Each count is sum mult * [(code & mask) == req] over the rows of
    `count_table`, taken in one pass: the hosts that meet a row are the AND
    of its columns (or their complements), and mult times that hit set is
    added into the planes of the vertical counter with a ripple carry.
    """
    lits, full = (hosts.ncols, hosts.cols), hosts.full
    planes: list[int] = []
    for mask, req, mult in count_table(d, hosts.n, pins):
        hit = reduce(and_, [lits[req >> p & 1][p] for p in bits(mask)], full)
        for k in bits(mult):
            _add_plane(planes, hit, k)
    return HostCounts(hosts.size, planes)


def _add_plane(planes: list[int], hit: int, k: int) -> None:
    """Add 2^k to the count of each host in `hit`, with a ripple carry."""
    while hit:
        if k >= len(planes):
            planes += [0] * (k + 1 - len(planes))
        planes[k], hit = planes[k] ^ hit, planes[k] & hit
        k += 1
