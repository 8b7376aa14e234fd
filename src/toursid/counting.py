"""Exact counters for homomorphisms, labeled copies, and pinned labeled copies.

Two engines, validated against each other and against an oracle, walk one
plan: `_plan` compiles a pattern and its pinned set, once and cached, into a
vertex order and each position's edges to earlier positions. Both count the
unpinned degree-0 vertices in closed form, outside the walk.

* the count table, for exhaustive scans. `count_table` compiles a pattern once
  per host size n into a list of (pair-code mask, required bits,
  multiplicity) rows, one per distinct constraint set of an injective map
  into [n], and `labeled_counts` evaluates sum mult * [(code & mask) == req]
  in one pass over those rows, bit-sliced in plain Python ints: the hosts are
  `HostColumns` (one int per pair bit, one bit per host), a row's hosts are
  the AND of its columns, and each row's hits are ripple-added into a
  `HostCounts` vertical counter (one int per count bit), so every host of a
  size is counted at once and no numpy is imported;
* the backtracker, for single hosts of any size. The plan's order puts the
  pinned vertices first, then the others by maximum back-degree (most
  constraints earliest), and candidate sets are bit-row intersections of the
  already-placed images' in/out neighborhoods. The largest class of twins
  (unpinned vertices with equal in- and out-rows, hence pairwise
  non-adjacent) goes last, and that trailing group is counted in closed form
  from its one candidate row: (c)_k injective maps or c^k homomorphisms for
  k twins with c candidates. The last walked position is not walked either:
  when no group constraint falls on it, as in every star, every candidate
  meets the same row and the position is counted in closed form; otherwise
  its count depends only on its candidate and base rows and is memoised on
  that pair (in C5 on its blowups, one pair serves every image of position
  1). Either way it is charged one expansion per candidate, as walking it
  would be, so the search makes no call per leaf.

`oracle_count` is an independent, unpruned full enumeration used to validate
both engines; it must never share their code path.

`labeled_bound` is the one baseline 2^(-e(D)) n^(v(D)-|I|) of every labeled
count, I being the pinned set (empty unless `count_labeled_pinned` is given
the required anchor of I).

Every engine checks its work against one budget, `work_budget()`: the
backtracker counts its expansions, and the count table and the oracle check
their enumeration volume before they start. The budget is set only by the
TOURSID_BUDGET environment variable (default DEFAULT_BUDGET); no function
takes it as an argument.

All verdict arithmetic (bounds, ratios) is exact: big integers and Fractions.
No report is serialized here; the `*_approx` floats are written by callers.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, NamedTuple, Optional, Sequence

from .digraph import (
    Digraph,
    SizeLimitError,
    Tournament,
    _transpose,
    bits,
    mask_of,
    pair_count,
    pair_order,
)

DEFAULT_BUDGET = 10**9
_BUDGET_ENV = "TOURSID_BUDGET"

# deepest pattern the recursive backtracker accepts; well under Python's
# default recursion limit of 1000, leaving room for the callers' frames
SEARCH_DEPTH_LIMIT = 500

# bounds of `_backtrack`'s memo of last-position counts, one per call: at
# most 2^14 entries, each keyed by two n-bit host rows, and at most 2^24 / n
# of them, so the keys hold at most 4 MiB on a host of any size
_MEMO_ENTRIES = 1 << 14
_MEMO_BITS = 1 << 24


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


class CountResult(NamedTuple):
    """An exact count next to its random-orientation baseline.

    bound is `labeled_bound` (pinned or not); ratio is value/bound, exact.
    The bound is 0 only on the empty host, where the ratio is undefined.
    """

    value: int
    bound: Fraction

    @property
    def ratio(self) -> Fraction:
        if not self.bound:
            raise ValueError("the labeled ratio is undefined on the empty host")
        return Fraction(self.value) / self.bound


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
        if not isinstance(pinned, int):
            vertices = list(pinned)
            # a negative vertex is refused below, as one past the pattern is
            pinned = mask_of(vertices) if min(vertices, default=0) >= 0 else -1
            if pinned >= 0 and pinned.bit_count() != len(vertices):
                twice = next(v for v in vertices if vertices.count(v) > 1)
                raise ValueError(f"pattern vertex {twice} is pinned twice")
        if pinned >> pattern.n:
            raise ValueError("pinned set is not a subset of the pattern vertices")
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
    placed = mask_of(pinned)
    if placed >> d.n:
        raise ValueError("pinned set is not a subset of the pattern vertices")
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


def _backtrack(
    d: Digraph,
    host: Tournament,
    *,
    injective: bool,
    pins: Optional[dict[int, int]] = None,
    limit: Optional[int] = None,
) -> int:
    """Count maps V(d) -> V(host) preserving directed edges, walking `_plan`.

    Degree-0 unpinned pattern vertices are factored out in closed form, and
    so is the plan's trailing group. Its constraint list refers only to
    earlier positions, so the k group vertices draw from one candidate row:
    with c candidates, c^k homomorphisms, and with c unused candidates,
    (c)_k injective maps. The last walked position counts the group from
    one base row of the group's constraints on earlier positions, cut by
    each candidate's row when a group constraint falls on the position.
    When none does, every candidate meets the base row itself, and the
    position is counted in closed form: with c = |base|, (c - 1)_k for each
    candidate in base and (c)_k for each outside it, or c^k homomorphisms
    per candidate. Otherwise the position's count depends only on the pair
    (candidates, base); its candidate loop runs once per pair and the result
    is memoised, in a table of at most min(2^14, 2^24 / n) entries per call.

    Each expansion of a search position counts against the work budget, and
    the trailing group is one expansion per candidate of the last walked
    position, however large it is, whether the loop, the closed form or the
    memo counts it. With `limit` set, the count saturates there (early
    exit), checked after each candidate: a position whose whole count would
    reach the limit is walked by the loop, so it is charged exactly the
    candidates up to the one that reaches it.
    """
    pins = pins or {}
    order, plan, isolated, group = _plan(d, tuple(sorted(pins)))
    n = host.n
    if injective and n < d.n:
        return 0

    # closed-form multiplier for the isolated vertices
    mult = math.perm(n - len(order), isolated) if injective else n**isolated
    if mult == 0:
        return 0

    size = len(order) - group
    out_rows = host.out_rows()
    in_rows = host.in_rows()
    # A nonempty group follows at least one walked position (its vertices
    # have edges, and only to earlier positions), and in an oriented pattern
    # at most one group constraint falls on the last walked position.
    last = group - 1 if size else -1
    group_plan = plan[-1] if size else []
    head = [(s, forward) for s, forward in group_plan if s < last]
    tail = [out_rows if forward else in_rows for s, forward in group_plan if s == last]
    tail_rows = tail[0] if tail else None

    full = (1 << n) - 1
    ceiling = work_budget()
    exceeded = f"search exceeded the work budget of {ceiling} expansions"
    images = [0] * len(order)
    memo: dict[tuple[int, int], int] = {}
    room = min(_MEMO_ENTRIES, _MEMO_BITS // max(n, 1))
    nodes = 0
    total = 0

    def rec(t: int, used: int) -> bool:
        """Returns True when the limit was reached (stop unwinding)."""
        nonlocal nodes, total
        if t == len(order):
            total += 1
            return limit is not None and total >= limit
        nodes += 1
        if nodes > ceiling:
            raise BudgetExceededError(exceeded)
        v = order[t]
        cand = full
        for s, forward in plan[t]:
            cand &= out_rows[images[s]] if forward else in_rows[images[s]]
        if v in pins:
            cand &= 1 << pins[v]
        if injective:
            cand &= ~used
        if t == last:
            base = full
            for s, forward in head:
                base &= out_rows[images[s]] if forward else in_rows[images[s]]
            if injective:
                base &= ~used
            key = None
            if tail_rows is None:
                # every candidate meets the same row: |base| free images,
                # less one when the candidate itself lies in base
                c = base.bit_count()
                if injective:
                    inside = (cand & base).bit_count()
                    whole = (cand.bit_count() - inside) * math.perm(c, size)
                    if inside:
                        whole += inside * math.perm(c - 1, size)
                else:
                    whole = cand.bit_count() * c**size
            else:
                key = (cand, base)
                whole = memo.get(key)
            # a whole position that leaves the limit unmet is one the loop
            # below would walk to its end, charging one node per candidate
            if whole is not None and (limit is None or total + whole < limit):
                nodes += cand.bit_count()
                if nodes > ceiling:
                    raise BudgetExceededError(exceeded)
                total += whole
                return False
            whole = 0
            while cand:
                b = cand & -cand
                cand ^= b
                nodes += 1
                if nodes > ceiling:
                    raise BudgetExceededError(exceeded)
                row = base if tail_rows is None else base & tail_rows[b.bit_length() - 1]
                if injective:
                    whole += math.perm((row & ~b).bit_count(), size)
                else:
                    whole += row.bit_count() ** size
                if limit is not None and total + whole >= limit:
                    total += whole
                    return True
            total += whole
            if key is not None and len(memo) < room:
                memo[key] = whole
            return False
        while cand:
            b = cand & -cand
            cand ^= b
            images[t] = b.bit_length() - 1
            if rec(t + 1, used | b):
                return True
        return False

    rec(0, 0)
    if limit is not None and total >= limit:
        return limit
    return total * mult


def count_homomorphisms(d: Digraph, t: Tournament, *, limit: Optional[int] = None) -> int:
    """Exact number of (not necessarily injective) edge-preserving maps.

    With `limit` set the search may exit early: the result is exact whenever
    it is below `limit`; any result >= limit certifies count >= limit.
    """
    return _backtrack(d, t, injective=False, limit=limit)


def count_labeled(d: Digraph, t: Tournament) -> CountResult:
    """Exact number of injective edge-preserving maps, with its baseline
    bound 2^(-e(D)) n^(v(D))."""
    value = _backtrack(d, t, injective=True)
    return CountResult(value, labeled_bound(d, t.n))


def count_labeled_pinned(p: PinnedPattern, t: Tournament, anchor: dict[int, int]) -> CountResult:
    """Labeled copies extending the anchor on the pinned set.

    The bound is 2^(-e(D)) n^(v(D)-|I|). The anchor must be total on the
    pinned set and injective into the host.
    """
    pinned = p.pinned_vertices
    if set(anchor) != set(pinned):
        raise ValueError("anchor must be defined on exactly the pinned set")
    _check_anchor(anchor, t.n)
    value = _backtrack(p.pattern, t, injective=True, pins=anchor)
    return CountResult(value, labeled_bound(p.pattern, t.n, len(pinned)))


def density(d: Digraph, t: Tournament) -> Fraction:
    """Exact homomorphism density h_D(T) / n^(v(D))."""
    if t.n == 0:
        raise ValueError("density is undefined on the empty host")
    return Fraction(count_homomorphisms(d, t), t.n ** d.n)


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


def oracle_count(d: Digraph, t: Tournament, mode: str = "homs") -> int:
    """Unpruned full-enumeration counter used to validate the optimized kernel.

    Enumerates all n^v maps ("homs") or all injective tuples ("labeled") and
    checks every edge. Intentionally shares no code with the backtracker.
    """
    if mode not in ("homs", "labeled"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    n, k = t.n, d.n
    ceiling = work_budget()
    volume = math.perm(n, k) if mode == "labeled" else n**k
    if volume > ceiling:
        raise BudgetExceededError(
            f"oracle enumeration of {volume} maps exceeds the budget {ceiling}"
        )
    edges = tuple(d.edges())
    rows = t.out_rows()
    tuples: Iterable[tuple[int, ...]]
    if mode == "homs":
        tuples = itertools.product(range(n), repeat=k)
    else:
        tuples = itertools.permutations(range(n), k)
    c = 0
    for phi in tuples:
        for u, v in edges:
            if not rows[phi[u]] >> phi[v] & 1:
                break
        else:
            c += 1
    return c

