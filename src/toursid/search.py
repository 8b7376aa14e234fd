"""The single-host counters: exact counts of one pattern in one host of any
size, the backtracker they share, and the oracle that checks it.

`count_homomorphisms`, `count_labeled`, `count_labeled_pinned` and `density`
count through `_backtrack`, which walks the plan that `counting._plan`
compiles. The plan's order puts the pinned vertices first, then the others
by maximum back-degree (most constraints earliest), and candidate sets are
bit-row intersections of the already-placed images' in/out neighborhoods.
The largest class of twins (unpinned vertices with equal in- and out-rows,
hence pairwise non-adjacent) goes last, and that trailing group is counted
in closed form from its one candidate row: (c)_k injective maps or c^k
homomorphisms for k twins with c candidates. The last walked position is not
walked either: when no group constraint falls on it, as in every star, every
candidate meets the same row and the position is counted in closed form;
otherwise its count depends only on its candidate and base rows and is
memoised on that pair (in C5 on its blowups, one pair serves every image of
position 1). Either way it is charged one expansion per candidate, as
walking it would be, so the search makes no call per leaf.

`oracle_count` is an independent, unpruned full enumeration used to validate
the backtracker and the count table; it must never share their code path.
`tests/test_engines.py` holds the one table that checks every engine against
it, case by case.

The exhaustive scans, which evaluate count tables (`counting`), never load
this module; `counting` does not import it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .counting import (
    BudgetExceededError,
    PinnedPattern,
    _check_anchor,
    _plan,
    labeled_bound,
    work_budget,
)
from .digraph import Digraph, Tournament


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


def count_homomorphisms(d: Digraph, t: Tournament) -> int:
    """Exact number of (not necessarily injective) edge-preserving maps."""
    return _backtrack(d, t, injective=False)


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


# bounds of `_backtrack`'s memo of last-position counts, one per call: at
# most 2^16 entries, each keyed by two n-bit host rows, and at most 2^26 / n
# of them, so the key bits stay within 16 MiB on a host of any size (17 MiB
# in Python's 30-bit int digits). Each entry also costs about 200 bytes of
# key tuple, int headers, count and dict slot. Measured with tracemalloc on
# full memos of random rows (CPython 3.11): 15.9 MB at n = 200 and 30.6 MB at
# n = 1024, the largest, where both bounds meet; past it the entries fall as
# 1/n, and the whole memo toward the 17 MiB of its keys (20.9 MB at n = 4096).
_MEMO_ENTRIES = 1 << 16
_MEMO_BITS = 1 << 26


def _backtrack(
    d: Digraph,
    host: Tournament,
    *,
    injective: bool,
    pins: Optional[dict[int, int]] = None,
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
    (candidates, base); the result is memoised, in a table of at most
    min(2^16, 2^26 / n) entries per call (at most about 31 MB, see
    `_MEMO_BITS`), and the candidate loop runs only on a miss.

    Each search position is charged against the work budget once, when its
    candidates are known: one expansion, plus one per candidate at the last
    walked position, which stands for the trailing group however large it
    is, whether the closed form or the memo counts it.
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
    images = [0] * len(order)
    memo: dict[tuple[int, int], int] = {}
    room = min(_MEMO_ENTRIES, _MEMO_BITS // max(n, 1))
    nodes = 0
    total = 0

    def rec(t: int, used: int) -> None:
        nonlocal nodes, total
        if t == len(order):
            total += 1
            return
        v = order[t]
        cand = full
        for s, forward in plan[t]:
            cand &= out_rows[images[s]] if forward else in_rows[images[s]]
        if v in pins:
            cand &= 1 << pins[v]
        if injective:
            cand &= ~used
        nodes += 1 + cand.bit_count() if t == last else 1
        if nodes > ceiling:
            raise BudgetExceededError(f"search exceeded the work budget of {ceiling} expansions")
        if t == last:
            base = full
            for s, forward in head:
                base &= out_rows[images[s]] if forward else in_rows[images[s]]
            if injective:
                base &= ~used
            if tail_rows is None:
                # every candidate meets the same row: |base| free images,
                # less one when the candidate itself lies in base
                c = base.bit_count()
                if injective:
                    inside = (cand & base).bit_count()
                    total += (cand.bit_count() - inside) * math.perm(c, size)
                    if inside:
                        total += inside * math.perm(c - 1, size)
                else:
                    total += cand.bit_count() * c**size
                return
            key = (cand, base)
            whole = memo.get(key)
            if whole is None:
                whole = 0
                while cand:
                    b = cand & -cand
                    cand ^= b
                    row = base & tail_rows[b.bit_length() - 1]
                    if injective:
                        whole += math.perm((row & ~b).bit_count(), size)
                    else:
                        whole += row.bit_count() ** size
                if len(memo) < room:
                    memo[key] = whole
            total += whole
            return
        while cand:
            b = cand & -cand
            cand ^= b
            images[t] = b.bit_length() - 1
            rec(t + 1, used | b)

    rec(0, 0)
    return total * mult


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

