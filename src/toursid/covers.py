"""Biclique-cover machinery and homomorphism-rigidity checks.

A biclique cover of an undirected host is a list of disjoint vertex-pair
bicliques whose edges jointly cover the host's edges; its weight is the total
part-size sum. The coverage-multiplicity profile bounds and the leading-order
weight bound live here, next to the two-path necessary condition and the
sampled uniqueness probe for rigid patterns.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .counting import count_homomorphisms
from .digraph import Digraph, UndirectedGraph, bits, fill_to_tournament, pair_count, vertex_mask
from .formats import FormatError, cite, quote, read_document, uint_fields
from .hosts import uniform_tournament
from .rng import blend

HYPERCUBE_LIMIT = 16

LEADING_BOUND_NOTE = (
    "two leading terms only; the additive O(n) slack of the true bound is omitted"
)


class _CoverFields(NamedTuple):
    host_n: int
    parts: tuple[tuple[int, int], ...]


class BicliqueCover(_CoverFields):
    """Bicliques as (A_mask, B_mask) pairs over a host vertex set."""

    __slots__ = ()

    def __new__(cls, host_n: int, parts):
        norm = []
        for a, b in parts:
            a, b = (vertex_mask(side, host_n, "biclique part out of range") for side in (a, b))
            if a & b:
                raise ValueError("biclique parts must be disjoint")
            norm.append((a, b))
        return super().__new__(cls, host_n, tuple(norm))

    @classmethod
    def _make(cls, fields):
        # `_replace` builds through `_make`: both re-run the checks above
        return cls(*fields)


def verify_cover(
    h: UndirectedGraph, c: BicliqueCover
) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff every host edge lies in some biclique and every biclique edge
    is a host edge; on failure also returns the first bad edge (an uncovered
    host edge, else a biclique edge missing from the host)."""
    if h.n != c.host_n:
        raise ValueError(f"host has {h.n} vertices, cover declares {c.host_n}")
    covered = [0] * h.n
    for a, b in c.parts:
        for u in bits(a):
            for v in bits(b):
                if not h.has_edge(u, v):
                    bad = (u, v) if u < v else (v, u)
                    return False, bad
            covered[u] |= b
        for v in bits(b):
            covered[v] |= a
    for u in range(h.n):
        missing = h.row(u) & ~covered[u]
        if missing:
            v = next(bits(missing))
            return False, (u, v) if u < v else (v, u)
    return True, None


def cover_weight(c: BicliqueCover) -> int:
    """Sum of |A_i| + |B_i| over the cover."""
    return sum(a.bit_count() + b.bit_count() for a, b in c.parts)


def tt_profile(c: BicliqueCover) -> dict[int, int]:
    """Coverage-multiplicity profile: t -> #vertices lying in exactly t
    bicliques (counting A and B sides alike)."""
    f = [0] * c.host_n
    for a, b in c.parts:
        for v in bits(a | b):
            f[v] += 1
    profile: dict[int, int] = {}
    for t in f:
        profile[t] = profile.get(t, 0) + 1
    return profile


class ProfileClaimReport(NamedTuple):
    holds: bool
    slack_pairs: int
    rows: tuple[tuple[int, int, bool, float], ...]  # (t, |T_t|, holds, slack)
    note: str = LEADING_BOUND_NOTE


def check_tt_claim(h: UndirectedGraph, c: BicliqueCover) -> ProfileClaimReport:
    """Check |T_t| <= 2^t + sqrt(s 2^(t+1)) for every multiplicity t >= 1,
    where s = C(n,2) - e(H). Exact integer comparison; slack reported
    approximately. Requires the cover to verify against the host."""
    ok, bad = verify_cover(h, c)
    if not ok:
        raise ValueError(f"cover does not verify against the host (bad edge {bad})")
    s = pair_count(h.n) - h.edge_count
    rows = []
    holds = True
    for t, size in sorted(tt_profile(c).items()):
        if t == 0:
            continue
        excess = size - (1 << t)
        row_ok = excess <= 0 or excess * excess <= s * (1 << (t + 1))
        holds = holds and row_ok
        bound = (1 << t) + math.sqrt(s * (1 << (t + 1)))
        rows.append((t, size, row_ok, bound - size))
    return ProfileClaimReport(holds, s, tuple(rows))


def leading_lower_bound(n: int, s: int) -> float:
    """Two leading terms of the cover-weight lower bound,
    n log2 n - n log2((s+n)/n), as a float for reports.

    The true bound carries an additional -O(n) term that is deliberately
    omitted here (see LEADING_BOUND_NOTE); an unconstanted term is untestable.
    """
    if n < 1 or s < 0:
        raise ValueError("need n >= 1 and s >= 0")
    return n * math.log2(n) - n * math.log2((s + n) / n)


def tight_weight_form(n: int, s: int) -> int:
    """Exact value of n log2 n - n log2((n+2s)/n) when (n+2s)/n is a power of
    two, as for the hypercube covers; errors otherwise."""
    if n < 1 or (n + 2 * s) % n:
        raise ValueError("(n+2s)/n is not an integer")
    q = (n + 2 * s) // n
    if q & (q - 1) or n & (n - 1):
        raise ValueError("exact form needs n and (n+2s)/n to be powers of two")
    return n * (n.bit_length() - 1) - n * (q.bit_length() - 1)


def hypercube_cover(r: int, k: int) -> tuple[UndirectedGraph, BicliqueCover]:
    """Bit-split cover on n = 2^r vertices labeled by their r-bit value.

    Biclique i (i < k) splits on bit i (the i-th lowest): A_i has bit i clear,
    B_i set. The host is the union of the bicliques, so its complement is 2^k
    disjoint cliques on 2^(r-k) vertices and the weight is k*2^r.
    """
    if not 1 <= k <= r <= HYPERCUBE_LIMIT:
        raise ValueError(f"need 1 <= k <= r <= {HYPERCUBE_LIMIT}")
    n = 1 << r
    low = (1 << k) - 1
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u ^ v) & low
    ]
    h = UndirectedGraph(n, edges)
    parts = []
    for i in range(k):
        a = sum(1 << v for v in range(n) if not v >> i & 1)
        parts.append((a, ((1 << n) - 1) ^ a))
    return h, BicliqueCover(n, parts)


def two_path_condition(d: Digraph) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff every pair of distinct vertices is adjacent or joined by a
    directed 2-path through some intermediate (in either direction); a
    necessary condition for at-most-one homomorphism into every same-size
    tournament. On failure returns the first bad pair, lexicographically."""
    inr = d.in_rows()
    for u in range(d.n):
        for v in range(u + 1, d.n):
            if d.adjacent(u, v):
                continue
            if d.out(u) & inr[v] or d.out(v) & inr[u]:
                continue
            return False, (u, v)
    return True, None


class MultiplicityProbe(NamedTuple):
    """Result of the sampled uniqueness probe.

    Exhaustive verification over all v(D)-vertex tournaments is infeasible at
    the sizes of interest; the probe covers the designed host (where the count
    must be exactly 1) plus seeded random hosts, and reports the maximum.
    """

    designed_count: int
    max_random_count: int
    trials: int

    @property
    def max_count(self) -> int:
        return max(self.designed_count, self.max_random_count)


def homomorphism_multiplicity_probe(
    d: Digraph, trials: int, seed: int
) -> MultiplicityProbe:
    """Count homomorphisms of d, each count capped at 2 (the probe asks only
    whether it exceeds 1), into seeded random tournaments on v(d) vertices
    and into the designed host: d embedded identically, remaining pairs
    filled lexicographically. The trials stop at the first count of 2."""
    if trials < 1:
        raise ValueError("need at least one trial")
    designed = fill_to_tournament(d)
    designed_count = min(count_homomorphisms(d, designed), 2)
    worst = 0
    for trial in range(trials):
        host = uniform_tournament(d.n, blend(seed, trial))
        worst = max(worst, min(count_homomorphisms(d, host), 2))
        if worst >= 2:
            break
    return MultiplicityProbe(designed_count, worst, trials)


# -- BCV/1 wire format ------------------------------------------------------


def bcv_dumps(c: BicliqueCover) -> str:
    """BCV/1: line 1 "n k", then one line per biclique:
    "|A| <members> | |B| <members>", members ascending."""
    lines = [f"{c.host_n} {len(c.parts)}"]
    for part in c.parts:
        sides = [list(bits(side)) for side in part]
        lines.append(" | ".join(" ".join(map(str, [len(m), *m])) for m in sides))
    return "\n".join(lines) + "\n"


def bcv_loads(text: str) -> BicliqueCover:
    line_no, (n, _), body = read_document(text, "BCV/1", "'n k'", "bicliques")
    parts = []
    for part_no, line in body:
        halves = line.split("|")
        if len(halves) != 2:
            raise FormatError(part_no, "expected 'A | B'")
        sides = []
        for half in halves:
            fields = uint_fields(half)
            if fields is None:
                raise FormatError(part_no, f"bad part in {quote(line)}")
            if len(fields) - 1 != fields[0]:
                raise FormatError(part_no, f"declared {fields[0]} members, found {len(fields) - 1}")
            sides.append(fields[1:])
        parts.append(sides)
    return cite(line_no, BicliqueCover, n, parts)
