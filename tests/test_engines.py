"""Every exact counting engine against one reference, case by case.

A case is a pattern with its relabellings, host lists of one size each, a
pinned set with its anchors, and labeled or homomorphism counting. On each
host list the first entry of `ENGINES` that applies is the reference, and
every other entry that applies must equal it. The references come first:
`oracle_count` and `_pinned_brute` enumerate every map up to n = 6 and share
no code with the engines, and the star degree sums hold larger hosts; where
none applies, the backtracker is the reference. It also counts every
relabelling, so its twin classes fall in every order. A new engine joins by
adding one entry.
"""

import itertools
import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional
from unittest import mock

import pytest

from host_reference import raw_columns
from test_digraph import random_digraph
from toursid import search
from toursid.constructions import catalog, d_family, directed_cycle, directed_path
from toursid.constructions import impartial_four_tree, star, transitive_tournament
from toursid.counting import HostColumns, PinnedPattern, _plan, labeled_counts, oracle_count
from toursid.counting import count_homomorphisms, count_labeled, count_labeled_pinned
from toursid.digraph import Digraph, disjoint_union, transitive_host
from toursid.hosts import all_tournaments, tournament_representatives, uniform_tournament


class Case(NamedTuple):
    name: str
    patterns: tuple[Digraph, ...]  # the pattern, then its relabellings
    injective: bool
    specs: tuple[tuple, ...]  # host lists: (kind, n, *seeds)
    pinned: tuple[int, ...]
    anchor: Optional[tuple[int, ...]]  # the images of `pinned`; None: every anchor


@lru_cache(maxsize=None)
def hosts(spec):
    kind, n, *seeds = spec
    if kind == "seeded":
        return tuple(uniform_tournament(n, seed) for seed in seeds)
    if kind == "transitive":
        return (transitive_host(n),)
    return tuple(all_tournaments(n) if kind == "raw" else tournament_representatives(n))


def _pinned_brute(d, t, pins, injective):
    """Maps of d into t extending `pins`, by full enumeration of the free
    vertices; like `oracle_count`, it shares no code with the backtracker."""
    free, fixed = [v for v in range(d.n) if v not in pins], tuple(pins.values())
    spare = [h for h in range(t.n) if not (injective and h in fixed)]
    k = len(free)
    maps = itertools.permutations(spare, k) if injective else itertools.product(spare, repeat=k)
    # a map lists the free vertices' images, then the pinned ones'
    slot = {v: i for i, v in enumerate([*free, *pins])}
    edges, rows, count = [(slot[u], slot[v]) for u, v in d.edges()], t.out_rows(), 0
    for phi in (images + fixed for images in maps):
        for u, v in edges:
            if not rows[phi[u]] >> phi[v] & 1:
                break
        else:
            count += 1
    return count


def star_centre(d):
    """A vertex that every edge meets and that meets every other vertex."""
    if d.edge_count == d.n - 1:
        return next((c for c in range(d.n) if all(c in e for e in d.edges())), None)


def star_sums(d, t, pins, injective):
    """Copies of the star d in t from degrees alone: the sum over centres v of
    (out v)_a (in v)_b, or of out^a in^b for homomorphisms."""
    c, power = star_centre(d), math.perm if injective else pow
    a, b = d.out(c).bit_count(), d.inn(c).bit_count()
    return sum(power(t.out(v).bit_count(), a) * power(t.inn(v).bit_count(), b) for v in range(t.n))


def each_host(count):
    return lambda d, spec, pins, injective: [count(d, t, pins, injective) for t in hosts(spec)]


def one_memo_entry(d, t, pins, injective):
    # every (candidates, base) pair after the first is walked and not stored
    with mock.patch.object(search, "_MEMO_ENTRIES", 1):
        return search._backtrack(d, t, injective=injective, pins=pins)


def of_codes(spec):
    return HostColumns.of_codes(spec[1], [t.code() for t in hosts(spec)])


def table(d, spec, pins, injective):
    columns = raw_columns(spec[1]) if spec[0] == "raw" else of_codes(spec)
    return list(labeled_counts(d, columns, pins))


def anchor_sums(d, spec, pins, injective):
    # every injective map extends exactly one anchor of each vertex v, so the
    # sums over v's anchors are one list for every v
    sums = [
        [sum(c) for c in zip(*(table(d, spec, {v: a}, True) for a in range(spec[1])))]
        for v in range(d.n)
    ]
    return sums[0] if all(s == sums[0] for s in sums) else sums


def isolated_raw(c, spec):
    # the table counts an isolated vertex in closed form, pinned or not
    d = c.patterns[0]
    isolated = any(not d.out(v) | d.inn(v) for v in range(d.n))
    return c.injective and not c.pinned and spec[0] == "raw" and isolated


class Engine(NamedTuple):
    name: str
    applies: Callable  # (case, host list) -> bool
    count: Callable  # (pattern, host list, anchor, injective) -> one count per host
    relabel: bool = False  # counts every relabelling, not only the pattern as given


ENGINES = [
    # the references: every map enumerated, or a star counted from degrees
    Engine("oracle_count", lambda c, spec: not c.pinned and spec[1] <= 6, each_host(
        lambda d, t, pins, inj: oracle_count(d, t, "labeled" if inj else "homs"))),
    Engine("_pinned_brute", lambda c, spec: c.pinned and spec[1] <= 6, each_host(_pinned_brute)),
    Engine("star degree sums", lambda c, spec: not c.pinned and spec[0] != "raw"
           and star_centre(c.patterns[0]) is not None, each_host(star_sums)),
    # the backtracker, through each way in
    Engine("count_homomorphisms", lambda c, spec: not c.pinned and not c.injective, each_host(
        lambda d, t, pins, inj: count_homomorphisms(d, t)), relabel=True),
    Engine("count_labeled", lambda c, spec: not c.pinned and c.injective, each_host(
        lambda d, t, pins, inj: count_labeled(d, t).value), relabel=True),
    Engine("count_labeled_pinned", lambda c, spec: c.pinned and c.injective, each_host(
        lambda d, t, pins, inj: count_labeled_pinned(PinnedPattern(d, pins), t, pins).value)),
    Engine("_backtrack, pinned homs", lambda c, spec: c.pinned and not c.injective, each_host(
        lambda d, t, pins, inj: search._backtrack(d, t, injective=False, pins=pins))),
    Engine("_backtrack, one memo entry", lambda c, spec: spec == ("raw", 5)
           and (c.patterns[0], c.pinned, "memo") in BRANCHES, each_host(one_memo_entry)),
    # the count table
    Engine("labeled_counts", lambda c, spec: c.injective and spec[1] <= 12, table),
    Engine("labeled_counts, HostColumns.of_codes", lambda c, spec: c.injective and spec[0] == "raw",
           lambda d, spec, pins, inj: list(labeled_counts(d, of_codes(spec), pins))),
    Engine("labeled_counts, summed over each vertex's anchors", isolated_raw, anchor_sums),
]

RAW = tuple(("raw", n) for n in range(1, 6))
SMALL = RAW[:4] + (("classes", 5),)
LARGE = (*[("transitive", n) for n in (1, 5, 17, 32)], ("seeded", 9, 1), ("seeded", 30, 2),
         ("seeded", 64, 3))
SEEDED = tuple(("seeded", n, *range(6)) for n in range(9, 13))
C5 = directed_cycle(5)
# patterns with isolated vertices, and the one each is pinned at besides 0
ISOLATED = {
    "edge+1": (Digraph(3, [(0, 1)]), 2),
    "edge+2": (Digraph(4, [(0, 1)]), 3),
    "c3+2": (disjoint_union(directed_cycle(3), Digraph(2)), 3),
}
# patterns whose plans count the last walked position each way, pinned or not
BRANCHES = [
    (star(1, 2), (), "closed"), (directed_path(3), (), "closed"), (star(1, 2), (0,), "closed"),
    (transitive_tournament(3), (), "memo"), (C5, (), "memo"), (C5, (0,), "memo"),
    (star(2, 1), (1, 2), "memo"),
]


def relabellings(d):
    """d, then every other digraph obtained from d by a vertex bijection."""
    return tuple(dict.fromkeys([d, *map(d.relabel, itertools.permutations(range(d.n)))]))


def build_cases():
    cases = {}

    def add(name, d, specs, pinned=(), anchor=None, modes=(True, False)):
        relabel = star_centre(d) is not None and specs == RAW and not pinned
        forms = relabellings(d) if relabel else (d,)
        name += "@" + ",".join(map(str, pinned)) if pinned else ""
        name += "=" + ",".join(map(str, anchor)) if anchor else ""
        for injective in modes:
            key = f"{name}-{'labeled' if injective else 'homs'}"
            cases.setdefault(key, Case(key, forms, injective, specs, pinned, anchor))

    def label(d):
        return "-".join([d.meta["family"], *map(str, d.meta["params"].values())])

    for d in catalog(4):
        add(label(d), d, RAW)
        for v in range(d.n):
            add(label(d), d, SMALL, (v,), modes=(True,))
    for d in [star(a, 4 - a) for a in range(5)]:
        add(label(d), d, RAW)
    for name, (d, isolated) in ISOLATED.items():
        for pinned in [(), (0,), (isolated,)]:
            add(name, d, RAW, pinned, modes=(True,))
    for d, pinned, _ in BRANCHES:
        add(label(d), d, RAW, pinned, tuple(range(len(pinned))))
    # pins inside a twin class, and pairs of pinned vertices
    for a, b, pinned in [(2, 2, (1,)), (1, 3, (2,)), (1, 3, (2, 4)), (0, 4, (3,))]:
        add(label(star(a, b)), star(a, b), RAW, pinned, modes=(True,))
    for d, pinned in [(d_family(2), (1, 2)), (impartial_four_tree(), (0, 3))]:
        add(label(d), d, SMALL, pinned, modes=(True,))
    for a, b in [(2, 2), (1, 3), (3, 1), (0, 4), (1, 1), (2, 3)]:
        add(label(star(a, b)) + "-large", star(a, b), LARGE)
    for d in (C5, star(2, 2), directed_path(3)):
        add(label(d) + "-seeded", d, SEEDED, modes=(True,))
    add("star-2-2-seeded", star(2, 2), SEEDED[1:], (1, 3), (0, 9), modes=(True,))
    # class codes past n = 5; test_class_table.py counts these at n = 8
    for name, d in [("directed-cycle-5", C5), ("edge+2", ISOLATED["edge+2"][0])]:
        add(name + "-classes", d, (("classes", 6), ("classes", 7)), modes=(True,))
    for seed in range(6):
        d = random_digraph(seed, 4 + seed % 3)
        add(f"random-{seed}", d, SMALL)
        add(f"random-{seed}", d, SMALL, (seed % d.n,), modes=(True,))
    return list(cases.values())


CASES = build_cases()


@pytest.mark.parametrize("d, pinned, branch", BRANCHES)
def test_the_cases_reach_each_last_position_branch(d, pinned, branch):
    # "closed": no constraint of the trailing group falls on the last walked
    # position, so every candidate meets one row; "memo": one does
    _, cons, _, group = _plan(d, pinned)
    assert ("memo" if any(s == group - 1 for s, _ in cons[-1]) else "closed") == branch


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_every_engine_equals_the_reference(case):
    for spec in case.specs:
        reference, *engines = [e for e in ENGINES if e.applies(case, spec)]
        images = itertools.permutations(range(spec[1]), len(case.pinned))
        for anchor in images if case.anchor is None else [case.anchor]:
            if any(h >= spec[1] for h in anchor):
                continue
            pins = dict(zip(case.pinned, anchor))
            expected = reference.count(case.patterns[0], spec, pins, case.injective)
            for engine in engines:
                for d in case.patterns if engine.relabel else case.patterns[:1]:
                    got = engine.count(d, spec, pins, case.injective)
                    assert got == expected, (engine.name, d.edges(), spec, pins)
