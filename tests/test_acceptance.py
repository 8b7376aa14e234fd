"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. Expected values tagged as frozen below were computed once with the
unpruned enumeration oracle (or by closed-form arithmetic checked against it)
and are asserted exactly; no tolerance is deferred to runtime calibration.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from toursid.constructions import (
    add_dominating_vertex,
    catalog,
    d_family,
    directed_cycle,
    directed_path,
    impartial_four_tree,
    iterated_balanced_star,
    iterated_star_edge_count,
    sid_extend,
    star,
    subset_bipartite,
    transitive_minus_edge,
    transitive_tournament,
    unique_hom_digraph,
)
from toursid.counting import PinnedPattern
from toursid.covers import (
    check_tt_claim,
    cover_weight,
    homomorphism_multiplicity_probe,
    hypercube_cover,
    tight_weight_form,
    two_path_condition,
    verify_cover,
)
from toursid.digraph import Digraph, Tournament, transitive_host
from toursid.experiments import (
    classify_star,
    falsify_by_blowup,
    interpolate_to_density,
    star_two_block_profile,
)
from toursid.families import check_anti_on_family
from toursid.formats import trn_loads
from toursid.graphs import are_isomorphic
from toursid.hosts import (
    all_tournaments,
    tournament_representatives,
    two_block_tournament,
    uniform_tournament,
)
from toursid.properties import check_anti_exhaustive, check_strong_anti, impartiality_report
from toursid.quasi import quasirandom_epsilon
from toursid.rng import blend
from toursid.search import count_homomorphisms, count_labeled, count_labeled_pinned, oracle_count

from test_properties import poly_derivative_at_zero


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return deco


@criterion("01 oracle equivalence (catalog v<=4, all hosts n<=5, both modes)")
def test_a01_oracle_equivalence():
    hosts = [t for n in range(1, 6) for t in all_tournaments(n)]
    for d in catalog(4):
        for t in hosts:
            assert oracle_count(d, t, "homs") == count_homomorphisms(d, t)
            assert oracle_count(d, t, "labeled") == count_labeled(d, t).value


@criterion("02 directed-path labeled bound over all hosts n<=6")
def test_a02_directed_path_bound():
    for k in (1, 2, 3):
        pk = directed_path(k)
        for n in range(1, 7):
            for t in all_tournaments(n):
                # n (n/2)^k, exactly: value * 2^k <= n^(k+1)
                assert count_labeled(pk, t).value << k <= n ** (k + 1)


@criterion("03 cycle anti bound: C3/C5/C6 all hosts n<=6, C7 classes n<=7")
def test_a03_cycle_dichotomy_anti_side():
    for r in (3, 5, 6):
        report = check_anti_exhaustive(directed_cycle(r), 6, dedup=False)
        assert report.verdict == "holds-upto", f"C{r}"
    report7 = check_anti_exhaustive(directed_cycle(7), 7, dedup=True)
    assert report7.verdict == "holds-upto"


@criterion("04 balanced-star pinned bound, all hosts n<=6, all anchors")
def test_a04_balanced_star_strong_anti():
    for k in (1, 2):
        p = PinnedPattern(star(k, k), (0,))
        report = check_strong_anti(p, 6, dedup=False)
        assert report.verdict == "holds-upto", f"k={k}"
    # equality case of the degree-product step: in-degree times out-degree
    rotational = Tournament(
        5, [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)]
    )
    p1 = PinnedPattern(star(1, 1), (0,))
    for u in range(5):
        res = count_labeled_pinned(p1, rotational, {0: u})
        assert res.value == 4 == 2 * 2
        assert res.bound == Fraction(25, 4)


# frozen: labeled counts of the impartial 4-vertex tree, one value per host
# size, equal to n(n-1)(n-2)(n-3)/8 (verified against the unpruned oracle)
IMPARTIAL_CONSTANTS = {4: 3, 5: 15, 6: 45}


@criterion("05 impartial tree: constant count at n in {4,5,6}")
def test_a05_impartiality_constant():
    i4 = impartial_four_tree()
    report = impartiality_report(i4, 6)
    assert report.verdict == "holds-upto"
    for n, frozen in IMPARTIAL_CONSTANTS.items():
        values = {count_labeled(i4, t).value for t in tournament_representatives(n)}
        assert values == {frozen}
        falling = n * (n - 1) * (n - 2) * (n - 3)
        assert frozen * 8 == falling
    # extra rigor at n=4: every labeled host, not just class representatives
    assert {count_labeled(i4, t).value for t in all_tournaments(4)} == {3}
    # oracle route for the regression fixture
    assert oracle_count(i4, transitive_host(6), "labeled") == 45


@criterion("05b impartial-tree bracket as stated (known-defective bound)")
def test_a05b_impartiality_bracket_as_stated():
    """The pinned bracket [0.08, 0.18]*6^4 = [103.68, 233.28] cannot contain
    the exact constant 45 = 6*5*4*3/8: the bracket presumes n^4 scaling, but
    the labeled count scales with the falling factorial (45 would need to be
    compared against [0.08, 0.18]*(6)_4 = [28.8, 64.8] to express the same
    one-eighth trend). Kept as stated; see the decisions ledger.
    """
    constant = IMPARTIAL_CONSTANTS[6]
    assert 0.08 * 6**4 <= constant <= 0.18 * 6**4


@criterion("06 blowup falsifier for the 7-vertex transitive pattern")
def test_a06_blowup_falsifier():
    res = falsify_by_blowup(transitive_tournament(7))
    assert res is not None
    host, dens = res
    assert host.n == 14
    assert dens >= Fraction(1, 7**7)
    assert Fraction(1, 7**7) > Fraction(1, 2**21)
    assert dens > Fraction(1, 2**21)


# frozen: smallest constants c with min-ratio >= 1 - c/n on every host size
# n <= 6, verified by class scans; 5 suffices for one- and two-leaf one-sided
# stars, the three-leaf ones bottom out at ratio 0 on the 5-vertex regular
# host and 1/9 at n=6, needing 6
STAR_TREND_CONSTANTS = {1: 5, 2: 5, 3: 6}


@criterion("07 star classification: trends, exhaustive anti, sampled violation")
def test_a07_star_classification():
    assert classify_star(3, 0).label == "sidorenko"
    assert classify_star(0, 3).label == "sidorenko"
    assert classify_star(2, 2).label == "anti-sidorenko"
    assert classify_star(3, 1).label == "neither"

    # one-sided stars: min-ratio trend consistent with over-representation
    for k, c in STAR_TREND_CONSTANTS.items():
        for d in (star(k, 0), star(0, k)):
            for n in range(1, 7):
                bound = Fraction(n ** (k + 1), 1 << k)
                worst = min(
                    count_labeled(d, t).value for t in tournament_representatives(n)
                )
                assert Fraction(worst) / bound >= 1 - Fraction(c, n), (k, n)

    # balanced stars hold the under-representation bound exhaustively
    for k in (1, 2):
        report = check_anti_exhaustive(star(k, k), 6, dedup=False)
        assert report.verdict == "holds-upto"

    # the (1,3) star: rising block profile at c=0 and a sampled violation
    deriv = poly_derivative_at_zero(
        lambda c: star_two_block_profile(Fraction(c), 1, 3), 5
    )
    assert deriv == 1 > 0
    report = check_anti_on_family(
        star(1, 3), "two-block", [120], c=Fraction(1, 10), seed=7, samples=100_000
    )
    assert report.verdict == "violated"
    row = report.curve[0]
    assert row["samples"] == 100_000
    estimate = Fraction(int(row["estimate"]["num"]), int(row["estimate"]["den"]))
    assert float(estimate) - 3 * row["stderr_approx"] > 1 / 16


@criterion("08 iterated-balanced-star edge formula equals the recursion, k<=64")
def test_a08_balanced_star_formula():
    e = {0: 0, 1: 0}
    for k in range(2, 65):
        e[k] = k - 1 + e[(k - 1) // 2] + e[k - 1 - (k - 1) // 2]
    for k in range(1, 65):
        assert iterated_star_edge_count(k) == e[k]
    assert iterated_balanced_star(64).edge_count == e[64]


@criterion("09 deleted-edge pipeline matches the direct construction, k<=6")
def test_a09_pipeline_equivalence():
    for k in range(2, 7):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                if j - i == 2:
                    continue
                m = j - i - 1
                core = sid_extend(
                    d_family(m), tuple(range(1, m + 1)), transitive_tournament(m)
                )
                for _ in range(i - 1):
                    core = add_dominating_vertex(core, "source")
                for _ in range(k - j):
                    core = add_dominating_vertex(core, "sink")
                assert are_isomorphic(core, transitive_minus_edge(k, i, j)) is not None


# frozen from the exhaustive scan over every host with n <= 6: the worst
# deficit (n^4/16 - N_L)/n^3, attained at n=6, and the per-size constants of
# N_L minus the sign-product square sum
FAN_DEFICIT_CONSTANT = Fraction(7, 24)
FAN_SQUARE_SUM_CONSTANTS = {
    1: Fraction(-1, 16),
    2: Fraction(-1, 2),
    3: Fraction(-33, 16),
    4: Fraction(-4),
    5: Fraction(-65, 16),
    6: Fraction(3, 2),
}


def _sign_product_square_sum(t: Tournament) -> Fraction:
    """sum over x,z of (sum over y of (1_xy - 1/2)(1_yz - 1/2))^2, exactly,
    via +-1 signs: 16 S = sum (sum_y sgn(x,y) sgn(y,z))^2."""
    n = t.n
    sgn = [[1 if t.has_edge(x, y) else -1 for y in range(n)] for x in range(n)]
    q = 0
    for x in range(n):
        sx = sgn[x]
        for z in range(n):
            g = 0
            for y in range(n):
                g += sx[y] * sgn[y][z]
            q += g * g
    return Fraction(q, 16)


@criterion("10 two-layer-fan deficit and square-sum identity, all hosts n<=6")
def test_a10_fan_deficit():
    d2 = d_family(2)
    for n in range(1, 7):
        floor = Fraction(n**4, 16) - FAN_DEFICIT_CONSTANT * n**3
        seen = set()
        for t in all_tournaments(n):
            nl = count_labeled(d2, t).value
            s = _sign_product_square_sum(t)
            assert s >= 0
            assert nl >= floor
            seen.add(Fraction(nl) - s)
        assert seen == {FAN_SQUARE_SUM_CONSTANTS[n]}


@criterion("11 orientation-partition identity over all hosts n<=6")
def test_a11_orientation_partition():
    orientations = [
        Digraph(3, [(0, 1), (1, 2)]),
        Digraph(3, [(0, 1), (2, 1)]),
        Digraph(3, [(1, 0), (1, 2)]),
        Digraph(3, [(1, 0), (2, 1)]),
    ]
    for n in range(1, 7):
        expected = n * (n - 1) * (n - 2)
        for t in all_tournaments(n):
            assert sum(count_labeled(o, t).value for o in orientations) == expected


@criterion("12 biclique suite: verify, weight, complement, exact identity")
def test_a12_biclique_suite():
    for r in range(1, 6):
        n = 1 << r
        for k in range(1, r + 1):
            h, c = hypercube_cover(r, k)
            ok, bad = verify_cover(h, c)
            assert ok and bad is None
            assert cover_weight(c) == k * n
            # complement is 2^k disjoint cliques on 2^(r-k) vertices
            low = (1 << k) - 1
            for u in range(n):
                for v in range(u + 1, n):
                    assert h.has_edge(u, v) == bool((u ^ v) & low)
            s = n * (n - 1) // 2 - h.edge_count
            assert s == (1 << k) * ((1 << (r - k)) * ((1 << (r - k)) - 1) // 2)
            assert tight_weight_form(n, s) == k * n
            assert check_tt_claim(h, c).holds


@criterion("13 rigid digraph: two-path condition and at most one homomorphism")
def test_a13_unique_homomorphism():
    d = unique_hom_digraph(16)
    ok, bad = two_path_condition(d)
    assert ok and bad is None
    probe = homomorphism_multiplicity_probe(d, 100, seed=2024)
    assert probe.designed_count == 1
    assert probe.max_random_count <= 1
    assert probe.max_count == 1


@criterion("14 quasirandom direction: exact eps, interpolation, invariance")
def test_a14_quasirandom_direction():
    assert quasirandom_epsilon(transitive_host(10)) == Fraction(1, 4)

    d = transitive_tournament(3)
    t5 = transitive_host(5)
    rev = t5.reverse()
    step_bound = 9 * 5**3
    res = interpolate_to_density(d, t5, rev, 0, target=10)
    assert all(abs(delta) <= step_bound for delta in res.deltas)
    assert res.h_values[res.index] == 10
    # a walk with moving counts: toward the rotational host, every integer
    # target between the endpoint counts is bracketed and crossed
    rotational = Tournament(
        5, [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)]
    )
    lo = count_homomorphisms(d, t5)
    hi = count_homomorphisms(d, rotational)
    for target in range(min(lo, hi), max(lo, hi) + 1):
        walk = interpolate_to_density(d, t5, rotational, 0, target=target)
        assert all(abs(delta) <= step_bound for delta in walk.deltas)
        crossed = walk.h_values[walk.index]
        assert crossed <= target if lo > hi else crossed >= target

    perm = tuple((5 * i + 3) % 12 for i in range(12))
    for trial in range(50):
        t = uniform_tournament(12, blend(41, trial))
        eps = quasirandom_epsilon(t)
        assert quasirandom_epsilon(t.reverse()) == eps
        assert quasirandom_epsilon(t.relabel(perm)) == eps


@criterion("15 determinism: re-executed runs emit byte-identical reports")
def test_a15_determinism():
    producers = [
        lambda: check_anti_exhaustive(directed_cycle(5), 5, dedup=False).to_json(),
        lambda: check_anti_exhaustive(directed_cycle(5), 6, dedup=True).to_json(),
        lambda: check_anti_on_family(star(2, 0), "transitive", range(4, 15)).to_json(),
        lambda: check_anti_on_family(
            star(1, 3), "two-block", [120], c=Fraction(1, 10), seed=7, samples=100_000
        ).to_json(),
        lambda: check_strong_anti(PinnedPattern(star(1, 1), (0,)), 5).to_json(),
        lambda: impartiality_report(impartial_four_tree(), 5).to_json(),
    ]
    for produce in producers:
        assert produce() == produce()
