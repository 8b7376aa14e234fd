import inspect
import itertools
import math
from fractions import Fraction

import pytest

from toursid.constructions import (
    d_family,
    directed_cycle,
    directed_path,
    impartial_four_tree,
    star,
    transitive_tournament,
)
from host_reference import all_oriented_graphs, raw_columns
from toursid.counting import (
    BudgetExceededError,
    HostColumns,
    PinnedPattern,
    _plan,
    count_table,
    labeled_counts,
)
from toursid.search import (
    count_homomorphisms,
    count_labeled,
    count_labeled_pinned,
    density,
    oracle_count,
)
from toursid.digraph import (
    Digraph,
    SizeLimitError,
    Tournament,
    fill_to_tournament,
    transitive_host,
)
from toursid.hosts import (
    class_codes,
    tournament_representatives,
    two_block_tournament,
    uniform_tournament,
)
import toursid
from toursid.families import check_anti_on_family
from toursid.properties import check_anti_exhaustive, check_strong_anti, impartiality_report
from toursid.formats import trn_loads
from test_engines import star_sums

TT3 = transitive_host(3)
TT4 = transitive_host(4)
U20 = uniform_tournament(20, 3)
C5_BLOWUP6 = fill_to_tournament(directed_cycle(5).blowup(6))


class TestHomomorphisms:
    def test_edge_in_transitive_triangle(self):
        e = Digraph(2, [(0, 1)])
        assert count_homomorphisms(e, TT3) == 3
        assert density(e, TT3) == Fraction(1, 3)

    def test_cycle_in_transitive_host(self):
        c3 = directed_cycle(3)
        for n in (3, 4, 5, 6):
            assert count_homomorphisms(c3, transitive_host(n)) == 0

    def test_two_edge_path(self):
        # frozen from the full 4^3 map enumeration
        p2 = directed_path(2)
        assert count_homomorphisms(p2, TT4) == 4
        assert oracle_count(p2, TT4, "homs") == 4

    def test_empty_pattern(self):
        assert count_homomorphisms(Digraph(0), TT3) == 1

    def test_isolated_vertices_multiply(self):
        d = Digraph(3, [(0, 1)])  # one isolated vertex
        assert count_homomorphisms(d, TT4) == 6 * 4


class TestLabeled:
    def test_edge_count_is_pair_count(self):
        e = Digraph(2, [(0, 1)])
        res = count_labeled(e, TT4)
        assert res.value == 6
        assert res.bound == Fraction(16, 2)
        assert res.ratio == Fraction(3, 4)

    def test_rigid_identity(self):
        assert count_labeled(transitive_tournament(3), TT3).value == 1

    def test_two_layer_fan(self):
        # frozen from the injective 4-tuple enumeration
        res = count_labeled(d_family(2), TT4)
        assert res.value == 2
        assert oracle_count(d_family(2), TT4, "labeled") == 2

    def test_isolated_vertices_fall_factorially(self):
        d = Digraph(4, [(0, 1)])  # two isolated vertices
        assert count_labeled(d, TT4).value == 6 * 2 * 1


class TestPinned:
    def test_balanced_star_at_middle(self):
        p = PinnedPattern(star(1, 1), (0,))
        res = count_labeled_pinned(p, TT3, {0: 1})  # middle vertex of the chain
        assert res.value == 1
        assert res.bound == Fraction(9, 4)

    def test_balanced_star_at_source(self):
        p = PinnedPattern(star(1, 1), (0,))
        assert count_labeled_pinned(p, TT3, {0: 0}).value == 0

    def test_empty_pin_reduces_to_labeled(self):
        for d in (star(1, 1), d_family(2)):
            p = PinnedPattern(d, ())
            pinned = count_labeled_pinned(p, TT4, {})
            plain = count_labeled(d, TT4)
            assert pinned.value == plain.value
            assert pinned.bound == plain.bound

    def test_pinned_vertices_must_be_distinct(self):
        with pytest.raises(ValueError, match="pattern vertex 1 is pinned twice"):
            PinnedPattern(star(1, 1), (1, 2, 1))

    def test_pinned_must_be_independent(self):
        with pytest.raises(ValueError, match="independent"):
            PinnedPattern(directed_path(1), (0, 1))

    def test_anchor_must_be_injective(self):
        p = PinnedPattern(d_family(2), (1, 2))
        with pytest.raises(ValueError, match="injective"):
            count_labeled_pinned(p, TT4, {1: 0, 2: 0})

    def test_anchor_range_checked(self):
        p = PinnedPattern(star(1, 1), (0,))
        with pytest.raises(ValueError, match="range"):
            count_labeled_pinned(p, TT3, {0: 7})

    @pytest.mark.parametrize("anchor", [{1: 0}, {}, {0: 0, 1: 2}], ids=["off", "empty", "extra"])
    def test_anchor_must_cover_exactly_the_pinned_set(self, anchor):
        p = PinnedPattern(star(1, 1), (0,))
        with pytest.raises(ValueError, match="exactly the pinned set"):
            count_labeled_pinned(p, TT3, anchor)

    def test_partition_identity(self):
        # each labeled copy restricts to exactly one anchor map
        cases = [
            (star(1, 1), (0,)),
            (d_family(2), (1, 2)),
            (impartial_four_tree(), (0, 3)),
        ]
        for d, pinned in cases:
            p = PinnedPattern(d, pinned)
            for t in tournament_representatives(5):
                total = sum(
                    count_labeled_pinned(p, t, dict(zip(pinned, images))).value
                    for images in itertools.permutations(range(t.n), len(pinned))
                )
                assert total == count_labeled(d, t).value


class TestDensity:
    def test_edge(self):
        assert density(Digraph(2, [(0, 1)]), TT3) == Fraction(1, 3)

    def test_cycle_zero(self):
        assert density(directed_cycle(3), transitive_host(5)) == 0

    def test_empty_host_is_an_error(self):
        with pytest.raises(ValueError, match="undefined on the empty host"):
            density(Digraph(1), Tournament(0))

    def test_blowup_host_beats_uniform_floor(self):
        tt7 = transitive_tournament(7)
        host = fill_to_tournament(tt7.blowup(2))
        assert density(tt7, host) >= Fraction(1, 7**7)


class TestOracleAgreement:
    def test_oracle_mode_validated(self):
        with pytest.raises(ValueError):
            oracle_count(Digraph(1), TT3, "nope")


class TestEdgeCases:
    def test_pattern_larger_than_host(self):
        assert count_labeled(transitive_tournament(4), TT3).value == 0

    def test_pattern_equal_to_host(self):
        assert count_labeled(directed_cycle(3), TT3).value == 0
        c3_host = Tournament(3, [(0, 1), (1, 2), (2, 0)])
        assert count_labeled(directed_cycle(3), c3_host).value == 3

    def test_empty_host(self):
        t0 = Tournament(0)
        assert count_labeled(Digraph(0), t0).value == 1
        assert count_labeled(Digraph(1), t0).value == 0
        assert count_homomorphisms(Digraph(0), t0) == 1

    def test_empty_host_ratio_is_an_error(self):
        res = count_labeled(Digraph(1), Tournament(0))
        assert res.bound == 0
        with pytest.raises(ValueError, match="empty host"):
            res.ratio
        # the empty pattern's baseline on the empty host is 0^0 = 1
        assert count_labeled(Digraph(0), Tournament(0)).ratio == 1


class TestInvariants:
    def test_hom_labeled_sandwich(self, small_catalog):
        # non-injective maps are at most C(v,2) n^(v-1)
        for d in small_catalog:
            for n in (3, 4, 5):
                for t in tournament_representatives(n):
                    h = count_homomorphisms(d, t)
                    nl = count_labeled(d, t).value
                    gap = h - nl
                    assert 0 <= gap <= d.n * (d.n - 1) // 2 * n ** max(d.n - 1, 0)

    def test_reversal_duality(self):
        # all 27 + 729 oriented patterns on 3 and 4 vertices; class
        # representatives stand in for every host by relabeling invariance
        hosts = [t for n in range(1, 6) for t in tournament_representatives(n)]
        for size in (3, 4):
            for d in all_oriented_graphs(size):
                for t in hosts:
                    assert density(d, t) == density(d.reverse(), t.reverse())

    def test_orientation_partition(self, hosts_upto_5):
        orientations = [
            Digraph(3, [(0, 1), (1, 2)]),
            Digraph(3, [(0, 1), (2, 1)]),
            Digraph(3, [(1, 0), (1, 2)]),
            Digraph(3, [(1, 0), (2, 1)]),
        ]
        for t in hosts_upto_5:
            n = t.n
            total = sum(count_labeled(o, t).value for o in orientations)
            assert total == n * (n - 1) * (n - 2)


class TestImpartiality:
    def test_four_vertex_tree(self):
        report = impartiality_report(impartial_four_tree(), 6)
        assert report.verdict == "holds-upto"
        assert report.witness_trn is None and report.extra == {}

    def test_single_edge(self):
        report = impartiality_report(Digraph(2, [(0, 1)]), 6)
        assert report.verdict == "holds-upto"

    def test_two_edge_path_fails_at_three(self):
        report = impartiality_report(directed_path(2), 3)
        assert report.verdict == "violated"
        witness = [trn_loads(s) for s in report.extra["witness_pair"]]
        counts = sorted(count_labeled(directed_path(2), t).value for t in witness)
        assert counts == [1, 3]
        assert sorted(int(c) for c in report.extra["witness_counts"]) == counts

    def test_guard(self):
        with pytest.raises(ValueError):
            impartiality_report(Digraph(1), 9)
        with pytest.raises(ValueError, match="needs n_max >= 1"):
            impartiality_report(Digraph(1), 0)


class TestBudget:
    def test_kernel_budget(self, monkeypatch):
        # the injective backtracker, plain and pinned, charges the variable's budget
        monkeypatch.setenv("TOURSID_BUDGET", "5")
        with pytest.raises(BudgetExceededError):
            count_labeled(directed_path(3), transitive_host(6))
        with pytest.raises(BudgetExceededError):
            count_labeled_pinned(PinnedPattern(directed_path(3), (0,)), transitive_host(6), {0: 0})

    def test_oracle_budget(self, monkeypatch):
        monkeypatch.setenv("TOURSID_BUDGET", "5")
        with pytest.raises(BudgetExceededError):
            oracle_count(directed_path(3), transitive_host(6), "homs")

    def test_env_override(self, monkeypatch):
        # the backtracker's expansions are charged to the variable's budget
        monkeypatch.setenv("TOURSID_BUDGET", "5")
        with pytest.raises(BudgetExceededError):
            count_homomorphisms(directed_path(3), transitive_host(6))

    def test_no_function_takes_a_budget(self):
        # TOURSID_BUDGET is the one budget setting, so no per-call one exists
        public = [getattr(toursid, name) for name in toursid.__all__]
        for f in public + [count_table, labeled_counts]:
            if callable(f) and not (isinstance(f, type) and issubclass(f, BaseException)):
                assert "budget" not in inspect.signature(f).parameters, f

    def test_the_variable_alone_trips_every_engine(self, monkeypatch):
        # the backtracker, the count table (in a scan) and the oracle, each
        # over budget at 5 and within the default once the variable is gone
        runs = [
            lambda: count_homomorphisms(directed_path(3), transitive_host(6)),
            lambda: check_anti_exhaustive(directed_path(2), 5),
            lambda: oracle_count(directed_path(3), transitive_host(6), "homs"),
        ]
        monkeypatch.setenv("TOURSID_BUDGET", "5")
        for run in runs:
            with pytest.raises(BudgetExceededError):
                run()
        monkeypatch.delenv("TOURSID_BUDGET")
        for run in runs:
            run()

    def test_twin_group_still_charges_its_prefix(self, monkeypatch):
        # the trailing twins cost one expansion, the centre and the other
        # leaf class are still walked one candidate at a time
        monkeypatch.setenv("TOURSID_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            count_labeled(star(2, 2), transitive_host(40))

    def test_acceptance_host_fits_the_default_budget(self, monkeypatch):
        # about 1.5e9 embeddings, beyond the 10^9 default if walked one by one
        monkeypatch.delenv("TOURSID_BUDGET", raising=False)
        host = two_block_tournament(120, Fraction(1, 10), 7)
        assert count_labeled(star(1, 3), host).value == 1544688720

    # (count, smallest budget it fits, value): the expansion accounting is
    # part of the contract, so a faster search must charge the same work
    PINNED_BUDGETS = [
        (lambda: count_labeled(directed_cycle(5), U20).value, 17320, 66610),
        (lambda: count_homomorphisms(directed_cycle(5), U20), 18247, 66610),
        (
            lambda: count_labeled(star(2, 2), two_block_tournament(24, Fraction(1, 10), 7)).value,
            3577,
            290568,
        ),
        (lambda: count_labeled(directed_path(4), U20).value, 17320, 126196),
        (lambda: count_labeled(transitive_tournament(4), U20).value, 1042, 1608),
        (
            lambda: count_labeled_pinned(
                PinnedPattern(star(2, 1), [1, 2]), U20, {1: 0, 2: 5}
            ).value,
            7,
            38,
        ),
        (lambda: count_labeled(star(2, 2), transitive_host(32)).value, 10449, 805504),
        (
            lambda: count_labeled_pinned(PinnedPattern(star(2, 2), [0]), U20, {0: 3}).value,
            66,
            6160,
        ),
        (lambda: count_labeled(directed_cycle(5), C5_BLOWUP6).value, 68219, 326430),
        (lambda: count_homomorphisms(directed_cycle(5), C5_BLOWUP6), 70163, 326430),
    ]

    @pytest.mark.parametrize("count, smallest, value", PINNED_BUDGETS)
    def test_smallest_budget_is_pinned(self, monkeypatch, count, smallest, value):
        monkeypatch.setenv("TOURSID_BUDGET", str(smallest))
        assert count() == value
        monkeypatch.setenv("TOURSID_BUDGET", str(smallest - 1))
        with pytest.raises(BudgetExceededError):
            count()


class TestHostColumns:
    def test_columns_are_the_code_bits(self):
        for n in (3, 7, 8):
            codes = class_codes(n)
            expected = tuple(
                sum((c >> p & 1) << h for h, c in enumerate(codes))
                for p in range(n * (n - 1) // 2)
            )
            assert HostColumns.of_codes(n, codes).cols == expected

    @pytest.mark.parametrize("n, codes", [(0, (0,)), (1, (0,)), (1, (0, 0, 0))])
    def test_no_column_without_a_pair(self, n, codes):
        hosts = HostColumns.of_codes(n, codes)
        assert (hosts.cols, hosts.size) == ((), len(codes))

    def test_empty_host_list(self):
        hosts = HostColumns.of_codes(3, ())
        assert (hosts.cols, hosts.size) == ((0, 0, 0), 0)


class TestCountTable:
    def test_reductions_match_the_count_list(self, small_catalog):
        for n in (1, 3, 5):
            codes = tuple(c % (1 << n * (n - 1) // 2) for c in (5, 0, 5, 1))
            for columns in (raw_columns(n), HostColumns.of_codes(n, codes)):
                for d in small_catalog:
                    counts = labeled_counts(d, columns)
                    values = list(counts)
                    assert len(values) == len(counts) == columns.size
                    assert counts.max() == (max(values), values.index(max(values)))
                    assert counts.min() == min(values)
                    assert counts.total() == sum(values)
                    differ = [h for h, c in enumerate(values) if c != values[0]]
                    assert counts.first_differing() == (differ[0] if differ else None)
        with pytest.raises(IndexError):
            counts[len(counts)]

    def test_first_moment_identity(self, small_catalog):
        # each injective map fixes e of the P pair bits, so over all raw hosts
        # the counts sum to P(n, v) 2^(P - e); shares no code with the oracle
        def expected(d, n):
            # exact: a map exists only if v <= n, and then e <= P
            return math.perm(n, d.n) << n * (n - 1) // 2 >> d.edge_count

        patterns = [*small_catalog, directed_cycle(5), transitive_tournament(4), star(2, 2)]
        for n in range(1, 7):
            columns = raw_columns(n)
            for d in patterns:
                assert labeled_counts(d, columns).total() == expected(d, n), (d.edges(), n)
        c5 = directed_cycle(5)
        assert labeled_counts(c5, raw_columns(7)).total() == expected(c5, 7)

    @pytest.mark.parametrize("pins", [(0,), (1,), (3,), (1, 3), (1, 2)])
    def test_first_moment_identity_pinned(self, pins):
        # every injective map extends exactly one anchor of the pinned set
        d = star(2, 2)
        for n in range(len(pins), 7):
            columns = raw_columns(n)
            total = sum(
                labeled_counts(d, columns, dict(zip(pins, images))).total()
                for images in itertools.permutations(range(n), len(pins))
            )
            assert total == math.perm(n, 5) << n * (n - 1) // 2 >> 4, (pins, n)

    def test_rows_merge_equal_constraints(self):
        # the 5 rotations of a 5-cycle map impose the same constraints
        rows = count_table(directed_cycle(5), 6)
        assert len(rows) == 144 and {mult for _, _, mult in rows} == {5}
        assert sum(mult for _, _, mult in rows) == 6 * 5 * 4 * 3 * 2

    def test_budget_projects_the_enumeration(self, monkeypatch):
        monkeypatch.setenv("TOURSID_BUDGET", "23")
        with pytest.raises(BudgetExceededError):
            count_table(directed_path(2), 4)
        monkeypatch.setenv("TOURSID_BUDGET", "24")
        assert sum(mult for _, _, mult in count_table(directed_path(2), 4)) == 24
        # pinned vertices leave P(3, 2) = 6 maps to enumerate
        monkeypatch.setenv("TOURSID_BUDGET", "6")
        assert sum(mult for _, _, mult in count_table(directed_path(2), 4, {0: 0})) == 6

    def test_guards(self):
        # the work budget is the table's only size bound: n = 9 is counted
        assert sum(mult for _, _, mult in count_table(directed_path(1), 9)) == 9 * 8
        with pytest.raises(ValueError):
            count_table(directed_path(2), 4, {0: 1, 2: 1})
        with pytest.raises(ValueError):
            count_table(directed_path(2), 4, {0: 4})
        for vertex in (5, -1):
            with pytest.raises(ValueError, match="not a subset of the pattern"):
                count_table(directed_path(2), 4, {vertex: 0})


class TestSizeGuards:
    def test_deep_pattern_is_a_size_error(self):
        with pytest.raises(SizeLimitError):
            count_homomorphisms(directed_path(1200), uniform_tournament(5, 1))

    def test_representatives_guard(self):
        with pytest.raises(SizeLimitError):
            tournament_representatives(9)


class TestTwinClosedForm:
    """The trailing twin group is counted in closed form: its plan, and counts
    that pin it (`test_engines.py` compares them with references)."""

    def test_twin_class_goes_last(self):
        # star(2, 2): out-leaves {1, 2} and in-leaves {3, 4} tie in size, so
        # the class holding the smaller vertex goes last
        def walk(d, pinned=()):
            order, _, _, group = _plan(d, pinned)
            return order, group

        assert walk(star(2, 2)) == ((0, 3, 4, 1, 2), 3)
        assert walk(star(1, 3)) == ((0, 1, 2, 3, 4), 2)
        assert walk(star(3, 1)) == ((0, 4, 1, 2, 3), 2)
        # a pinned leaf leaves the class and joins the prefix
        assert walk(star(1, 3), (2,)) == ((2, 0, 1, 3, 4), 3)
        # no twins: the plain greedy order, and the last vertex alone is the group
        assert walk(directed_path(3)) == ((1, 2, 0, 3), 3)

    def test_each_pattern_is_compiled_once(self):
        d = star(2, 2)
        _plan.cache_clear()
        check_anti_on_family(d, "transitive", range(4, 13))
        assert _plan.cache_info().misses == 1
        _plan.cache_clear()
        check_strong_anti(PinnedPattern(d, (0,)), 6)
        assert _plan.cache_info().misses == 1

    def test_pinned_vertices_stay_out_of_the_group(self):
        # two pinned isolated vertices share an empty constraint list but
        # have fixed images; only the unpinned isolated vertex is free
        p = PinnedPattern(Digraph(3), (0, 1))
        assert count_labeled_pinned(p, TT4, {0: 0, 1: 2}).value == 2

    def test_acceptance_host(self):
        t = two_block_tournament(120, Fraction(1, 10), 7)
        res = count_labeled(star(1, 3), t)
        assert res.value == star_sums(star(1, 3), t, {}, True) == 1544688720
        assert res.ratio == Fraction(2145401, 2160000)
        assert round(float(res.ratio), 4) == 0.9932
        homs = count_homomorphisms(star(1, 3), t)
        assert homs == star_sums(star(1, 3), t, {}, False) == 1617760072
