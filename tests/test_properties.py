import json
import re
from fractions import Fraction

import pytest

from toursid import experiments, families, hosts, rng, search
from toursid.constructions import (
    d_family,
    directed_cycle,
    directed_path,
    impartial_four_tree,
    star,
    subset_bipartite,
    transitive_tournament,
)
from toursid.counting import BudgetExceededError, PinnedPattern
from toursid.digraph import Digraph, Tournament, transitive_host
from toursid.experiments import (
    classify_star,
    falsify_by_blowup,
    forcing_probe,
    interpolate_to_density,
    star_expected_density,
    star_two_block_profile,
)
from toursid.families import SampledDensity, check_anti_on_family, sampled_density
from toursid.formats import trn_dumps, trn_loads
from toursid.hosts import _block_rows, two_block_tournament, uniform_tournament
from toursid.properties import (
    PropertyReport,
    check_anti_exhaustive,
    check_strong_anti,
    impartiality_report,
    sidorenko_scan_exhaustive,
)
from toursid.quasi import quasirandom_epsilon
from toursid.rng import blend
from toursid.search import count_homomorphisms, count_labeled, count_labeled_pinned, oracle_count

from host_reference import cube_sampled_quasi_epsilon, numpy_quasi_epsilon


def poly_derivative_at_zero(f, degree):
    """Exact derivative at 0 of a polynomial given as a callable, via Newton
    divided differences on the integer points 0..degree."""
    xs = list(range(degree + 1))
    table = [Fraction(f(x)) for x in xs]
    coeffs = [table[0]]
    for level in range(1, degree + 1):
        table = [
            (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
            for i in range(len(table) - 1)
        ]
        coeffs.append(table[0])
    # Newton form: sum_j c_j prod_{i<j} (x - i); derivative at 0
    deriv = Fraction(0)
    for j in range(1, degree + 1):
        prod_rule = Fraction(0)
        for skip in range(j):
            term = Fraction(1)
            for i in range(j):
                if i != skip:
                    term *= Fraction(0 - i)
            prod_rule += term
        deriv += coeffs[j] * prod_rule
    return deriv


class TestAntiExhaustive:
    def test_two_edge_path_holds(self):
        report = check_anti_exhaustive(directed_path(2), 5)
        assert report.verdict == "holds-upto"
        assert report.extremal_ratio <= 1

    def test_single_edge_ratio_curve(self):
        report = check_anti_exhaustive(Digraph(2, [(0, 1)]), 5)
        for row in report.curve:
            n = row["n"]
            expected = Fraction(n - 1, n) if n > 1 else Fraction(0)
            assert Fraction(int(row["max_ratio"]["num"]), int(row["max_ratio"]["den"])) == expected

    def test_dedup_matches_raw(self):
        for d in (directed_path(2), directed_cycle(3), star(2, 0)):
            raw = check_anti_exhaustive(d, 5, dedup=False)
            classes = check_anti_exhaustive(d, 5, dedup=True)
            assert raw.extremal_ratio == classes.extremal_ratio
            assert raw.verdict == classes.verdict

    def test_budget_is_enforced(self, monkeypatch):
        # the count table at n = 4 enumerates P(4, 3) = 24 maps
        monkeypatch.setenv("TOURSID_BUDGET", "12")
        with pytest.raises(BudgetExceededError):
            check_anti_exhaustive(directed_path(2), 5)
        monkeypatch.setenv("TOURSID_BUDGET", "120")
        assert check_anti_exhaustive(directed_path(2), 5).verdict == "holds-upto"

    def test_guard(self):
        for dedup in (False, True):
            with pytest.raises(ValueError, match="guarded at n_max = 8"):
                check_anti_exhaustive(Digraph(1), 9, dedup=dedup)
            assert check_anti_exhaustive(Digraph(1), 8, dedup=dedup).verdict == "holds-upto"


class TestFamilyScan:
    def test_out_star_first_violation_at_twelve(self):
        report = check_anti_on_family(star(2, 0), "transitive", range(4, 15))
        assert report.verdict == "violated"
        first = next(row for row in report.curve if row["violated"])
        assert first["n"] == 12
        witness = trn_loads(report.witness_trn)
        assert witness.n == 12
        # independent routes: the closed form and the unpruned oracle
        assert count_labeled(star(2, 0), witness).value == 12 * 11 * 10 // 3
        assert oracle_count(star(2, 0), witness, "labeled") == 12 * 11 * 10 // 3
        assert 12 * 11 * 10 // 3 > 12**3 // 4

    def test_transitive_counts_below_twelve_hold(self):
        report = check_anti_on_family(star(2, 0), "transitive", range(4, 12))
        assert report.verdict == "holds-upto"

    def test_blowup_family_violates_for_dense_pattern(self):
        tt7 = transitive_tournament(7)
        report = check_anti_on_family(tt7, "blowup", [2])
        assert report.verdict == "violated"
        assert trn_loads(report.witness_trn).n == 14

    def test_balanced_star_on_transitive_holds(self):
        report = check_anti_on_family(star(1, 1), "transitive", range(2, 31))
        assert report.verdict == "holds-upto"

    def test_two_block_sampled_violation(self):
        report = check_anti_on_family(
            star(1, 3),
            "two-block",
            [120],
            c=Fraction(1, 10),
            seed=7,
            samples=100_000,
        )
        assert report.verdict == "violated"
        assert report.regime["kind"] == "sampled-family"

    def test_sampled_family_needs_a_seed(self):
        with pytest.raises(ValueError, match="needs a seed"):
            check_anti_on_family(star(2, 0), "transitive", [4, 5, 6], samples=100)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            check_anti_on_family(Digraph(1), "nope", [3])

    @pytest.mark.parametrize(
        "family, builder, options",
        [
            ("transitive", "transitive_host", {}),
            ("blowup", "fill_to_tournament", {}),
            ("two-block", "two_block_tournament", {"c": Fraction(1, 10), "seed": 3}),
        ],
    )
    def test_hosts_are_built_as_they_are_counted(self, monkeypatch, family, builder, options):
        built = []
        build = getattr(families, builder)

        def counted(*args, **kwargs):
            built.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(families, builder, counted)
        # the first host (6 vertices, or the blowup of star(2, 2) by 6)
        # already takes more than one search expansion
        monkeypatch.setenv("TOURSID_BUDGET", "1")
        with pytest.raises(BudgetExceededError):
            check_anti_on_family(star(2, 2), family, range(6, 100), **options)
        assert len(built) == 1


class TestSampledVerdict:
    """A sampled row is violated iff its estimate p lies more than three
    standard errors above the bound, decided in rationals."""

    @pytest.mark.parametrize(
        "hits, samples, bound",
        [(8, 16, Fraction(1, 8)), (48, 72, Fraction(1, 2))],
    )
    def test_exactly_three_standard_errors_is_not_a_violation(self, hits, samples, bound):
        est = SampledDensity(hits, samples)
        p = est.estimate
        assert (p - bound) ** 2 * samples == 9 * p * (1 - p)
        assert not est.violates(bound)

    def test_just_past_three_standard_errors_is_a_violation(self):
        assert SampledDensity(9, 16).violates(Fraction(1, 8))

    @pytest.mark.parametrize("hits", [0, 1, 500])
    def test_an_estimate_at_or_below_the_bound_never_violates(self, hits):
        # far below the bound (p - bound)^2 is large; only p > bound may call it
        assert not SampledDensity(hits, 1000).violates(Fraction(1, 2))

    def test_all_hits_violate_any_bound_below_one(self):
        # p = 1 has no spread, so any margin is more than three errors
        assert SampledDensity(5, 5).violates(Fraction(99, 100))
        assert not SampledDensity(5, 5).violates(Fraction(1))


class TestBlowupFalsifier:
    def test_dense_pattern_has_falsifier(self):
        res = falsify_by_blowup(transitive_tournament(7))
        assert res is not None
        host, dens = res
        assert host.n == 14
        assert dens >= Fraction(1, 7**7)
        assert dens > Fraction(1, 2**21)

    def test_sparse_patterns_do_not(self):
        assert falsify_by_blowup(directed_path(2)) is None
        assert falsify_by_blowup(subset_bipartite(2)[0]) is None

    def test_floor_holds_under_arbitrary_fills(self):
        # the block embeddings survive no matter how the blowup is completed
        from toursid.search import density
        from toursid.digraph import fill_to_tournament

        # star(2, 2) leaves pairs open between its leaves, so the fills differ
        base = star(2, 2)
        floor = Fraction(1, 5**5)
        blown = base.blowup(2)
        densities = [density(base, fill_to_tournament(blown))]
        for seed in (1, 2, 3):
            # a random completion: the open pairs take the coins of a
            # uniform tournament
            coins = uniform_tournament(blown.n, seed)
            rows = [
                row | coins.out(u) & ~(row | blown.inn(u))
                for u, row in enumerate(blown.out_rows())
            ]
            host = Tournament.from_rows(rows)
            assert all(host.has_edge(u, v) for u, v in blown.edges())
            densities.append(density(base, host))
        assert len(set(densities)) == 4
        assert min(densities) >= floor


class TestStrongAnti:
    def test_balanced_star_center_pin(self):
        p = PinnedPattern(star(1, 1), (0,))
        report = check_strong_anti(p, 5)
        assert report.verdict == "holds-upto"

    def test_equality_case_on_rotational_host(self, rotational_5):
        p = PinnedPattern(star(1, 1), (0,))
        for u in range(5):
            res = count_labeled_pinned(p, rotational_5, {0: u})
            assert res.value == 4  # in-degree times out-degree, both 2

    def test_empty_pin_matches_plain_check(self):
        for d in (directed_cycle(3), directed_path(3), star(2, 1)):
            for dedup, n_max in ((False, 5), (True, 6)):
                pinned = check_strong_anti(PinnedPattern(d, ()), n_max, dedup=dedup)
                plain = check_anti_exhaustive(d, n_max, dedup=dedup)
                assert pinned.verdict == plain.verdict
                assert pinned.extremal_ratio == plain.extremal_ratio
                assert pinned.curve == plain.curve
                assert pinned.witness_trn == plain.witness_trn

    def test_guard(self):
        p = PinnedPattern(Digraph(1), (0,))
        for dedup in (False, True):
            with pytest.raises(ValueError, match="guarded at n_max = 8"):
                check_strong_anti(p, 9, dedup=dedup)
            assert check_strong_anti(p, 8, dedup=dedup).verdict == "holds-upto"


class TestStarClassifier:
    @pytest.mark.parametrize(
        "d_out,d_in,label",
        [
            (3, 0, "sidorenko"),
            (0, 4, "sidorenko"),
            (2, 2, "anti-sidorenko"),
            (3, 4, "anti-sidorenko"),
            (3, 1, "neither"),
            (1, 3, "neither"),
            (1, 0, "both"),
            (0, 1, "both"),
        ],
    )
    def test_labels(self, d_out, d_in, label):
        assert classify_star(d_out, d_in).label == label

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            classify_star(0, 0)


class TestTwoBlock:
    def test_deterministic(self):
        a = two_block_tournament(30, Fraction(1, 3), seed=5)
        b = two_block_tournament(30, Fraction(1, 3), seed=5)
        assert a == b
        assert a != two_block_tournament(30, Fraction(1, 3), seed=6)

    def test_block_edges_forced(self):
        t = two_block_tournament(10, Fraction(1, 2), seed=1)
        for i in range(5):
            for j in range(5, 10):
                assert t.has_edge(i, j)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            two_block_tournament(5, Fraction(3, 2), seed=0)


class TestStarProfile:
    def test_endpoints_are_one(self):
        for d_out in (1, 2, 3):
            for d_in in (1, 2, 3):
                assert star_two_block_profile(0, d_out, d_in) == 1
                assert star_two_block_profile(1, d_out, d_in) == 1

    def test_derivative_at_zero(self):
        for d_out in (1, 2, 3):
            for d_in in (1, 2, 3):
                degree = 1 + d_out + d_in
                deriv = poly_derivative_at_zero(
                    lambda c: star_two_block_profile(Fraction(c), d_out, d_in), degree
                )
                assert deriv == d_in - d_out - 1

    def test_expected_density_scaling(self):
        c = Fraction(1, 4)
        assert star_expected_density(c, 1, 3) == star_two_block_profile(c, 1, 3) / 16

    def test_monte_carlo_agreement_on_grid(self):
        for d_out in (1, 2, 3):
            for d_in in (1, 2, 3):
                for c in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    seed = blend(99, d_out, d_in, c.numerator, c.denominator)
                    host = two_block_tournament(768, c, seed)
                    est = sampled_density(star(d_out, d_in), host, 12_000, blend(seed, 1))
                    expect = float(star_expected_density(c, d_out, d_in))
                    assert abs(float(est.estimate) - expect) <= 3 * est.stderr


class TestQuasirandomEpsilon:
    def test_transitive_ten(self):
        assert quasirandom_epsilon(transitive_host(10)) == Fraction(1, 4)

    def test_single_vertex(self):
        assert quasirandom_epsilon(Tournament(1)) == 0

    def test_invariance_under_reversal_and_relabeling(self):
        perm = tuple((i * 5 + 3) % 12 for i in range(12))
        for seed in range(5):
            t = uniform_tournament(12, seed)
            eps = quasirandom_epsilon(t)
            assert quasirandom_epsilon(t.reverse()) == eps
            assert quasirandom_epsilon(t.relabel(perm)) == eps

    def test_sampled_is_a_lower_bound(self):
        t = uniform_tournament(14, 9)
        exact = quasirandom_epsilon(t)
        sampled = quasirandom_epsilon(t, "sampled", samples=300, seed=4)
        assert sampled <= exact

    def test_sampled_estimate_on_large_uniform_host(self):
        t = uniform_tournament(200, 17)
        est = quasirandom_epsilon(t, "sampled", samples=500, seed=8)
        assert 0 <= est < Fraction(1, 10)  # random hosts show no large bias

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sampled_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="need at least one sample"):
            quasirandom_epsilon(uniform_tournament(25, 1), "sampled", samples=samples, seed=1)

    def test_exact_guard(self):
        with pytest.raises(ValueError):
            quasirandom_epsilon(transitive_host(21))


class TestExactQuasiReference:
    """The bit-sliced exact scan against the numpy block loop it replaced."""

    @pytest.mark.parametrize("n", range(21))
    def test_equals_numpy_block_loop(self, n):
        seeds = range(20 if n <= 16 else 2)
        hosts = [transitive_host(n)]
        hosts += [uniform_tournament(n, seed) for seed in seeds]
        hosts += [two_block_tournament(n, Fraction(3, 10), seed) for seed in seeds]
        for t in hosts:
            assert quasirandom_epsilon(t) == numpy_quasi_epsilon(t)


class TestSampledQuasiReference:
    """The word-sliced sampled scan against the popcount cube it replaced,
    with a short last block: n % 64 == 0 at 64 and 768, several words past 64."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 768])
    def test_equals_popcount_cube(self, n):
        samples = 3 * _block_rows(n) + 5
        for seed in range(4):
            if seed % 2:
                t = two_block_tournament(n, Fraction(3, 10), seed)
            else:
                t = uniform_tournament(n, seed)
            got = quasirandom_epsilon(t, "sampled", samples=samples, seed=seed + 11)
            assert got == cube_sampled_quasi_epsilon(t, samples, seed + 11), seed


class TestSampledQuasiBlocks:
    """The sampled quasirandom scan draws its subsets in blocks of at most
    `hosts._BLOCK` words however many it samples, so a draw never grows with
    the sample count."""

    @pytest.mark.parametrize("n, samples", [(64, 20_000), (768, 2000)])
    def test_each_draw_is_one_bounded_block(self, monkeypatch, n, samples):
        t = uniform_tournament(n, 1)
        shapes = []
        blend_array = rng.blend_array

        def recorded(*args):
            out = blend_array(*args)
            shapes.append(out.shape)
            return out

        # the scan imports blend_array from `rng` when it is called
        monkeypatch.setattr(rng, "blend_array", recorded)
        quasirandom_epsilon(t, "sampled", samples=samples, seed=2)
        assert len(shapes) > 1
        assert all(rows * words <= hosts._BLOCK for rows, words in shapes)
        assert {words for _, words in shapes} == {(n + 63) // 64}
        assert sum(rows for rows, _ in shapes) == samples


class TestSampledDensityBlocks:
    """`sampled_density` draws its maps in blocks sized by a block's widest
    temporary: k slots per map, and one gathered entry per edge, so a pattern
    with more edges than vertices sizes its blocks by its edges."""

    def test_each_draw_is_one_bounded_block(self, monkeypatch):
        d = transitive_host(5)  # TT5: k = 5 vertices, e = 10 edges
        samples = 20_000
        shapes = []
        blend_array = families.blend_array

        def recorded(*args):
            out = blend_array(*args)
            shapes.append(out.shape)
            return out

        # the sampler binds blend_array when `families` is imported
        monkeypatch.setattr(families, "blend_array", recorded)
        sampled_density(d, uniform_tournament(20, 1), samples, 2)
        assert len(shapes) > 1
        assert all(rows * max(d.n, d.edge_count) <= hosts._BLOCK for rows, _ in shapes)
        assert {k for _, k in shapes} == {d.n}
        assert sum(rows for rows, _ in shapes) == samples


class TestInterpolation:
    def test_constant_count_pattern_crosses_immediately(self):
        e = Digraph(2, [(0, 1)])
        t5 = transitive_host(5)
        res = interpolate_to_density(e, t5, t5.reverse(), 0, target=10)
        assert res.index == 0
        assert set(res.h_values) == {10}

    def test_step_bound_for_transitive_triangle(self):
        d = transitive_tournament(3)
        t5 = transitive_host(5)
        h_lo = 10  # transitive triples in the transitive host: C(5,3)
        res = interpolate_to_density(d, t5, t5.reverse(), 0, target=h_lo)
        bound = d.n**2 * 5 ** (d.n - 2)
        assert all(abs(step) <= bound for step in res.deltas)
        assert len(res.deltas) == 10

    def test_exclusion_mask_respected(self):
        d = transitive_tournament(3)
        t5 = transitive_host(5)
        rev = t5.reverse()
        res = interpolate_to_density(d, t5, rev, (3, 4), target=10)
        assert len(res.deltas) == 3  # only pairs inside {0,1,2} may flip
        final = res.h_values[-1]
        walked = interpolate_to_density(d, t5, rev, (3, 4), target=final)
        end = walked.h_values[-1]
        assert end == final
        # pairs touching the excluded vertices keep the low orientation
        for v in (3, 4):
            for u in range(5):
                if u != v:
                    assert walked.tournament.has_edge(u, v) == t5.has_edge(u, v)

    @staticmethod
    def expected_walk(d, t_lo, t_hi):
        """The counts of the walk's hosts, rebuilt from pair codes: after k
        steps, the first k pairs (in code order) follow t_hi."""
        lo, hi, pairs = t_lo.code(), t_hi.code(), t_lo.n * (t_lo.n - 1) // 2
        steps = [(hi & (1 << k) - 1) | (lo & ~((1 << k) - 1)) for k in range(pairs + 1)]
        return [count_homomorphisms(d, Tournament.from_code(t_lo.n, c)) for c in steps]

    def test_walk_flips_pairs_toward_the_upper_orientation(self):
        # from the reverse of TT5 (code 0) every pair i < j with i -> j in
        # the rotational host flips from j -> i to i -> j
        d, t_lo = directed_path(2), transitive_host(5).reverse()
        t_hi = Tournament.from_rows(sum(1 << (u + k) % 5 for k in (1, 2)) for u in range(5))
        res = interpolate_to_density(d, t_lo, t_hi, 0, target=15)
        assert (t_lo.code(), res.h_values[0], res.h_values[-1]) == (0, 10, 20)
        assert list(res.h_values) == self.expected_walk(d, t_lo, t_hi)
        assert res.tournament.code() == t_hi.code() & (1 << res.index) - 1

    def test_walk_skips_pairs_that_already_agree(self, monkeypatch):
        # only pairs 2 and 6 differ, and both flip from j -> i to i -> j
        d, t_hi = directed_path(2), transitive_host(5)
        t_lo = Tournament.from_code(5, t_hi.code() ^ 0b1000100)
        calls = []
        count = experiments.count_homomorphisms
        monkeypatch.setattr(
            experiments, "count_homomorphisms", lambda *a: calls.append(a) or count(*a)
        )
        res = interpolate_to_density(d, t_lo, t_hi, 0, target=14)
        assert len(calls) == 3  # the start, then once per flip
        assert list(res.h_values) == self.expected_walk(d, t_lo, t_hi)
        assert [k for k, delta in enumerate(res.deltas) if delta] == [2, 6]
        assert res.index == 3
        assert res.tournament == Tournament.from_code(5, t_hi.code() ^ 0b1000000)

    def test_unbracketed_target_rejected(self):
        e = Digraph(2, [(0, 1)])
        t5 = transitive_host(5)
        with pytest.raises(ValueError, match="bracketed"):
            interpolate_to_density(e, t5, t5.reverse(), 0, target=11)


class TestForcingProbe:
    def test_deviation_tracks_epsilon(self):
        gadget, _ = subset_bipartite(2)
        rows = forcing_probe(
            gadget,
            [
                ("transitive-12", transitive_host(12)),
                ("uniform-40", uniform_tournament(40, 11)),
            ],
            samples=20_000,
            seed=13,
        )
        ordered = {row.label: row for row in rows}
        assert ordered["transitive-12"].epsilon == Fraction(1, 4)
        assert ordered["transitive-12"].deviation_approx > ordered["uniform-40"].deviation_approx
        assert ordered["transitive-12"].epsilon_approx > ordered["uniform-40"].epsilon_approx

    def test_monotone_trend_across_host_types(self):
        # directional bias shrinks from transitive through planted to uniform,
        # and the count deviation shrinks with it
        gadget, _ = subset_bipartite(2)
        rows = forcing_probe(
            gadget,
            [
                ("transitive-16", transitive_host(16)),
                ("two-block-60", two_block_tournament(60, Fraction(1, 2), 3)),
                ("uniform-60", uniform_tournament(60, 3)),
            ],
            samples=30_000,
            seed=5,
        )
        by_label = {row.label: row for row in rows}
        assert by_label["transitive-16"].epsilon == Fraction(1, 4)
        assert (
            by_label["transitive-16"].epsilon_approx
            > by_label["two-block-60"].epsilon_approx
            > by_label["uniform-60"].epsilon_approx
        )
        assert (
            by_label["transitive-16"].deviation_approx
            > by_label["two-block-60"].deviation_approx
            > by_label["uniform-60"].deviation_approx
        )

    def test_large_host_requires_seed(self):
        gadget, _ = subset_bipartite(2)
        with pytest.raises(ValueError, match="samples"):
            forcing_probe(gadget, [("big", uniform_tournament(40, 1))])


class TestOpenScans:
    def test_four_cycle_scan_reports_without_prejudice(self):
        # length 0 mod 4: under-representation is not expected to hold in
        # general, but no desk-scale witness is known; the scan only reports
        report = check_anti_exhaustive(directed_cycle(4), 6, dedup=True)
        assert report.extremal_ratio > 0
        assert PropertyReport.from_json(report.to_json()).to_json() == report.to_json()

    def test_tree_orientations_hold_the_bound_at_small_sizes(self):
        from toursid.constructions import tree_anti_orientation
        from toursid.graphs import UndirectedGraph

        trees = [
            UndirectedGraph(3, [(0, 1), (0, 2)]),
            UndirectedGraph(5, [(0, i) for i in range(1, 5)]),
            UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)]),
        ]
        for tree in trees:
            oriented = tree_anti_orientation(tree)
            report = check_anti_exhaustive(oriented, 5, dedup=True)
            assert report.verdict == "holds-upto"

    def test_out_star_holds_exhaustively_below_the_family_violation(self):
        report = check_anti_exhaustive(star(2, 0), 6, dedup=True)
        assert report.verdict == "holds-upto"


class TestReports:
    def test_round_trip_with_witness_verification(self):
        report = check_anti_on_family(star(2, 0), "transitive", [11, 12])
        text = report.to_json()
        loaded = PropertyReport.from_json(text)
        assert loaded.to_json() == text

    def test_family_witness_below_curve_maximum_still_verifies(self):
        # first violation at n=12; the extremal ratio comes from n=14
        report = check_anti_on_family(star(2, 0), "transitive", range(4, 15))
        assert trn_loads(report.witness_trn).n == 12
        assert report.extremal_ratio == Fraction(4 * 13 * 12, 3 * 14 * 14)
        loaded = PropertyReport.from_json(report.to_json())
        assert loaded.extremal_ratio == report.extremal_ratio

    def test_tampered_witness_rejected(self):
        report = check_anti_on_family(star(2, 0), "transitive", [12])
        doc = json.loads(report.to_json())
        doc["witness_trn"] = "3\n111\n"
        with pytest.raises(ValueError, match="re-verification|ratio"):
            PropertyReport.from_json(json.dumps(doc))

    @staticmethod
    def tampered(report, edit) -> str:
        doc = json.loads(report.to_json())
        edit(doc)
        return json.dumps(doc)

    def test_violated_report_without_witness_rejected(self):
        report = check_anti_on_family(star(2, 0), "transitive", [12])
        text = self.tampered(report, lambda doc: doc.update(witness_trn=None))
        with pytest.raises(ValueError, match="carries no witness"):
            PropertyReport.from_json(text)

    def test_exhaustive_witness_at_or_below_the_baseline_rejected(self):
        report = check_anti_exhaustive(transitive_tournament(4), 8)
        assert report.verdict == "violated"
        text = self.tampered(report, lambda doc: doc.update(witness_trn="4\n111111\n"))
        with pytest.raises(ValueError, match="ratio not above 1"):
            PropertyReport.from_json(text)

    @pytest.mark.parametrize(
        "scan, ratio",
        [
            (lambda: check_anti_exhaustive(transitive_tournament(4), 8), Fraction(35, 32)),
            (lambda: check_strong_anti(PinnedPattern(star(2, 0), (0,)), 5), Fraction(48, 25)),
        ],
        ids=["exhaustive", "exhaustive-pinned"],
    )
    def test_edited_exhaustive_extremal_ratio_rejected(self, scan, ratio):
        report = scan()
        assert report.extremal_ratio == ratio
        PropertyReport.from_json(report.to_json())
        edited = {"num": str(ratio.numerator + 1), "den": str(ratio.denominator)}
        text = self.tampered(report, lambda doc: doc.update(extremal_ratio=edited))
        with pytest.raises(ValueError, match="differs from the recorded extremal ratio"):
            PropertyReport.from_json(text)

    def test_family_witness_above_the_recorded_ratio_rejected(self):
        # the witness at n = 12 has ratio 55/54; 100/99 is above 1 but below it
        report = check_anti_on_family(star(2, 0), "transitive", range(4, 15))
        edited = {"num": "100", "den": "99"}
        text = self.tampered(report, lambda doc: doc.update(extremal_ratio=edited))
        with pytest.raises(ValueError, match="exceeds the recorded extremal ratio"):
            PropertyReport.from_json(text)

    def test_sampled_witness_with_edited_hits_rejected(self):
        report = check_anti_on_family(star(2, 0), "transitive", [30], seed=3, samples=20_000)
        hits = report.extra["witness_hits"] + 1
        text = self.tampered(report, lambda doc: doc["extra"].update(witness_hits=hits))
        with pytest.raises(ValueError, match="did not reproduce its hit count"):
            PropertyReport.from_json(text)

    def test_sampled_witness_that_no_longer_violates_rejected(self):
        # a regular host holds the out-star's density below 1/4; its own hit
        # count is written in, so only the violation test can refuse it
        report = check_anti_on_family(star(2, 0), "transitive", [30], seed=3, samples=20_000)
        regular = Tournament.from_rows(
            sum(1 << (u + k) % 31 for k in range(1, 16)) for u in range(31)
        )
        seed = report.extra["witness_map_seed"]
        hits = sampled_density(star(2, 0), regular, 20_000, seed).hits

        def edit(doc):
            doc["witness_trn"] = trn_dumps(regular)
            doc["extra"]["witness_hits"] = hits

        with pytest.raises(ValueError, match="no longer violates the bound"):
            PropertyReport.from_json(self.tampered(report, edit))

    def test_impartiality_witness_pair_of_one_host_rejected(self):
        bad = impartiality_report(directed_path(2), 3)
        pair = [bad.witness_trn] * 2
        text = self.tampered(bad, lambda doc: doc["extra"].update(witness_pair=pair))
        with pytest.raises(ValueError, match="no longer disagree"):
            PropertyReport.from_json(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "unknown report schema None"),
            ('{"schema": "toursid/report-v0"}', "unknown report schema 'toursid/report-v0'"),
            ('{"schema": "toursid/report-v1"}', "malformed report: KeyError: 'property'"),
        ],
    )
    def test_malformed_documents_are_value_errors(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PropertyReport.from_json(text)

    def test_malformed_fields_are_value_errors(self):
        report = check_anti_on_family(star(2, 0), "transitive", [12])
        for edit in (
            lambda doc: doc.update(pattern=[]),
            lambda doc: doc.update(regime=[]),
            lambda doc: doc.update(extremal_ratio={"num": "1"}),
            lambda doc: doc["extra"].update(witness_anchor=[]),
        ):
            with pytest.raises(ValueError, match="malformed report"):
                PropertyReport.from_json(self.tampered(report, edit))

    def test_missing_witness_fields_are_value_errors(self):
        sampled = check_anti_on_family(star(2, 0), "transitive", [30], seed=3, samples=20_000)
        impartial = impartiality_report(directed_path(2), 3)
        for report, key in ((sampled, "witness_map_seed"), (impartial, "witness_pair")):
            text = self.tampered(report, lambda doc: doc["extra"].pop(key))
            with pytest.raises(ValueError, match=f"malformed report: KeyError: '{key}'"):
                PropertyReport.from_json(text)

    def test_an_engine_error_while_reverifying_is_not_called_malformed(self, monkeypatch):
        report = check_anti_on_family(star(2, 0), "transitive", [12])

        def broken(*args):
            raise KeyError("engine")

        monkeypatch.setattr(search, "count_labeled_pinned", broken)
        with pytest.raises(KeyError, match="engine"):
            PropertyReport.from_json(report.to_json())

    def test_sampled_witness_reverifies(self):
        report = check_anti_on_family(
            star(2, 0), "transitive", [30], seed=3, samples=20_000
        )
        assert report.verdict == "violated"
        loaded = PropertyReport.from_json(report.to_json())
        assert loaded.extra["witness_hits"] == report.extra["witness_hits"]

    def test_serialization_is_deterministic(self):
        a = check_anti_exhaustive(directed_cycle(3), 4).to_json()
        b = check_anti_exhaustive(directed_cycle(3), 4).to_json()
        assert a == b

    def test_strong_anti_pinned_regime_recorded(self):
        p = PinnedPattern(star(1, 1), (0,))
        report = check_strong_anti(p, 4)
        assert report.regime["pinned"] == [0]

    def test_impartiality_reports(self):
        good = impartiality_report(impartial_four_tree(), 5)
        assert good.verdict == "holds-upto"
        bad = impartiality_report(directed_path(2), 3)
        assert bad.verdict == "violated"
        counts = sorted(int(c) for c in bad.extra["witness_counts"])
        assert counts == [1, 3]
        PropertyReport.from_json(bad.to_json())  # witness pair re-verifies

    def test_sidorenko_scan_is_measurement_only(self):
        report = sidorenko_scan_exhaustive(transitive_tournament(2), 4)
        assert report.verdict == "measured"
        ratios = [
            Fraction(int(r["min_ratio"]["num"]), int(r["min_ratio"]["den"]))
            for r in report.curve
        ]
        assert ratios == [Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
