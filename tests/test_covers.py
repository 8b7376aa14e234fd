import math

import pytest

from toursid import covers
from toursid.constructions import transitive_tournament, unique_hom_digraph
from toursid.covers import (
    BicliqueCover,
    LEADING_BOUND_NOTE,
    check_tt_claim,
    cover_weight,
    homomorphism_multiplicity_probe,
    hypercube_cover,
    leading_lower_bound,
    tight_weight_form,
    tt_profile,
    two_path_condition,
    verify_cover,
)
from toursid.digraph import Digraph, bits, transitive_host
from toursid.graphs import UndirectedGraph
from toursid.search import count_homomorphisms


class TestVerify:
    def test_single_edge(self):
        h = UndirectedGraph(2, [(0, 1)])
        ok, bad = verify_cover(h, BicliqueCover(2, [((0,), (1,))]))
        assert ok and bad is None

    def test_path_center_split(self):
        h = UndirectedGraph(3, [(0, 1), (1, 2)])
        ok, _ = verify_cover(h, BicliqueCover(3, [((1,), (0, 2))]))
        assert ok

    def test_uncovered_edge_reported(self):
        h = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        ok, bad = verify_cover(h, BicliqueCover(3, [((0,), (1,))]))
        # both edges at vertex 2 are uncovered; the lex-least one is reported
        assert not ok and bad == (0, 2)
        ok2, bad2 = verify_cover(h, BicliqueCover(3, [((0,), (1, 2))]))
        assert not ok2 and bad2 == (1, 2)

    def test_non_host_biclique_edge_reported(self):
        h = UndirectedGraph(3, [(0, 1)])
        ok, bad = verify_cover(h, BicliqueCover(3, [((0,), (1, 2))]))
        assert not ok and bad == (0, 2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="vertices"):
            verify_cover(UndirectedGraph(3), BicliqueCover(4, []))

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="disjoint"):
            BicliqueCover(3, [((0, 1), (1, 2))])


class TestWeightAndProfile:
    def test_hypercube_weight_is_k_n(self):
        _, c = hypercube_cover(3, 3)
        assert cover_weight(c) == 24

    def test_empty_cover(self):
        c = BicliqueCover(5, [])
        assert cover_weight(c) == 0
        assert tt_profile(c) == {0: 5}

    def test_single_biclique(self):
        c = BicliqueCover(6, [((0,), (1, 2))])
        assert cover_weight(c) == 3
        assert tt_profile(c) == {1: 3, 0: 3}


class TestProfileClaim:
    def test_full_split_hits_equality(self):
        h, c = hypercube_cover(3, 3)
        report = check_tt_claim(h, c)
        assert report.holds and report.slack_pairs == 0
        rows = {t: (size, ok, slack) for t, size, ok, slack in report.rows}
        assert rows[3][0] == 8 and rows[3][2] == 0.0

    def test_partial_split(self):
        h, c = hypercube_cover(4, 2)
        report = check_tt_claim(h, c)
        assert report.slack_pairs == 24
        rows = {t: size for t, size, ok, slack in report.rows}
        assert rows[2] == 16
        assert 16 <= 4 + math.sqrt(24 * 8)
        assert report.holds

    def test_tiny_host(self):
        h = UndirectedGraph(2, [(0, 1)])
        report = check_tt_claim(h, BicliqueCover(2, [((0,), (1,))]))
        assert report.holds and report.slack_pairs == 0

    def test_requires_verified_cover(self):
        h = UndirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="verify"):
            check_tt_claim(h, BicliqueCover(3, [((0,), (1, 2))]))

    def test_holds_on_generated_grid(self):
        for r in range(1, 6):
            for k in range(1, r + 1):
                h, c = hypercube_cover(r, k)
                assert check_tt_claim(h, c).holds


class TestLeadingBound:
    def test_power_of_two_no_slack(self):
        assert leading_lower_bound(8, 0) == 24.0

    def test_with_missing_pairs(self):
        assert leading_lower_bound(16, 24) == pytest.approx(64 - 16 * math.log2(40 / 16))

    def test_note_mentions_omitted_term(self):
        assert "O(n)" in LEADING_BOUND_NOTE

    def test_tight_form_matches_hypercube_weight(self):
        for r in range(1, 6):
            for k in range(1, r + 1):
                h, c = hypercube_cover(r, k)
                n = 1 << r
                s = n * (n - 1) // 2 - h.edge_count
                assert tight_weight_form(n, s) == cover_weight(c) == k * n

    def test_tight_form_rejects_non_powers(self):
        with pytest.raises(ValueError):
            tight_weight_form(16, 25)


class TestHypercube:
    def test_one_bit(self):
        h, c = hypercube_cover(1, 1)
        assert h == UndirectedGraph(2, [(0, 1)])
        assert len(c.parts) == 1

    def test_full_split_is_complete(self):
        h, _ = hypercube_cover(3, 3)
        assert h.edge_count == 28  # K_8

    def test_complement_is_disjoint_cliques(self):
        h, _ = hypercube_cover(4, 2)
        # non-adjacent iff equal on the two low bits: 4 groups of 4
        groups = {}
        for v in range(16):
            groups.setdefault(v & 3, []).append(v)
        for group in groups.values():
            for u in group:
                for v in group:
                    if u != v:
                        assert not h.has_edge(u, v)
        s = 16 * 15 // 2 - h.edge_count
        assert s == 24

    def test_verifies_on_grid(self):
        for r in range(1, 6):
            for k in range(1, r + 1):
                h, c = hypercube_cover(r, k)
                ok, _ = verify_cover(h, c)
                assert ok

    def test_bounds(self):
        with pytest.raises(ValueError):
            hypercube_cover(0, 0)
        with pytest.raises(ValueError):
            hypercube_cover(3, 4)

    def test_a_cover_too_large_to_build_is_refused_first(self, monkeypatch):
        # the host's pair list would hold 4^13 / 2 pairs: no range is walked
        def refuse(*args):
            raise AssertionError("built")

        monkeypatch.setattr(covers, "range", refuse, raising=False)
        with pytest.raises(ValueError, match="<= 12$"):
            hypercube_cover(13, 1)


class TestTwoPath:
    def test_rigid_digraph_satisfies(self):
        for k in (15, 16, 18, 19, 20):
            ok, bad = two_path_condition(unique_hom_digraph(k))
            assert ok and bad is None

    def test_isolated_pair_fails(self):
        ok, bad = two_path_condition(Digraph(2))
        assert not ok and bad == (0, 1)

    def test_complete_pattern_satisfies(self):
        ok, _ = two_path_condition(transitive_tournament(3))
        assert ok


class TestMultiplicityProbe:
    def test_rigid_sixteen(self):
        probe = homomorphism_multiplicity_probe(unique_hom_digraph(16), 10, seed=3)
        assert probe.designed_count == 1
        assert probe.max_random_count <= 1
        assert probe.max_count == 1

    def test_rigid_fifteen_and_eighteen(self):
        for k in (15, 18):
            probe = homomorphism_multiplicity_probe(unique_hom_digraph(k), 25, seed=k)
            assert probe.designed_count == 1
            assert probe.max_random_count <= 1

    def test_single_edge(self):
        probe = homomorphism_multiplicity_probe(Digraph(2, [(0, 1)]), 5, seed=1)
        assert probe.designed_count == 1
        assert probe.max_random_count == 1

    def test_counts_are_capped_at_two(self):
        # an edge and an isolated vertex: 3 * 3 = 9 maps into every 3-vertex host
        d = Digraph(3, [(0, 1)])
        assert count_homomorphisms(d, transitive_host(3)) == 9
        probe = homomorphism_multiplicity_probe(d, 5, seed=1)
        assert (probe.designed_count, probe.max_random_count, probe.max_count) == (2, 2, 2)

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            homomorphism_multiplicity_probe(Digraph(1), 0, seed=1)
