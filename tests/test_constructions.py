import itertools

import pytest

from toursid.constructions import (
    add_dominating_vertex,
    all_orientations_union,
    anti_extend,
    catalog,
    cycle_with_chord,
    d_family,
    directed_cycle,
    directed_path,
    glue,
    impartial_four_tree,
    iterated_balanced_star,
    iterated_star_edge_count,
    join,
    sid_extend,
    star,
    subdivided_star_orientation,
    subset_bipartite,
    substitute,
    symmetric_edge_add,
    transitive_minus_edge,
    transitive_tournament,
    tree_anti_orientation,
    unique_hom_digraph,
)
from toursid.counting import PinnedPattern
from toursid.digraph import Digraph, UndirectedGraph, are_isomorphic, bits, disjoint_union


HOMOGENEITY = "the designated vertices do not share in- and out-neighborhoods"


def sizes(d):
    return d.n, d.edge_count


def vertex_sets(patterns):
    """(d, s) for each pattern d and each set s of at least two of its vertices."""
    return [
        (d, s)
        for d in patterns
        for k in range(2, d.n + 1)
        for s in itertools.combinations(range(d.n), k)
    ]


def is_homogeneous(d, s):
    return len({(d.out(v), d.inn(v)) for v in s}) == 1


class TestBasicFamilies:
    def test_paths(self):
        assert sizes(directed_path(0)) == (1, 0)
        assert sizes(directed_path(1)) == (2, 1)
        assert sizes(directed_path(2)) == (3, 2)

    def test_cycles(self):
        assert sizes(directed_cycle(3)) == (3, 3)
        assert sizes(directed_cycle(4)) == (4, 4)
        assert sizes(directed_cycle(6)) == (6, 6)
        with pytest.raises(ValueError):
            directed_cycle(2)

    def test_transitive_minus_edge(self):
        d = transitive_minus_edge(4, 1, 4)
        assert sizes(d) == (4, 5)
        assert d.meta["eligible"] is True

        p = transitive_minus_edge(3, 1, 3)
        assert p == directed_path(2)
        assert p.meta["eligible"] is False

        assert sizes(transitive_minus_edge(2, 1, 2)) == (2, 0)
        with pytest.raises(ValueError):
            transitive_minus_edge(4, 2, 2)
        with pytest.raises(ValueError):
            transitive_minus_edge(4, 0, 3)

    def test_stars(self):
        out2 = star(2, 0)
        assert sizes(out2) == (3, 2)
        assert out2.out_degree(0) == 2
        assert are_isomorphic(star(1, 1), directed_path(2)) is not None
        balanced = star(3, 3)
        assert balanced.out_degree(0) == balanced.in_degree(0) == 3
        with pytest.raises(ValueError):
            star(0, 0)

    def test_fan_family(self):
        assert sizes(d_family(0)) == (2, 0)
        assert d_family(1) == directed_path(2)
        assert sizes(d_family(2)) == (4, 4)


class TestIteratedBalancedStar:
    def test_small_edge_counts(self):
        assert iterated_balanced_star(1).edge_count == 0
        assert iterated_balanced_star(2).edge_count == 1
        assert iterated_balanced_star(7).edge_count == 10
        assert iterated_balanced_star(15).edge_count == 34

    def test_closed_form_matches_recursion(self):
        # independent recursion: e(k) = k-1 + e(floor((k-1)/2)) + e(ceil((k-1)/2))
        e = {0: 0, 1: 0}
        for k in range(2, 65):
            e[k] = k - 1 + e[(k - 1) // 2] + e[k - 1 - (k - 1) // 2]
        for k in range(1, 65):
            assert iterated_star_edge_count(k) == e[k]
            if k <= 32:
                assert iterated_balanced_star(k).edge_count == e[k]

    def test_center_is_balanced(self):
        s9 = iterated_balanced_star(9)
        assert s9.in_degree(0) == 4 and s9.out_degree(0) == 4


class TestSubsetBipartite:
    def test_one_bit_gadget_is_two_edge_path(self):
        d, a = subset_bipartite(1)
        assert sizes(d) == (3, 2)
        assert a == (0,)
        assert are_isomorphic(d, directed_path(2)) is not None

    def test_arithmetic(self):
        assert sizes(subset_bipartite(2)[0]) == (6, 8)
        assert sizes(subset_bipartite(3)[0]) == (11, 24)

    def test_out_neighborhoods_enumerate_all_subsets(self):
        for k in (1, 2, 3):
            d, a = subset_bipartite(k)
            amask = sum(1 << v for v in a)
            seen = {d.out(b) & amask for b in range(k, k + (1 << k))}
            assert seen == set(range(1 << k))

    def test_a_vertices_balanced_toward_b(self):
        for k in (1, 2, 3, 4):
            d, a = subset_bipartite(k)
            bmask = ((1 << d.n) - 1) ^ sum(1 << v for v in a)
            for v in a:
                assert (d.out(v) & bmask).bit_count() == 1 << (k - 1)
                assert (d.inn(v) & bmask).bit_count() == 1 << (k - 1)

    def test_guard(self):
        with pytest.raises(ValueError):
            subset_bipartite(17)


class TestAllOrientationsUnion:
    def test_single_edge(self):
        a = UndirectedGraph(2, [(0, 1)])
        assert sizes(all_orientations_union(a)) == (4, 2)

    def test_two_edge_path(self):
        a = UndirectedGraph(3, [(0, 1), (1, 2)])
        assert sizes(all_orientations_union(a)) == (12, 8)

    def test_triangle(self):
        a = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert sizes(all_orientations_union(a)) == (24, 24)

    def test_guard(self):
        k5 = UndirectedGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert sizes(all_orientations_union(k5)) == (5 << 10, 10 << 10)  # at the guard
        big = UndirectedGraph(6, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)])
        with pytest.raises(ValueError):
            all_orientations_union(big)


class TestCycleWithChord:
    def test_arithmetic(self):
        assert sizes(cycle_with_chord(3)) == (6, 7)
        assert sizes(cycle_with_chord(5)) == (10, 11)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cycle_with_chord(2)
        with pytest.raises(ValueError):
            cycle_with_chord(4)


class TestUniqueHomDigraph:
    def test_sixteen(self):
        d = unique_hom_digraph(16)
        assert sizes(d) == (16, 65)
        assert d.meta["params"] == {"k": 16, "s": 4, "t": 11}

    def test_twelve_rejected_naming_inequality(self):
        with pytest.raises(ValueError, match=r"t > 2s\+1"):
            unique_hom_digraph(12)

    def test_distinct_out_neighborhoods(self):
        d = unique_hom_digraph(16)
        s, t = 4, 11
        amask = (1 << s) - 1
        outs = [d.out(u) & amask for u in range(s + 1, s + t + 1)]
        assert len(set(outs)) == t

    def test_in_degree_from_second_part(self):
        for k in (15, 16, 18, 19, 20):
            d = unique_hom_digraph(k)
            s, t = d.meta["params"]["s"], d.meta["params"]["t"]
            a2 = range(s + 1, s + t + 1)
            for v in range(s):
                indeg = sum(1 for u in a2 if d.has_edge(u, v))
                assert 2 * indeg >= t - 1


class TestSubdividedStar:
    def test_four_arms(self):
        d = subdivided_star_orientation(2)
        assert sizes(d) == (9, 8)
        assert _arm_type_counts(d) == [1, 1, 1, 1]

    def test_eight_arms(self):
        d = subdivided_star_orientation(4)
        assert sizes(d) == (17, 16)
        assert _arm_type_counts(d) == [2, 2, 2, 2]

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            subdivided_star_orientation(1)
        with pytest.raises(ValueError):
            subdivided_star_orientation(3)


def _arm_type_counts(d):
    counts = [0, 0, 0, 0]
    arms = (d.n - 1) // 2
    for i in range(arms):
        m, leaf = 1 + 2 * i, 2 + 2 * i
        tp = (2 if d.has_edge(m, 0) else 0) | (1 if d.has_edge(leaf, m) else 0)
        counts[tp] += 1
    return counts


class TestTreeOrientation:
    def test_two_leaf_star(self):
        r = UndirectedGraph(3, [(0, 1), (0, 2)])
        d = tree_anti_orientation(r)
        assert d.edges() == [(0, 2), (1, 0)]

    def test_single_edge(self):
        r = UndirectedGraph(2, [(0, 1)])
        assert tree_anti_orientation(r).edges() == [(0, 1)]

    def test_four_leaf_star_balances(self):
        r = UndirectedGraph(5, [(0, i) for i in range(1, 5)])
        d = tree_anti_orientation(r)
        assert d.in_degree(0) == 2 and d.out_degree(0) == 2

    def test_two_even_vertices_rejected(self):
        path5 = UndirectedGraph(5, [(i, i + 1) for i in range(4)])
        with pytest.raises(ValueError, match="even degree"):
            tree_anti_orientation(path5)

    def test_all_odd_tree(self):
        # star with 3 leaves: all degrees odd; orientation glues across an edge
        r = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)])
        d = tree_anti_orientation(r)
        assert d.underlying() == r

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            tree_anti_orientation(UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_single_vertex(self):
        assert sizes(tree_anti_orientation(UndirectedGraph(1))) == (1, 0)


class TestExtend:
    def test_builds_iterated_star(self):
        base = star(2, 2)  # center 0, out 1 2, in 3 4
        step1 = anti_extend(base, (3, 4), iterated_balanced_star(2))
        step2 = anti_extend(step1, (1, 2), iterated_balanced_star(2))
        assert are_isomorphic(step2, iterated_balanced_star(5)) is not None

    def test_empty_install_is_identity(self):
        d = star(2, 2)
        assert anti_extend(d, (), Digraph(0)).edges() == d.edges()

    def test_requires_homogeneous_set(self):
        d = directed_path(2)  # endpoints have different neighborhoods
        with pytest.raises(ValueError, match="share"):
            anti_extend(d, (0, 2), iterated_balanced_star(2))

    def test_requires_matching_size(self):
        with pytest.raises(ValueError, match="has 2 vertices"):
            anti_extend(star(2, 2), (3, 4), Digraph(3))

    def test_requires_independent_set(self):
        # an edge inside the set already breaks homogeneity
        with pytest.raises(ValueError, match=HOMOGENEITY):
            sid_extend(directed_path(2), (0, 1), Digraph(2))

    def test_homogeneous_sets_are_independent(self):
        # `_extend` checks homogeneity alone and relies on this
        homogeneous = [(d, s) for d, s in vertex_sets(catalog(5)) if is_homogeneous(d, s)]
        assert len(homogeneous) == 57
        for d, s in homogeneous:
            assert not any((d.out(v) | d.inn(v)) >> w & 1 for v in s for w in s)

    def test_refuses_every_non_homogeneous_set(self):
        for d, s in vertex_sets(catalog(5)):
            if not is_homogeneous(d, s):
                with pytest.raises(ValueError, match=f"^{HOMOGENEITY}$"):
                    anti_extend(d, s, Digraph(len(s)))

    def test_edge_arithmetic(self):
        out = sid_extend(d_family(3), (1, 2, 3), transitive_tournament(3))
        assert out.edge_count == d_family(3).edge_count + 3


class TestGlue:
    def test_pinned_star_onto_subset_gadget(self):
        p1 = PinnedPattern(star(1, 1), (0,))
        gadget, a = subset_bipartite(2)
        p2 = PinnedPattern(gadget, a)
        # vertex 2 is the all-in B-vertex, playing the figure's w
        merged = glue(p1, p2, {0: 2})
        assert sizes(merged.pattern) == (8, 10)
        assert merged.pinned_vertices == (0, 1)

    def test_empty_identification_is_disjoint_union(self):
        p1 = PinnedPattern(directed_path(1), ())
        p2 = PinnedPattern(directed_cycle(3), ())
        merged = glue(p1, p2, {})
        assert merged.pattern == disjoint_union(directed_cycle(3), directed_path(1))

    def test_installs_edges_on_first_part(self):
        gadget, a = subset_bipartite(2)
        p1 = PinnedPattern(gadget, a)
        edge = Digraph(2, [(0, 1)])
        merged = glue(PinnedPattern(edge, ()), PinnedPattern(edge, ()), {})
        assert merged.pattern.edge_count == 2
        cor = glue(p1, PinnedPattern(edge, ()), {0: 0, 1: 1})
        assert sizes(cor.pattern) == (6, 9)
        assert cor.pattern.has_edge(0, 1)

    def test_collision_rejected(self):
        p1 = PinnedPattern(star(1, 1), (0,))
        p2 = PinnedPattern(directed_path(1), ())
        with pytest.raises(ValueError, match="exactly"):
            glue(p1, p2, {})

    def test_noninjective_identification_rejected(self):
        p1 = PinnedPattern(d_family(1), (0, 2))
        p2 = PinnedPattern(Digraph(2, [(0, 1)]), ())
        with pytest.raises(ValueError, match="collides"):
            glue(p1, p2, {0: 0, 2: 0})

    def test_merged_pattern_stays_oriented(self):
        # the pinned set is independent, so merged edge sets never collide;
        # the merge runs through the validating constructor regardless
        p1 = PinnedPattern(d_family(1), (0, 2))
        p2 = PinnedPattern(Digraph(2, [(0, 1)]), ())
        merged = glue(p1, p2, {0: 1, 2: 0})
        assert are_isomorphic(merged.pattern, directed_cycle(3)) is not None


class TestGrowth:
    def test_source_over_fork(self):
        base = Digraph(3, [(0, 1), (2, 1)])
        d = add_dominating_vertex(base, "source")
        assert sizes(d) == (4, 5)
        assert d.out_degree(3) == 3

    def test_sink(self):
        d = add_dominating_vertex(directed_path(1), "sink")
        assert d.in_degree(2) == 2

    def test_dominating_vertex_is_single_vertex_join(self):
        d = Digraph(3, [(0, 1), (2, 1)])
        assert are_isomorphic(add_dominating_vertex(d, "source"), join(Digraph(1), d))
        assert are_isomorphic(add_dominating_vertex(d, "sink"), join(d, Digraph(1)))

    def test_join_arithmetic(self):
        e = Digraph(2, [(0, 1)])
        assert sizes(join(e, e)) == (4, 6)

    def test_substitute_arithmetic(self):
        d1 = directed_path(2)
        d2 = directed_cycle(3)
        for v_star in range(3):
            out = substitute(d1, v_star, d2)
            assert out.n == d1.n + d2.n - 1
            assert out.edge_count == d1.edge_count + d2.edge_count + d1.degree(
                v_star
            ) * (d2.n - 1)

    def test_substitute_single_vertex_is_identity_shape(self):
        d1 = d_family(2)
        assert are_isomorphic(substitute(d1, 0, Digraph(1)), d1) is not None

    def test_deleted_edge_pipeline(self):
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
                    target = transitive_minus_edge(k, i, j)
                    assert are_isomorphic(core, target) is not None, (k, i, j)


class TestSymmetricEdgeAdd:
    def test_cycle_chord_pair(self):
        res = symmetric_edge_add(directed_cycle(6), 0, 3)
        assert res is not None
        d_prime, d_dprime = res
        assert d_dprime == cycle_with_chord(3)
        assert d_prime.has_edge(3, 0)

    def test_matching_pair_of_path_union(self):
        d = disjoint_union(directed_path(2), directed_path(2))
        assert symmetric_edge_add(d, 1, 4) is not None

    def test_asymmetric_pair_absent(self):
        p2 = transitive_minus_edge(3, 1, 3)
        assert symmetric_edge_add(p2, 0, 2) is None

    def test_existing_edge_rejected(self):
        with pytest.raises(ValueError, match="already"):
            symmetric_edge_add(directed_path(1), 0, 1)


class TestCatalog:
    def test_members_fit_and_are_distinct(self, small_catalog):
        assert all(d.n <= 4 for d in small_catalog)
        for d1, d2 in itertools.combinations(small_catalog, 2):
            if d1.n == d2.n and d1.edge_count == d2.edge_count:
                assert are_isomorphic(d1, d2) is None

    def test_contains_key_families(self, small_catalog):
        names = {d.meta["family"] for d in small_catalog if d.meta}
        assert {"directed-path", "directed-cycle", "star", "impartial-four-tree"} <= names

    def test_impartial_tree_shape(self):
        assert sizes(impartial_four_tree()) == (4, 3)
