import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from host_reference import all_oriented_graphs, pairwise_code, pairwise_from_code
from toursid import digraph
from toursid.constructions import (
    directed_cycle,
    directed_path,
    subset_bipartite,
    transitive_tournament,
)
from toursid.digraph import (
    Digraph,
    SizeLimitError,
    Tournament,
    bits,
    disjoint_union,
    fill_to_tournament,
    pair_count,
    transitive_host,
)
from toursid.formats import host_loads, trn_dumps
from toursid.graphs import UndirectedGraph, are_isomorphic
from toursid.hosts import class_codes, two_block_tournament, uniform_tournament
from toursid.rng import below


def random_digraph(seed: int, n: int) -> Digraph:
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            state = below(seed, 3, i, j)
            if state == 1:
                edges.append((i, j))
            elif state == 2:
                edges.append((j, i))
    return Digraph(n, edges)


class TestInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, [(0, 0)])

    def test_rejects_antiparallel(self):
        with pytest.raises(ValueError, match="antiparallel"):
            Digraph(2, [(0, 1), (1, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Digraph(2, [(0, 1), (0, 1)])

    def test_edge_count_is_sum_of_out_degrees(self):
        d = random_digraph(3, 6)
        assert d.edge_count == sum(d.out_degree(v) for v in range(6))
        assert d.edge_count == sum(d.in_degree(v) for v in range(6))

    def test_immutable(self):
        d = Digraph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            d.n = 5

    def test_tournament_needs_all_pairs(self):
        with pytest.raises(ValueError, match="tournament"):
            Tournament(3, [(0, 1), (1, 2)])

    def test_meta_write_once(self):
        d = Digraph(1)
        d.meta = {"family": "x"}
        with pytest.raises(AttributeError):
            d.meta = {"family": "y"}

    def test_tournament_from_rows_needs_all_pairs(self):
        with pytest.raises(ValueError, match="not a tournament"):
            Tournament.from_rows([0b10, 0, 0])

    def test_edge_count_is_checked_before_the_transpose(self, monkeypatch):
        # a DGF/1 host of n vertices and no edge is refused without O(n^2) work
        def refuse(rows, width):
            raise AssertionError("transposed")

        monkeypatch.setattr(digraph, "_transpose", refuse)
        with pytest.raises(ValueError, match="not a tournament"):
            host_loads("5 0\n")

    def test_from_rows_transposes_once(self, monkeypatch):
        rows, widths = uniform_tournament(9, 2).out_rows(), []

        def transpose(rows, width, run=digraph._transpose):
            widths.append(width)
            return run(rows, width)

        monkeypatch.setattr(digraph, "_transpose", transpose)
        t = Tournament.from_rows(rows)
        assert t.in_rows() == t.in_rows() and widths == [9]

    @pytest.mark.parametrize("copy_of", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_keep_class_rows_and_meta(self, copy_of):
        for d in (directed_cycle(5), transitive_host(4), Digraph(3, [(0, 2)])):
            twin = copy_of(d)
            assert type(twin) is type(d) and twin == d
            assert twin.meta == d.meta
        assert copy_of(directed_cycle(5)).meta == {"family": "directed-cycle", "params": {"r": 5}}


class TestReverse:
    def test_cycle_reverse_is_isomorphic(self):
        c3 = directed_cycle(3)
        assert c3.reverse() == Digraph(3, [(1, 0), (2, 1), (0, 2)])
        assert are_isomorphic(c3, c3.reverse()) is not None

    def test_single_edge(self):
        assert Digraph(2, [(0, 1)]).reverse() == Digraph(2, [(1, 0)])

    def test_involution_on_transitive(self):
        tt4 = transitive_tournament(4)
        assert tt4.reverse().reverse() == tt4

    @given(st.integers(0, 2**32), st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, seed, n):
        d = random_digraph(seed, n)
        assert d.reverse().reverse() == d

    def test_tournament_reverse_stays_tournament(self):
        t = uniform_tournament(6, 11)
        assert isinstance(t.reverse(), Tournament)


class TestUnderlying:
    def test_path(self):
        assert directed_path(2).underlying() == UndirectedGraph(3, [(0, 1), (1, 2)])

    def test_transitive_triangle_gives_complete(self):
        assert transitive_tournament(3).underlying() == UndirectedGraph(
            3, [(0, 1), (0, 2), (1, 2)]
        )

    def test_empty(self):
        assert Digraph(5).underlying() == UndirectedGraph(5)


class TestTransitivity:
    def test_filled_transitive_patterns(self):
        for k in range(1, 9):
            assert fill_to_tournament(transitive_tournament(k)) == transitive_host(k)


class TestIsomorphism:
    def test_cycle_vs_reverse(self):
        c3 = directed_cycle(3)
        assert are_isomorphic(c3, c3.reverse()) is not None

    def test_transitive_vs_cycle(self):
        assert are_isomorphic(transitive_tournament(3), directed_cycle(3)) is None

    def test_two_edge_path_vs_subset_gadget(self):
        gadget, _ = subset_bipartite(1)
        assert are_isomorphic(directed_path(2), gadget) is not None

    def test_witness_is_lexicographically_least(self):
        d1 = random_digraph(17, 4)
        perm = (2, 0, 3, 1)
        d2 = d1.relabel(perm)
        witness = are_isomorphic(d1, d2)
        all_witnesses = [
            p
            for p in itertools.permutations(range(4))
            if d1.relabel(p) == d2
        ]
        assert witness == min(all_witnesses)

    def test_size_guard(self):
        big = Digraph(13)
        with pytest.raises(SizeLimitError):
            are_isomorphic(big, big)

    def test_reflexive_and_symmetric_on_small_corpus(self):
        corpus = list(all_oriented_graphs(3)) + [
            d for d in all_oriented_graphs(4)
        ]
        buckets = {}
        for d in corpus:
            assert are_isomorphic(d, d) is not None
            key = (d.n, d.edge_count, tuple(sorted((d.out_degree(v), d.in_degree(v)) for v in range(d.n))))
            buckets.setdefault(key, []).append(d)
        for bucket in buckets.values():
            for d1, d2 in itertools.combinations(bucket, 2):
                assert (are_isomorphic(d1, d2) is None) == (
                    are_isomorphic(d2, d1) is None
                )


class TestBlowup:
    def test_cycle_arithmetic(self):
        b = directed_cycle(3).blowup(2)
        assert (b.n, b.edge_count) == (6, 12)

    def test_identity(self):
        d = random_digraph(5, 5)
        assert d.blowup(1) == d

    def test_transitive_seven(self):
        b = transitive_tournament(7).blowup(2)
        assert (b.n, b.edge_count) == (14, 84)

    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_edge_arithmetic(self, seed, n, m):
        d = random_digraph(seed, n)
        b = d.blowup(m)
        assert b.n == m * d.n
        assert b.edge_count == m * m * d.edge_count

    def test_blocks_are_independent(self):
        b = directed_path(1).blowup(3)
        for v in range(3):
            for w in range(3):
                if v != w:
                    assert not b.adjacent(v, w)


class TestFill:
    def test_blowup_fill_edge_count(self):
        t = fill_to_tournament(directed_cycle(3).blowup(2))
        assert isinstance(t, Tournament)
        assert (t.n, t.edge_count) == (6, 15)

    def test_already_complete(self):
        tt4 = transitive_tournament(4)
        assert fill_to_tournament(tt4) == tt4

    def test_empty_lex_gives_transitive(self):
        assert fill_to_tournament(Digraph(3)) == transitive_host(3)

    @given(st.integers(0, 2**32), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_restriction_recovers_input(self, seed, n):
        d = random_digraph(seed, n)
        t = fill_to_tournament(d)
        for u, v in d.edges():
            assert t.has_edge(u, v)
        # every pair d leaves open is filled from the smaller vertex
        for u, v in itertools.combinations(range(n), 2):
            if not d.adjacent(u, v):
                assert t.has_edge(u, v)


class TestDisjointUnion:
    def test_two_edges(self):
        e = Digraph(2, [(0, 1)])
        u = disjoint_union(e, e)
        assert (u.n, u.edge_count) == (4, 2)
        assert u.edges() == [(0, 1), (2, 3)]

    def test_identity(self):
        d = random_digraph(9, 4)
        assert disjoint_union(d, Digraph(0)) == d

    def test_all_orientations_of_two_edge_path(self):
        parts = [
            Digraph(3, [(0, 1), (1, 2)]),
            Digraph(3, [(0, 1), (2, 1)]),
            Digraph(3, [(1, 0), (1, 2)]),
            Digraph(3, [(1, 0), (2, 1)]),
        ]
        u = parts[0]
        for p in parts[1:]:
            u = disjoint_union(u, p)
        assert (u.n, u.edge_count) == (12, 8)


class TestTournamentInRows:
    @staticmethod
    def transposed(t: Tournament) -> tuple[int, ...]:
        # the general transpose, on a plain digraph with the same rows
        return Digraph.from_rows(t.out_rows()).in_rows()

    def test_complement_equals_transpose_on_small_hosts(self, hosts_upto_5):
        for t in hosts_upto_5:
            assert t.in_rows() == self.transposed(t)

    def test_complement_equals_transpose_on_uniform_hosts(self):
        for seed in range(5):
            t = uniform_tournament(40, seed)
            assert t.in_rows() == self.transposed(t)
            assert [t.in_degree(v) for v in range(40)] == [39 - t.out_degree(v) for v in range(40)]


class TestTransposeReference:
    """The per-edge loops that `Digraph.from_rows` and `Digraph.in_rows` ran
    before the packed transpose, kept as the reference it must equal."""

    @staticmethod
    def check_rows(rows) -> int:
        """The old validation: the edge count, or the first error raised."""
        n = len(rows)
        m = 0
        for u, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {u} has bits beyond vertex {n - 1}")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            m += row.bit_count()
        for u in range(n):
            for v in bits(rows[u]):
                if rows[v] >> u & 1:
                    raise ValueError(f"antiparallel pair on {{{u},{v}}}")
        return m

    @staticmethod
    def in_rows(rows) -> tuple[int, ...]:
        cols = [0] * len(rows)
        for u, row in enumerate(rows):
            for v in bits(row):
                cols[v] |= 1 << u
        return tuple(cols)

    def assert_matches(self, rows):
        try:
            m = self.check_rows(rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Digraph.from_rows(rows)
            assert str(got.value) == str(exc)
            return
        d = Digraph.from_rows(rows)
        assert (d.out_rows(), d.edge_count) == (tuple(rows), m)
        assert d.in_rows() == self.in_rows(rows)

    @staticmethod
    @st.composite
    def damaged_rows(draw):
        """Rows of a random oriented graph with up to four injected
        antiparallel pairs, self-loops or bits past the last vertex."""
        n = draw(st.integers(0, 20))
        pairs = list(itertools.combinations(range(n), 2))
        states = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(pairs), max_size=len(pairs)))
        rows = [0] * n
        for (i, j), state in zip(pairs, states):
            if state == 1:
                rows[i] |= 1 << j
            elif state == 2:
                rows[j] |= 1 << i
        kinds = st.sampled_from(("antiparallel", "self-loop", "out-of-range"))
        for kind, a, b in draw(st.lists(st.tuples(kinds, st.integers(0, 99), st.integers(0, 99)), max_size=4)):
            if not n:
                break
            u, v = a % n, b % n
            if kind == "antiparallel" and u != v:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            elif kind == "self-loop":
                rows[u] |= 1 << u
            elif kind == "out-of-range":
                rows[u] |= 1 << (n + b % 3)
        return rows

    @given(damaged_rows())
    @settings(max_examples=300, deadline=None)
    def test_random_rows(self, rows):
        self.assert_matches(rows)

    def test_first_antiparallel_pair_has_the_lowest_v(self):
        # vertex 0 meets 3 and then 1 in both directions; {0,1} comes first
        rows = [0b1010, 0b0001, 0, 0b0001]
        with pytest.raises(ValueError, match=r"antiparallel pair on \{0,1\}"):
            Digraph.from_rows(rows)
        self.assert_matches(rows)

    @pytest.mark.parametrize("seed", [5, 11])
    def test_two_block_host(self, seed):
        t = two_block_tournament(768, Fraction(3, 10), seed)
        rows = list(t.out_rows())
        self.assert_matches(rows)
        assert t.in_rows() == self.in_rows(rows)
        # reverse two of the edges leaving vertex 300 as well: the first pair
        # reported is the one with the lower second vertex
        outs = list(bits(rows[300] >> 301 << 301))
        for v in outs[1:3]:
            rows[v] |= 1 << 300
        self.assert_matches(rows)


class TestPairCodeReference:
    """`Tournament.from_code` and `Tournament.code` against the per-pair
    loops they replaced (`host_reference`)."""

    def test_every_code_up_to_six(self):
        for n in range(7):
            for code in range(1 << pair_count(n)):
                t = Tournament.from_code(n, code)
                assert t == pairwise_from_code(n, code), (n, code)
                assert t.edge_count == pair_count(n)
                assert t.code() == code

    @pytest.mark.parametrize("n", [7, 8])
    def test_class_codes(self, n):
        for code in class_codes(n):
            t = Tournament.from_code(n, code)
            assert t == pairwise_from_code(n, code), code
            assert t.code() == pairwise_code(t) == code

    @pytest.mark.parametrize("n", [18, 120, 768])
    def test_seeded_hosts(self, n):
        for t in (uniform_tournament(n, 3), two_block_tournament(n, Fraction(3, 10), 5)):
            code = pairwise_code(t)
            assert t.code() == code
            assert Tournament.from_code(n, code) == t
            if n <= 120:
                # the per-pair decode is quadratic in the code length
                assert pairwise_from_code(n, code) == t
                word = "".join("1" if code >> p & 1 else "0" for p in range(pair_count(n)))
                assert trn_dumps(t) == f"{n}\n{word}\n"

    def test_transitive_host_sets_every_bit(self):
        for n in (0, 1, 2, 9, 40):
            assert transitive_host(n).code() == (1 << pair_count(n)) - 1
            assert Tournament.from_code(n, 0) == transitive_host(n).reverse()

    @pytest.mark.parametrize(
        "n, code, message",
        [
            (-1, 0, "vertex count must be nonnegative, got -1"),
            (3, -1, r"pair code out of range for n = 3: needs 0 <= code < 2\^3"),
            (3, 1 << 3, r"pair code out of range for n = 3: needs 0 <= code < 2\^3"),
            (3, 1 << 10, r"pair code out of range for n = 3"),
            (1, 1, r"pair code out of range for n = 1: needs 0 <= code < 2\^0"),
        ],
    )
    def test_from_code_rejects(self, n, code, message):
        with pytest.raises(ValueError, match=message):
            Tournament.from_code(n, code)


class TestNegativeHostSize:
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: transitive_host(n),
            lambda n: uniform_tournament(n, 1),
            lambda n: two_block_tournament(n, Fraction(1, 2), 1),
        ],
        ids=["transitive", "uniform", "two-block"],
    )
    def test_names_the_size(self, build):
        with pytest.raises(ValueError, match="vertex count must be nonnegative, got -5"):
            build(-5)
