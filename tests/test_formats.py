from fractions import Fraction

import pytest

from toursid.covers import BicliqueCover, bcv_dumps, bcv_loads
from toursid.digraph import Digraph, Tournament
from toursid.formats import (
    VERTEX_LIMIT,
    FormatError,
    dgf_dumps,
    dgf_loads,
    host_loads,
    trn_dumps,
    trn_loads,
)
from toursid.hosts import uniform_tournament
from toursid.properties import two_block_tournament
from toursid.rng import below

from test_digraph import random_digraph


class TestDgf:
    def test_golden(self):
        d = Digraph(3, [(0, 1), (2, 0)])
        assert dgf_dumps(d) == "3 2\n0 1\n2 0\n"

    def test_header_comment_is_skipped(self):
        text = dgf_dumps(Digraph(2, [(0, 1)]), header="made by hand")
        assert text.startswith("# made by hand\n")
        assert dgf_loads(text) == Digraph(2, [(0, 1)])

    def test_round_trip_seeded(self):
        for seed in range(1000):
            d = random_digraph(seed, 1 + below(seed, 8, 0))
            assert dgf_loads(dgf_dumps(d)) == d
            assert dgf_dumps(dgf_loads(dgf_dumps(d))) == dgf_dumps(d)

    def test_error_cites_line(self):
        with pytest.raises(FormatError, match="line 3"):
            dgf_loads("2 2\n0 1\n1 x\n")

    @pytest.mark.parametrize(
        "text, line", [("\u00b2 0\n", 1), ("2 1\n0 \u00b2\n", 2), ("2 1\n\u0661 1\n", 2)]
    )
    def test_non_ascii_digits_rejected(self, text, line):
        # str.isdigit accepts '²' and the Arabic-Indic '١', int() only the latter
        with pytest.raises(FormatError, match=f"line {line}: expected"):
            dgf_loads(text)

    def test_declared_count_mismatch(self):
        with pytest.raises(FormatError, match="declared 2 edges"):
            dgf_loads("3 2\n0 1\n")

    def test_invalid_edge_reported(self):
        with pytest.raises(FormatError, match="antiparallel"):
            dgf_loads("2 2\n0 1\n1 0\n")


class TestTrn:
    def test_golden(self):
        t = Tournament.from_code(3, 0b011)
        assert trn_dumps(t) == "3\n110\n"
        assert t.has_edge(0, 1) and t.has_edge(0, 2) and t.has_edge(2, 1)

    def test_round_trip_seeded(self):
        for seed in range(1000):
            t = uniform_tournament(1 + below(seed, 8, 1), seed)
            assert trn_loads(trn_dumps(t)) == t
            assert trn_dumps(trn_loads(trn_dumps(t))) == trn_dumps(t)

    def test_round_trip_large_host(self):
        t = two_block_tournament(768, Fraction(3, 10), 3)
        text = trn_dumps(t)
        assert len(text) == len("768\n") + 768 * 767 // 2 + 1
        assert trn_loads(text) == t
        assert trn_dumps(trn_loads(text)) == text

    def test_single_vertex(self):
        assert trn_loads("1\n") == Tournament(1)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_word(self, n):
        assert trn_dumps(Tournament(n)) == f"{n}\n\n"
        assert trn_loads(f"{n}\n") == Tournament(n)
        with pytest.raises(FormatError, match="line 2: unexpected content after header"):
            trn_loads(f"{n}\n0\n")

    def test_word_length_checked(self):
        with pytest.raises(FormatError, match="line 2"):
            trn_loads("3\n10\n")

    def test_word_alphabet_checked(self):
        with pytest.raises(FormatError, match="0,1"):
            trn_loads("3\n1x0\n")

    @pytest.mark.parametrize("text", ["\u00b2\n", "\u00b2\n0\n", "\u0663\n101\n"])
    def test_non_ascii_vertex_count_rejected(self, text):
        with pytest.raises(FormatError, match="line 1: expected vertex count"):
            trn_loads(text)

    def test_long_malformed_word_is_quoted_by_a_prefix(self):
        n = 768
        p = n * (n - 1) // 2
        for word in ("2" * p, "1" * (p - 1), "0" * (p + 1)):
            with pytest.raises(FormatError) as err:
                trn_loads(f"{n}\n{word}\n")
            message = str(err.value)
            assert len(message) < 160
            assert message.startswith(f"line 2: expected {p} characters over {{0,1}}, got ")
            assert f"got {len(word)} characters, '{word[:40]}'..." in message


class TestBcv:
    def test_golden(self):
        c = BicliqueCover(4, [((0, 1), (2, 3))])
        assert bcv_dumps(c) == "4 1\n2 0 1 | 2 2 3\n"

    def test_round_trip(self):
        c = BicliqueCover(5, [((0,), (1, 2)), ((3,), (4,))])
        assert bcv_loads(bcv_dumps(c)) == c

    def test_member_count_checked(self):
        with pytest.raises(FormatError, match="declared 2 members"):
            bcv_loads("4 1\n2 0 | 1 2\n")

    def test_overlap_rejected(self):
        with pytest.raises(FormatError, match="disjoint"):
            bcv_loads("4 1\n1 0 | 2 0 1\n")

    def test_repeated_member_rejected(self):
        # summed as bits, "2 0 0" would be the one member 1 and dump as
        # "1 1": the document would not round-trip
        with pytest.raises(FormatError) as err:
            bcv_loads("3 1\n2 0 0 | 1 2\n")
        assert str(err.value) == "line 1: vertex 0 is listed twice"

    @pytest.mark.parametrize("text, line", [("\u00b2 1\n", 1), ("4 1\n1 0 | 1 \u00b2\n", 2)])
    def test_non_ascii_digits_rejected(self, text, line):
        with pytest.raises(FormatError, match=f"line {line}"):
            bcv_loads(text)


class TestReader:
    """The line grammar the three formats share (`formats.read_document`)."""

    LONG = "1" * 5000
    TOKENS = " ".join(["1"] * 1000)

    @pytest.mark.parametrize(
        "loads, text, line",
        [
            (dgf_loads, "100000000000 0\n", 1),
            (trn_loads, LONG + "\n", 1),
            (dgf_loads, f"3 1\n0 {LONG}\n", 2),
            (bcv_loads, f"{LONG} 0\n", 1),
            (dgf_loads, f"3 1\n{TOKENS}\n", 2),
            (bcv_loads, f"4 1\n{TOKENS} x | 1 2\n", 2),
            (bcv_loads, "4 1\n1 100000000000000000 | 1 1\n", 1),
        ],
        ids=["dgf-huge-n", "trn-long-n", "dgf-long-field", "bcv-long-header",
             "dgf-long-edge-line", "bcv-long-part", "bcv-huge-member"],
    )
    def test_limits_are_short_format_errors(self, loads, text, line):
        with pytest.raises(FormatError) as err:
            loads(text)
        assert err.value.line_no == line
        assert str(err.value).startswith(f"line {line}: ")
        assert len(str(err.value)) <= 120

    @pytest.mark.parametrize("loads, head", [(dgf_loads, "{} 0"), (trn_loads, "{}"), (bcv_loads, "{} 0")])
    def test_vertex_bound(self, loads, head):
        with pytest.raises(FormatError, match=f"line 1: vertex count {VERTEX_LIMIT + 1} is above"):
            loads(head.format(VERTEX_LIMIT + 1))

    def test_vertex_bound_is_inclusive(self):
        assert dgf_loads(f"{VERTEX_LIMIT} 0\n").n == VERTEX_LIMIT

    def test_long_header_quoted_by_a_prefix(self):
        with pytest.raises(FormatError) as err:
            dgf_loads("x" * 41 + "\n")
        assert str(err.value) == f"line 1: expected 'n m', got 41 characters, {'x' * 40!r}..."

    def test_host_loads_reads_either_format(self):
        t = uniform_tournament(6, 3)
        assert host_loads(trn_dumps(t)) == t
        assert host_loads(dgf_dumps(t)) == t
