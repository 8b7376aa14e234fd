"""Refusals and edge paths that the rest of the suite does not run: one table
per module, each case naming the error type and a fragment of its message."""

import re
from fractions import Fraction

import pytest

from toursid.cli import main
from toursid.constructions import (
    add_dominating_vertex,
    anti_extend,
    d_family,
    directed_path,
    glue,
    iterated_balanced_star,
    iterated_star_edge_count,
    star,
    subset_bipartite,
    substitute,
    transitive_tournament,
    unique_hom_digraph,
)
from toursid.counting import PinnedPattern
from toursid.covers import BicliqueCover, bcv_loads, leading_lower_bound, tight_weight_form
from toursid.digraph import Digraph, Tournament, transitive_host
from toursid.experiments import interpolate_to_density, star_two_block_profile
from toursid.families import check_anti_on_family, sampled_density
from toursid.formats import FormatError, dgf_dumps, dgf_loads, trn_dumps, trn_loads
from toursid.graphs import are_isomorphic
from toursid.properties import PropertyReport
from toursid.quasi import quasirandom_epsilon
from toursid.search import count_homomorphisms

EDGE = Digraph(2, [(0, 1)])
TT3 = transitive_host(3)


def refuses(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: dgf_loads(""), FormatError, "line 1: empty DGF/1 document"),
        (lambda: trn_loads("# a comment\n\n"), FormatError, "line 1: empty TRN/1 document"),
        (lambda: trn_loads("3\n"), FormatError, "line 1: missing orientation word"),
    ],
    ids=["empty", "comment-only", "no-word"],
)
def test_formats_refuses(call, error, fragment):
    refuses(call, error, fragment)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: bcv_loads("2 1\n1 0 1 1\n"), FormatError, "line 2: expected 'A | B'"),
        (lambda: leading_lower_bound(0, 0), ValueError, "need n >= 1 and s >= 0"),
        (lambda: leading_lower_bound(4, -1), ValueError, "need n >= 1 and s >= 0"),
        (lambda: tight_weight_form(3, 0), ValueError, "exact form needs n and (n+2s)/n"),
        (lambda: tight_weight_form(4, 4), ValueError, "exact form needs n and (n+2s)/n"),
    ],
    ids=["bcv-no-bar", "n-zero", "s-negative", "n-not-a-power", "q-not-a-power"],
)
def test_covers_refuses(call, error, fragment):
    refuses(call, error, fragment)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: Digraph(-1), ValueError, "vertex count must be nonnegative"),
        (lambda: Digraph(2, [(0, 2)]), ValueError, "edge (0,2) out of range for n=2"),
        (lambda: EDGE.blowup(0), ValueError, "blowup multiplier must be >= 1"),
        (lambda: Digraph(3).relabel((0, 0, 1)), ValueError, "not a permutation"),
    ],
    ids=["negative-n", "edge-out-of-range", "blowup-zero", "relabel-not-a-permutation"],
)
def test_digraph_refuses(call, error, fragment):
    refuses(call, error, fragment)


def test_isomorphism_needs_equal_sizes():
    assert are_isomorphic(Digraph(2), Digraph(3)) is None


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: sampled_density(EDGE, TT3, 0, 1), ValueError, "need at least one sample"),
        (
            lambda: sampled_density(Digraph(1), Tournament(0), 5, 1),
            ValueError,
            "cannot map a nonempty pattern into an empty host",
        ),
        (
            lambda: check_anti_on_family(EDGE, "two-block", [4], seed=1),
            ValueError,
            "two-block family needs c and seed",
        ),
        (
            lambda: star_two_block_profile(Fraction(1, 2), 0, 2),
            ValueError,
            "profile needs both degrees positive",
        ),
        (lambda: quasirandom_epsilon(TT3, "fast"), ValueError, "unknown mode 'fast'"),
        (
            lambda: quasirandom_epsilon(TT3, "sampled", samples=5),
            ValueError,
            "sampled mode needs samples and seed",
        ),
        (
            lambda: interpolate_to_density(EDGE, TT3, transitive_host(4), target=0),
            ValueError,
            "hosts must share a vertex count",
        ),
        # every walk between 3-vertex hosts brackets the edge count 3
        (
            lambda: interpolate_to_density(EDGE, TT3, TT3, [-1], target=3),
            ValueError,
            "excluded vertex out of range",
        ),
        (
            lambda: interpolate_to_density(EDGE, TT3, TT3, [9], target=3),
            ValueError,
            "excluded vertex out of range",
        ),
        (
            lambda: interpolate_to_density(EDGE, TT3, TT3, 1 << 3, target=3),
            ValueError,
            "excluded vertex out of range",
        ),
    ],
    ids=[
        "no-samples",
        "empty-host",
        "two-block-without-c",
        "profile-degree-zero",
        "quasi-unknown-mode",
        "quasi-sampled-without-seed",
        "walk-sizes-differ",
        "walk-exclude-negative",
        "walk-exclude-out-of-range",
        "walk-exclude-mask-out-of-range",
    ],
)
def test_properties_refuses(call, error, fragment):
    refuses(call, error, fragment)


@pytest.mark.parametrize("d", [Digraph(1), Digraph(3, [(0, 1)])], ids=["K1", "edge+K1"])
def test_isolated_vertex_has_no_homomorphism_into_the_empty_host(d):
    assert count_homomorphisms(d, Tournament(0)) == 0


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: directed_path(-1), ValueError, "edge count must be nonnegative"),
        (lambda: transitive_tournament(-1), ValueError, "vertex count must be nonnegative"),
        (lambda: iterated_balanced_star(0), ValueError, "vertex count must be at least 1"),
        (lambda: iterated_star_edge_count(0), ValueError, "vertex count must be at least 1"),
        (lambda: subset_bipartite(0), ValueError, "part size must be at least 1"),
        (lambda: d_family(-1), ValueError, "middle count must be nonnegative"),
        (lambda: unique_hom_digraph(1), ValueError, "need k >= 2"),
        (lambda: anti_extend(Digraph(2), 0b100, Digraph(1)), ValueError, "designated set out of range"),
        (lambda: anti_extend(star(2, 2), (-1,), Digraph(1)), ValueError, "designated set out of range"),
        (lambda: anti_extend(star(2, 2), [1, 1, 2], EDGE), ValueError, "vertex 1 is listed twice"),
        (
            lambda: glue(PinnedPattern(EDGE, (1,)), PinnedPattern(EDGE, ()), {1: 2}),
            ValueError,
            "identified vertex 2 out of range",
        ),
        (lambda: substitute(star(1, 1), 3, EDGE), ValueError, "substituted vertex out of range"),
        (lambda: substitute(star(1, 1), 0, Digraph(0)), ValueError, "cannot substitute an empty"),
        (
            lambda: add_dominating_vertex(EDGE, "middle"),
            ValueError,
            "direction must be 'source' or 'sink', got 'middle'",
        ),
    ],
    ids=[
        "path-negative",
        "transitive-negative",
        "balanced-star-zero",
        "balanced-star-count-zero",
        "subset-gadget-zero",
        "fan-negative",
        "unique-hom-one",
        "extend-out-of-range",
        "extend-negative",
        "extend-repeated",
        "glue-out-of-range",
        "substitute-out-of-range",
        "substitute-empty",
        "dominating-direction",
    ],
)
def test_constructions_refuses(call, error, fragment):
    refuses(call, error, fragment)


PINNED = PinnedPattern(EDGE, (1,))
REPORT = PropertyReport(
    "p", dgf_dumps(EDGE), None, {"kind": "exhaustive"}, "holds-upto", Fraction(1), None, (), {}
)
COVER = BicliqueCover(3, [(0b001, 0b010)])


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: PINNED._replace(pinned=0b11), "pinned set must be independent in the pattern"),
        (lambda: PinnedPattern._make([EDGE, 0b11]), "pinned set must be independent in the pattern"),
        (
            lambda: REPORT._replace(verdict="violated"),
            "violated verdict requires an extremal ratio above 1",
        ),
        (
            lambda: PropertyReport._make([*REPORT[:4], "violated", *REPORT[5:]]),
            "violated verdict requires an extremal ratio above 1",
        ),
        (lambda: COVER._replace(parts=((0b011, 0b010),)), "biclique parts must be disjoint"),
        (lambda: BicliqueCover._make([3, ((0b011, 0b010),)]), "biclique parts must be disjoint"),
    ],
    ids=["pinned-replace", "pinned-make", "report-replace", "report-make", "cover-replace",
         "cover-make"],
)
def test_records_rebuild_through_their_checks(call, fragment):
    refuses(call, ValueError, fragment)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "strong-anti", "--pins-set", "-1", "--exhaustive", "3"],
        ["count", "--pins=-1:0"],
    ],
    ids=["pins-set", "pins"],
)
def test_cli_refuses_a_negative_pinned_vertex(tmp_path, capsys, argv):
    pattern = tmp_path / "edge.dgf"
    pattern.write_text(dgf_dumps(EDGE))
    host = tmp_path / "tt3.trn"
    host.write_text(trn_dumps(TT3))
    if argv[0] == "count":
        argv = argv + ["--host", str(host)]
    assert main(argv + ["--pattern", str(pattern)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        "error: pinned set is not a subset of the pattern vertices\n",
    )


def test_cli_renders_a_measured_scan_as_text(tmp_path, capsys):
    # a ratio scan has no extremal ratio: it renders as n/a, without an approximation
    pattern = tmp_path / "tt3.dgf"
    pattern.write_text(dgf_dumps(transitive_tournament(3)))
    argv = ["check", "sidorenko-scan", "--pattern", str(pattern), "--exhaustive", "4"]
    assert main(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "property: sidorenko-ratio-scan\n"
        "verdict: measured\n"
        "extremal ratio: n/a\n"
        "  n=1: min_ratio=0/1\n"
        "  n=2: min_ratio=0/1\n"
        "  n=3: min_ratio=0/1\n"
        "  n=4: min_ratio=1/4\n"
    )
