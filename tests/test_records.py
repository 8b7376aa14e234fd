"""The result records of counting, properties and covers: every one is
immutable and compares by value; `PropertyReport`, `PinnedPattern` and
`BicliqueCover` validate what they are given, with fixed error texts."""

from fractions import Fraction

import pytest

from toursid.constructions import directed_cycle, star
from toursid.counting import PinnedPattern
from toursid.covers import BicliqueCover, MultiplicityProbe, ProfileClaimReport
from toursid.digraph import transitive_host
from toursid.experiments import ForcingRow, InterpolationResult, StarClassification
from toursid.families import SampledDensity
from toursid.properties import PropertyReport
from toursid.search import CountResult


def report(verdict, ratio, kind="exhaustive"):
    return PropertyReport(
        property_name="anti-sidorenko-upto",
        pattern_dgf="2 1\n0 1\n",
        provenance=None,
        regime={"kind": kind, "n_max": 4},
        verdict=verdict,
        extremal_ratio=ratio,
        witness_trn=None,
        curve=(),
        extra={},
    )


class TestVerdictCheck:
    @pytest.mark.parametrize("ratio", [Fraction(1), Fraction(1, 2), Fraction(0), None])
    @pytest.mark.parametrize("kind", ["exhaustive", "exhaustive-pinned", "family"])
    def test_violated_needs_a_ratio_above_one(self, kind, ratio):
        with pytest.raises(ValueError, match="^violated verdict requires an extremal ratio above 1$"):
            report("violated", ratio, kind)

    @pytest.mark.parametrize("kind", ["exhaustive", "exhaustive-pinned", "family"])
    def test_holds_contradicts_a_ratio_above_one(self, kind):
        with pytest.raises(ValueError, match="^holds verdict contradicts an extremal ratio above 1$"):
            report("holds-upto", Fraction(3, 2), kind)

    @pytest.mark.parametrize(
        "verdict, ratio",
        [
            ("violated", Fraction(3, 2)),
            ("holds-upto", Fraction(1)),
            ("holds-upto", Fraction(1, 2)),
            ("holds-upto", None),
            ("measured", Fraction(3, 2)),
            ("measured", Fraction(1, 2)),
            ("measured", None),
        ],
    )
    def test_consistent_verdicts_pass(self, verdict, ratio):
        assert report(verdict, ratio).extremal_ratio == ratio

    @pytest.mark.parametrize("kind", ["sampled-family", "impartial-scan"])
    @pytest.mark.parametrize(
        "verdict, ratio",
        [("violated", Fraction(1, 2)), ("violated", None), ("holds-upto", Fraction(3, 2))],
    )
    def test_sampled_and_impartial_regimes_are_exempt(self, kind, verdict, ratio):
        assert report(verdict, ratio, kind).verdict == verdict


C5 = directed_cycle(5)

# per record: two constructions with equal fields, one with a field changed,
# and the name of one of its fields
RECORDS = {
    "CountResult": (lambda: CountResult(7, Fraction(3, 2)), lambda: CountResult(8, Fraction(3, 2)),
                    "value"),
    "PinnedPattern": (lambda: PinnedPattern(star(2, 2), (1, 3)),
                      lambda: PinnedPattern(star(2, 2), (1,)), "pinned"),
    "PropertyReport": (lambda: report("holds-upto", Fraction(1, 2)),
                       lambda: report("holds-upto", Fraction(1, 3)), "verdict"),
    "SampledDensity": (lambda: SampledDensity(3, 10), lambda: SampledDensity(4, 10), "hits"),
    "StarClassification": (lambda: StarClassification(True, False),
                           lambda: StarClassification(True, True), "sidorenko"),
    "InterpolationResult": (lambda: InterpolationResult(transitive_host(3), 1, (0, 1), (1,)),
                            lambda: InterpolationResult(transitive_host(3), 0, (0, 1), (1,)),
                            "index"),
    "ForcingRow": (lambda: ForcingRow("t", 5, Fraction(1, 4), 0.25, None, 0.1, False),
                   lambda: ForcingRow("t", 5, Fraction(1, 4), 0.25, None, 0.1, True), "sampled"),
    "BicliqueCover": (lambda: BicliqueCover(3, [((1,), (0, 2))]),
                      lambda: BicliqueCover(3, [((0,), (1, 2))]), "parts"),
    "ProfileClaimReport": (lambda: ProfileClaimReport(True, 2, ((1, 2, True, 0.5),)),
                           lambda: ProfileClaimReport(False, 2, ((1, 2, True, 0.5),)), "holds"),
    "MultiplicityProbe": (lambda: MultiplicityProbe(1, 1, 4), lambda: MultiplicityProbe(1, 2, 4),
                          "max_random_count"),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContract:
    def test_fields_cannot_be_assigned(self, name):
        make, _, field = RECORDS[name]
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_no_new_attribute_can_be_set(self, name):
        record = RECORDS[name][0]()
        with pytest.raises(AttributeError):
            record.note_added_later = 1

    def test_compares_by_value(self, name):
        make, other, _ = RECORDS[name]
        assert make() == make()
        assert not make() != make()
        assert make() != other()


class TestValidatingConstructors:
    def test_pinned_pattern_hashes_as_its_fields(self):
        p = PinnedPattern(star(2, 2), (1, 3))
        assert p.pinned == 0b1010
        assert hash(p) == hash((star(2, 2), 0b1010))
        assert hash(p) == hash(PinnedPattern(star(2, 2), 0b1010))
        assert {p: 1}[PinnedPattern(star(2, 2), [3, 1])] == 1

    @pytest.mark.parametrize(
        "pinned, message",
        [
            ((1, 1), "pattern vertex 1 is pinned twice"),
            ((5,), "pinned set is not a subset of the pattern vertices"),
            (1 << 5, "pinned set is not a subset of the pattern vertices"),
            ((0, 1), "pinned set must be independent in the pattern"),
            ((-1,), "pinned set is not a subset of the pattern vertices"),
        ],
    )
    def test_pinned_pattern_errors(self, pinned, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PinnedPattern(C5, pinned)

    def test_pinned_pattern_by_keyword(self):
        p = PinnedPattern(pattern=star(2, 2), pinned=[1, 3])
        assert (p.pattern, p.pinned, p.pinned_vertices) == (star(2, 2), 0b1010, (1, 3))

    def test_biclique_cover_normalises_to_masks(self):
        c = BicliqueCover(host_n=3, parts=[((1,), (0, 2)), (0b001, 0b010)])
        assert (c.host_n, c.parts) == (3, ((0b010, 0b101), (0b001, 0b010)))
        assert c == BicliqueCover(3, (((1,), (2, 0)), ((0,), (1,))))

    @pytest.mark.parametrize(
        "parts, message",
        [
            ([((0,), (3,))], "biclique part out of range"),
            ([(1 << 3, 1)], "biclique part out of range"),
            ([((0, 1), (1, 2))], "biclique parts must be disjoint"),
            ([((-1,), (1,))], "biclique part out of range"),
            ([((0, 0), (1,))], "vertex 0 is listed twice"),
        ],
    )
    def test_biclique_cover_errors(self, parts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BicliqueCover(3, parts)
