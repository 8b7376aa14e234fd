"""Verdict engines of the exhaustive scans: every tournament on up to n_max
vertices, counted one isomorphism class at a time, against the labeled
baseline. `check_anti_exhaustive`, `check_strong_anti` (pinned),
`sidorenko_scan_exhaustive` and `impartiality_report` all read one scan loop,
`_scan_steps`, over the count tables of `counting`, and write one record,
`PropertyReport`. This is the code of `check anti --exhaustive`,
`check strong-anti`, `check sidorenko-scan` and `check impartial`; a scan
process loads no toursid module but `cli`, this one and its imports.

Verdicts compare exact counts against the random-orientation baseline
2^(-e(D)) n^(v(D)) (labeled form). All ratios are exact rationals; a report
is "violated" exactly when its extremal ratio exceeds 1. Boolean
over-representation verdicts at a fixed host size are never issued; the
over-representation side is reported as ratio scans only.

The family scans live in `families`, the quasirandom direction in `quasi`,
the planted two-block host in `hosts`, and the star classifier, the blowup
falsifier, the interpolation walk and the forcing probe, which no command
runs, in `experiments`. `PropertyReport.verify_witness` recounts a witness
with the backtracker (`search`) or re-runs a sampled estimate (`families`),
importing them when it is called.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import NamedTuple, Optional

from . import _forward
from .counting import HostColumns, PinnedPattern, labeled_bound, labeled_counts
from .digraph import Digraph, Tournament, pair_count
from .formats import _frac, _unfrac, dgf_dumps, dgf_loads, json_dumps, trn_dumps, trn_loads
from .hosts import REPRESENTATIVES_LIMIT, class_codes

__getattr__ = _forward(
    __name__, "check_anti_on_family", "sampled_density", "quasirandom_epsilon",
    "two_block_tournament",
)


REPORT_SCHEMA = "toursid/report-v1"

class _ReportFields(NamedTuple):
    property_name: str
    pattern_dgf: str
    provenance: Optional[dict]
    regime: dict
    verdict: str  # "holds-upto" | "violated" | "measured"
    extremal_ratio: Optional[Fraction]
    witness_trn: Optional[str]
    curve: tuple
    extra: dict


class PropertyReport(_ReportFields):
    """Verdict record with exact extremal ratio and reloadable witness."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # sampled estimates may legitimately sit above 1 without a 3-sigma
        # violation call, and impartiality has no ratio at all
        exact = self.regime.get("kind") not in ("sampled-family", "impartial-scan")
        if self.verdict == "violated" and exact and (
            self.extremal_ratio is None or self.extremal_ratio <= 1
        ):
            raise ValueError("violated verdict requires an extremal ratio above 1")
        if (
            self.verdict == "holds-upto"
            and exact
            and self.extremal_ratio is not None
            and self.extremal_ratio > 1
        ):
            raise ValueError("holds verdict contradicts an extremal ratio above 1")
        return self

    @classmethod
    def _make(cls, fields):
        # `_replace` builds through `_make`: both re-run the checks above
        return cls(*fields)

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "property": self.property_name,
            "pattern": {"dgf": self.pattern_dgf, "provenance": self.provenance},
            "regime": self.regime,
            "verdict": self.verdict,
            "extremal_ratio": None
            if self.extremal_ratio is None
            else _frac(self.extremal_ratio),
            "extremal_ratio_approx": None
            if self.extremal_ratio is None
            else float(self.extremal_ratio),
            "witness_trn": self.witness_trn,
            "curve": list(self.curve),
            "extra": self.extra,
        }

    def to_json(self) -> str:
        return json_dumps(self.to_json_dict())

    @staticmethod
    def from_json(text: str, verify: bool = True) -> "PropertyReport":
        """Load a report-v1 document; a malformed one is a ValueError."""
        doc = json.loads(text)
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != REPORT_SCHEMA:
            raise ValueError(f"unknown report schema {schema!r}")
        try:
            report = PropertyReport(
                property_name=doc["property"],
                pattern_dgf=doc["pattern"]["dgf"],
                provenance=doc["pattern"]["provenance"],
                regime=doc["regime"],
                verdict=doc["verdict"],
                extremal_ratio=None
                if doc["extremal_ratio"] is None
                else _unfrac(doc["extremal_ratio"]),
                witness_trn=doc["witness_trn"],
                curve=tuple(doc["curve"]),
                extra=doc["extra"],
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from None
        if verify:
            report.verify_witness()
        return report

    def verify_witness(self) -> None:
        """Re-verify a violation witness by recounting (exact regimes) or by
        re-running the identical seeded estimate (sampled regimes)."""
        if self.verdict != "violated":
            return
        if self.witness_trn is None:
            raise ValueError("violated report carries no witness")
        # read the fields before the first count, so that a malformed field is
        # a ValueError and an error of the counting engines stays its own
        try:
            pattern, host = dgf_loads(self.pattern_dgf), trn_loads(self.witness_trn)
            kind = self.regime.get("kind")
            pins = {int(k): int(v) for k, v in self.extra.get("witness_anchor", {}).items()}
            if kind == "impartial-scan":
                first, second = (trn_loads(s) for s in self.extra["witness_pair"])
            if kind == "sampled-family":
                samples, map_seed = self.regime["samples"], self.extra["witness_map_seed"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from None
        from .families import sampled_density
        from .search import count_labeled, count_labeled_pinned

        if kind == "impartial-scan":
            if count_labeled(pattern, first).value == count_labeled(pattern, second).value:
                raise ValueError("impartiality witnesses no longer disagree")
            return
        if kind == "sampled-family":
            est = sampled_density(pattern, host, samples, map_seed)
            bound = Fraction(1, 1 << pattern.edge_count)
            if est.hits != self.extra.get("witness_hits"):
                raise ValueError("sampled witness did not reproduce its hit count")
            if not est.violates(bound):
                raise ValueError("sampled witness no longer violates the bound")
            return
        res = count_labeled_pinned(PinnedPattern(pattern, tuple(pins)), host, pins)
        if res.ratio <= 1:
            raise ValueError("witness failed re-verification: ratio not above 1")
        # exhaustive witnesses are the scan maximizer; a family witness is the
        # first violating host, whose ratio may sit below the curve maximum
        if kind in ("exhaustive", "exhaustive-pinned"):
            if self.extremal_ratio is not None and res.ratio != self.extremal_ratio:
                raise ValueError("witness ratio differs from the recorded extremal ratio")
        elif self.extremal_ratio is not None and res.ratio > self.extremal_ratio:
            raise ValueError("witness ratio exceeds the recorded extremal ratio")


def _report(
    name: str,
    d: Digraph,
    regime: dict,
    violated: Optional[bool],
    ratio: Optional[Fraction] = None,
    witness: Optional[Tournament] = None,
    curve=(),
    extra: Optional[dict] = None,
) -> PropertyReport:
    """The report of property `name` on pattern d (as DGF/1, with provenance):
    "measured" when `violated` is None, and a TRN/1 witness when violated."""
    return PropertyReport(
        property_name=name,
        pattern_dgf=dgf_dumps(d),
        provenance=dict(d.meta) if d.meta else None,
        regime=regime,
        verdict="measured" if violated is None else "violated" if violated else "holds-upto",
        extremal_ratio=ratio,
        witness_trn=trn_dumps(witness) if violated else None,
        curve=tuple(curve),
        extra=extra or {},
    )


# -- exhaustive checks ------------------------------------------------------


def _guard_scan(n_max: int, pinned: int = 0, scan: str = "exhaustive scan") -> None:
    """The size guard of every exhaustive scan: n_max at most the class
    table's REPRESENTATIVES_LIMIT, and at least the first size `_scan_steps`
    scans, max(|I|, 1) for `pinned` = |I| pinned vertices, so that no scan is
    vacuous."""
    if n_max > REPRESENTATIVES_LIMIT:
        raise ValueError(f"{scan} is guarded at n_max = {REPRESENTATIVES_LIMIT}")
    first = max(pinned, 1)
    if n_max < first:
        raise ValueError(f"{scan} needs n_max >= {first}, got {n_max}")


def _scan_steps(d: Digraph, n_max: int, pinned: tuple, *, dedup: bool):
    """The one exhaustive scan loop. Per host size n from max(|I|, 1) to
    n_max, with I the pinned vertices, yields n, the baseline, the number of
    hosts the row reports, one `HostCounts` of labeled counts per anchor
    (anchors of I in permutation order; one anchor when I is empty), the
    anchors, and the map from a host index to its host.

    Counts are isomorphism invariants, so only the smallest code of each
    class is counted, in ascending order: the first extremal code and anchor
    are those of all 2^(n(n-1)/2) codes. `dedup` only decides the hosts a row
    reports: the A000568(n) classes instead of the 2^(n(n-1)/2) codes. The
    bit columns are built once per n and shared by every anchor.
    """
    for n in range(max(len(pinned), 1), n_max + 1):
        codes = class_codes(n)
        scanned = len(codes) if dedup else 1 << pair_count(n)
        hosts = HostColumns.of_codes(n, codes)
        anchors = [
            dict(zip(pinned, images))
            for images in itertools.permutations(range(n), len(pinned))
        ]
        counts = [labeled_counts(d, hosts, a) for a in anchors]
        host_at = lambda h, n=n, codes=codes: Tournament.from_code(n, codes[h])
        yield n, labeled_bound(d, n, len(pinned)), scanned, counts, anchors, host_at


def _max_report(
    d: Digraph, n_max: int, pinned: tuple, name: str, regime: dict, *, dedup: bool
) -> PropertyReport:
    """The max-ratio report over `_scan_steps`. The witness host and anchor
    are the first maximum in host-major order (the smallest host, then the
    smallest anchor index), replaced at a later n only by a larger ratio;
    `extra.witness_anchor` is written only when vertices are pinned."""
    curve = []
    best_ratio = Fraction(0)
    witness = witness_anchor = None
    for n, bound, scanned, counts, anchors, host_at in _scan_steps(d, n_max, pinned, dedup=dedup):
        # max keeps the first of equal keys, so ties go to the smaller anchor
        value, best_host, best_anchor = max(
            (c.max() + (i,) for i, c in enumerate(counts)), key=lambda m: (m[0], -m[1])
        )
        ratio = Fraction(value) / bound
        curve.append(
            {
                "n": n,
                "hosts": scanned,
                "bound": _frac(bound),
                "max_ratio": _frac(ratio),
                "max_ratio_approx": float(ratio),
                "violated": ratio > 1,
            }
        )
        if ratio > best_ratio:
            best_ratio = ratio
            witness, witness_anchor = host_at(best_host), anchors[best_anchor]
    violated = best_ratio > 1
    extra = {}
    if violated and pinned:
        extra["witness_anchor"] = {str(k): v for k, v in witness_anchor.items()}
    return _report(name, d, regime, violated, best_ratio, witness, curve, extra)


def check_anti_exhaustive(d: Digraph, n_max: int, *, dedup: bool = False) -> PropertyReport:
    """Scan every tournament with n <= n_max against the labeled baseline.

    Rows report the 2^(n(n-1)/2) raw pair codes, or with dedup=True the
    A000568(n) isomorphism classes; both count the smallest code of each
    class, so the two reports differ only in `regime.dedup` and the rows'
    hosts, and both are guarded at n_max = 8. This is the scan of
    `check_strong_anti` with no pinned vertex; the witness is the first host
    with the maximal count.
    """
    _guard_scan(n_max)
    regime = {"kind": "exhaustive", "n_max": n_max, "dedup": dedup}
    return _max_report(d, n_max, (), "anti-sidorenko-upto", regime, dedup=dedup)


def check_strong_anti(p: PinnedPattern, n_max: int, *, dedup: bool = False) -> PropertyReport:
    """Pinned exhaustive check: for every tournament with n <= n_max and every
    injective anchor of the pinned set, the pinned count stays at or below
    2^(-e) n^(v-|I|)."""
    pinned = p.pinned_vertices
    _guard_scan(n_max, len(pinned), "pinned scan")
    regime = {"kind": "exhaustive-pinned", "n_max": n_max, "dedup": dedup, "pinned": list(pinned)}
    name = "strong-anti-sidorenko-upto"
    return _max_report(p.pattern, n_max, pinned, name, regime, dedup=dedup)


def sidorenko_scan_exhaustive(d: Digraph, n_max: int, *, dedup: bool = False) -> PropertyReport:
    """Minimum labeled ratio per host size; measurement only, never a boolean
    over-representation verdict at fixed n."""
    _guard_scan(n_max)
    curve = []
    for n, bound, scanned, counts, _, _ in _scan_steps(d, n_max, (), dedup=dedup):
        ratio = Fraction(counts[0].min()) / bound
        curve.append(
            {
                "n": n,
                "hosts": scanned,
                "bound": _frac(bound),
                "min_ratio": _frac(ratio),
                "min_ratio_approx": float(ratio),
            }
        )
    regime = {"kind": "exhaustive", "n_max": n_max, "dedup": dedup}
    return _report("sidorenko-ratio-scan", d, regime, None, curve=curve)


def impartiality_report(d: Digraph, n_max: int) -> PropertyReport:
    """Constant-count check across isomorphism classes at each n <= n_max.

    Scans the smallest code of each isomorphism class (the count is an
    isomorphism invariant, so constancy on one code per class is constancy
    everywhere). At the first size whose counts are not all equal, the
    witness pair is the first class (code 0, the transitive tournament) and
    the first class whose count differs from it, with their two counts.
    """
    _guard_scan(n_max, scan="impartiality scan")
    extra, witness = {}, None
    for *_, (counts,), _, host_at in _scan_steps(d, n_max, (), dedup=True):
        j = counts.first_differing()
        if j is not None:
            witness = host_at(0)
            extra["witness_pair"] = [trn_dumps(witness), trn_dumps(host_at(j))]
            extra["witness_counts"] = [str(counts[0]), str(counts[j])]
            break
    regime = {"kind": "impartial-scan", "n_max": n_max, "dedup": True}
    return _report("impartial", d, regime, witness is not None, witness=witness, extra=extra)
