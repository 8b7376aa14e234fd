"""Verdict engines: exhaustive small-host certification, family scans,
pinned checks, impartiality, the planted two-block host and
quasirandom-direction measurement, the code every `check` and `quasi`
command runs.

Verdicts compare exact counts against the random-orientation baseline
2^(-e(D)) n^(v(D)) (labeled form). All ratios are exact rationals; a report
is "violated" exactly when its extremal ratio exceeds 1. Boolean
over-representation verdicts at a fixed host size are never issued; the
over-representation side is reported as ratio scans only.

The star classifier, the blowup falsifier, the interpolation walk and the
forcing probe, which no command runs, live in `experiments`.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .counting import (
    HostColumns,
    HostCounts,
    PinnedPattern,
    _add_plane,
    count_labeled,
    count_labeled_pinned,
    labeled_bound,
    labeled_counts,
)
from .digraph import (
    Digraph,
    Tournament,
    bits,
    fill_to_tournament,
    pair_count,
    transitive_host,
)
from .formats import _frac, _unfrac, dgf_dumps, dgf_loads, json_dumps, trn_dumps, trn_loads
from .hosts import REPRESENTATIVES_LIMIT, _block_rows, class_codes, coin_rows
from .rng import blend, blend_array

if TYPE_CHECKING:
    import numpy as np

QUASI_EXACT_LIMIT = 20

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


# -- exhaustive and family checks -------------------------------------------


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


class SampledDensity(NamedTuple):
    """Monte-Carlo homomorphism-density estimate over uniform vertex maps."""

    hits: int
    samples: int

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.hits, self.samples)

    @property
    def stderr(self) -> float:
        p = self.hits / self.samples
        return math.sqrt(max(p * (1 - p), 0.0) / self.samples)

    def violates(self, bound: Fraction) -> bool:
        """The estimate p lies more than three standard errors above `bound`,
        decided in rationals: p > bound and (p - bound)^2 samples > 9 p (1 - p)."""
        p = self.estimate
        return p > bound and (p - bound) ** 2 * self.samples > 9 * p * (1 - p)


def sampled_density(d: Digraph, t: Tournament, samples: int, seed: int) -> SampledDensity:
    """Estimate the homomorphism density by seeded uniform map sampling."""
    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    n, k = t.n, d.n
    if n == 0 and k > 0:
        raise ValueError("cannot map a nonempty pattern into an empty host")
    tails, heads = np.array(d.edges(), dtype=np.intp).reshape(-1, 2).T
    adj = _packed_rows(t)
    slots = np.arange(k)
    step = _block_rows(k)
    hits = 0
    for start in range(0, samples, step):
        j = np.arange(start, min(start + step, samples))[:, None]
        # phi[j, slot] = below(seed, n, j, slot), one row per sampled map
        phi = (blend_array(seed, j, slots) % np.uint64(n)).astype(np.intp)
        u, v = phi[:, tails], phi[:, heads]
        hit = adj[u, v >> 6] >> (v & 63).astype(np.uint64) & np.uint64(1)
        hits += int(hit.all(axis=1).sum())
    return SampledDensity(hits, samples)


def _packed_rows(t: Digraph) -> np.ndarray:
    """The out-rows of t as an n x ceil(n / 64) uint64 array: bit b of word w
    in row u is the edge u -> 64 w + b."""
    import numpy as np

    words = (t.n + 63) // 64
    buf = b"".join(row.to_bytes(8 * words, "little") for row in t.out_rows())
    return np.frombuffer(buf, dtype="<u8").reshape(t.n, words).astype(np.uint64)


def check_anti_on_family(
    d: Digraph,
    family: str,
    values: Sequence[int],
    *,
    base: Optional[Digraph] = None,
    c=None,
    seed: Optional[int] = None,
    samples: Optional[int] = None,
) -> PropertyReport:
    """Ratio scan over a named host family.

    family "transitive": hosts are the transitive tournaments at each value n.
    family "blowup": hosts are lexicographically filled balanced blowups of
    `base` (default: the pattern itself) at each multiplier value; a given
    base is recorded as DGF/1 in `regime.base`.
    family "two-block": hosts are the planted two-block tournaments at sizes
    `values` with left fraction `c` and the given seed. With `samples` set (any
    family; it needs the seed, recorded in `regime.seed`) the density is
    estimated by seeded map sampling and a violation is called only at three
    standard errors past the baseline, decided in rationals by
    `SampledDensity.violates`.
    """
    if not values:
        raise ValueError("family scan needs at least one host value")
    if samples is not None and seed is None:
        raise ValueError("sampled family scan needs a seed")
    regime: dict = {"kind": "family", "family": family, "values": list(values)}
    if samples is not None:
        regime |= {"kind": "sampled-family", "samples": samples, "seed": seed}
    # each host is built when the loop below reaches it, so a scan that
    # fails its budget early has not built the hosts after the failing one
    if family == "transitive":
        hosts = ((n, transitive_host(n)) for n in values)
    elif family == "blowup":
        src = base if base is not None else d
        hosts = ((m, fill_to_tournament(src.blowup(m))) for m in values)
        if base is not None:
            regime["base"] = dgf_dumps(base)
    elif family == "two-block":
        if c is None or seed is None:
            raise ValueError("two-block family needs c and seed")
        hosts = ((n, two_block_tournament(n, c, seed)) for n in values)
        regime |= {"c": str(Fraction(c)), "seed": seed}
    else:
        raise ValueError(f"unknown family {family!r}")

    bound_unit = Fraction(1, 1 << d.edge_count)
    curve = []
    best_ratio = Fraction(0)
    witness = witness_row = None
    for value, host in hosts:
        if samples is None:
            res = count_labeled(d, host)
            ratio = res.ratio
            row = {
                "value": value,
                "n": host.n,
                "count": str(res.value),
                "bound": _frac(res.bound),
                "max_ratio": _frac(ratio),
                "max_ratio_approx": float(ratio),
                "violated": ratio > 1,
            }
        else:
            map_seed = blend(seed, host.n, samples)
            est = sampled_density(d, host, samples, map_seed)
            ratio = est.estimate / bound_unit
            row = {
                "value": value,
                "n": host.n,
                "samples": samples,
                "map_seed": map_seed,
                "hits": est.hits,
                "bound": _frac(bound_unit),
                "estimate": _frac(est.estimate),
                "stderr_approx": est.stderr,
                "max_ratio": _frac(ratio),
                "max_ratio_approx": float(ratio),
                "violated": est.violates(bound_unit),
            }
        curve.append(row)
        if row["violated"] and witness is None:
            witness, witness_row = host, row
        best_ratio = max(best_ratio, ratio)

    violated = any(row["violated"] for row in curve)
    extra = {}
    if witness is not None and samples is not None:
        extra["witness_hits"] = witness_row["hits"]
        extra["witness_map_seed"] = witness_row["map_seed"]
    return _report("anti-sidorenko-family", d, regime, violated, best_ratio, witness, curve, extra)


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


# -- the planted two-block host ---------------------------------------------


def two_block_tournament(n: int, c, seed: int) -> Tournament:
    """Planted two-block host: vertices below floor(c*n) beat vertices at or
    above it; every other pair is a seeded coin."""
    frac = Fraction(c)
    if not 0 <= frac <= 1:
        raise ValueError("block fraction must lie in [0, 1]")
    return Tournament.from_rows(coin_rows(n, seed, math.floor(frac * n)))


# -- quasirandom direction ----------------------------------------------------


def quasirandom_epsilon(
    t: Tournament,
    mode: str = "exact",
    *,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Fraction:
    """Minimal eps with e(A,B) - e(B,A) <= eps n^2 over disjoint subset pairs.

    For fixed A the optimal B takes every vertex outside A with positive
    signed in-degree toward A. Exact mode scans all 2^n subsets A (guarded at
    n = 20) on bit-sliced Python ints, without numpy. Sampled mode draws
    seeded random subsets A as 64-bit word masks, as many blocks of
    `hosts._block_rows(n)` subsets at a time as fit in `hosts._BLOCK` words,
    and returns the high-water value, an exact lower bound on the true eps.
    A block meets the out-rows one word at a time: the popcounts of its
    subsets' word w against word w of every out-row add into one subsets x
    vertices counter, reused by every block.
    Both modes work in fixed-size blocks, so memory stays bounded at any n.
    """
    n = t.n
    if n <= 1:
        return Fraction(0)
    if mode == "exact":
        if n > QUASI_EXACT_LIMIT:
            raise ValueError(f"exact scan is guarded at n = {QUASI_EXACT_LIMIT}")
        return Fraction(_exact_best(t), n * n)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None or seed is None:
        raise ValueError("sampled mode needs samples and seed")
    if samples < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    from .hosts import _BLOCK  # read per call, so a patched block size holds

    words = (n + 63) // 64
    # out_cols[w]: word w of every vertex's out-row
    out_cols = np.ascontiguousarray(_packed_rows(t).T)
    step = _block_rows(n)
    # the words of as many whole blocks as fit in _BLOCK entries are drawn in
    # one `blend_array` call: one call for 1000 subsets at n = 768
    chunk = step * max(1, _BLOCK // (step * words))
    # the counter and its two temporaries, one subset per row and one vertex
    # per column, allocated once and reused by every block
    buffers = [np.empty((step, n), dtype) for dtype in (np.int32, np.uint64, np.uint8)]
    best = 0
    for first in range(0, samples, chunk):
        # word w of subset A_j is blend(seed, j, w), cut to the n vertices
        j = np.arange(first, min(first + chunk, samples))[:, None]
        drawn = blend_array(seed, j, np.arange(words))
        if n % 64:
            drawn[:, -1] &= np.uint64((1 << (n % 64)) - 1)
        for start in range(0, len(drawn), step):
            a = drawn[start : start + step]
            meet, word, ones = (buf[: len(a)] for buf in buffers)
            meet.fill(0)
            for w in range(words):
                np.bitwise_and(a[:, w, None], out_cols[w], out=word)
                np.bitwise_count(word, out=ones)
                meet += ones
            # for v outside A the signed in-degree toward A is
            # |in(v) & A| - |out(v) & A| = |A| - 2 |out(v) & A| in a
            # tournament, written over `meet`
            meet *= -2
            meet += np.bitwise_count(a).sum(axis=1, dtype=np.int32)[:, None]
            inside = np.unpackbits(
                a.astype("<u8", copy=False).view(np.uint8), axis=1, count=n, bitorder="little"
            )
            np.copyto(meet, 0, where=inside.view(bool))
            np.maximum(meet, 0, out=meet)
            best = max(best, int(meet.sum(axis=1).max()))
    return Fraction(best, n * n)


def _exact_best(t: Tournament) -> int:
    """The largest sum over v outside A of max(0, |in(v) & A| - |out(v) & A|)
    over all subsets A, bit-sliced: bit a of column X_u says whether vertex
    u < b is in subset a, and each block of 2^b subsets fixes the others."""
    from .hosts import _BLOCK  # read per call, so a patched block size holds

    n, rows = t.n, t.out_rows()
    b = min(n, _BLOCK.bit_length() - 1)
    full, low, k = (1 << (1 << b)) - 1, (1 << b) - 1, (n - 1).bit_length()
    cols = [((1 << (1 << u)) - 1 << (1 << u)) * (full // ((1 << (2 << u)) - 1)) for u in range(b)]
    outside = [col ^ full for col in cols] + [full] * (n - b)
    # per v, the count of its literals X_u (u -> v) and ~X_u (v -> u), u < b
    counters: list[list[int]] = [[] for _ in range(n)]
    for v, u in itertools.product(range(n), range(b)):
        if u != v:
            _add_plane(counters[v], cols[u] if rows[u] >> v & 1 else outside[u], 0)
    best, cache = 0, {}
    for high in range(0, 1 << n, 1 << b):
        acc: list[int] = []
        for v in bits(~high & ((1 << n) - 1)):
            # c = 2^k + |in(v) & high| - |out(v) & high| - |out(v) & low|, so
            # counter + c = 2^k + signed in-degree < 2^(k+1): plane k is its sign
            c = (1 << k) + (high & ~rows[v]).bit_count() - (rows[v] & (high | low)).bit_count()
            if (v, c) not in cache:
                x = list(counters[v])
                for j in bits(c):
                    _add_plane(x, full, j)
                sign = (x + [0] * k)[k] & outside[v]
                cache[v, c] = [p & sign for p in x[:k]]
            for j, p in enumerate(cache[v, c]):
                _add_plane(acc, p, j)
        best = max(best, HostCounts(1 << b, acc).max()[0])
    return best
