"""The report-digest corpus: every canonical report below is pinned in
`report_digests.json` by the first 16 hex digits of its SHA-256, under one
key per (property, pattern, arguments). `test_report_digests.py` recomputes
every report in-process and compares, so a refactor that claims byte-identical
reports is checked rather than asserted.

After a deliberate change of report bytes, re-record the file with

    PYTHONPATH=src python tests/record_report_digests.py

It rewrites `report_digests.json` and prints every key whose digest changed,
appeared or disappeared; that list belongs in the change's notes. To list the
changed keys without rewriting the file, run `test_report_digests.py`: its
failure message names every one.

The corpus: catalog(4) plus C5, C7, star(2,2), TT5 and d_family(3) (d_family(2)
is already in the catalog), each scanned by `check anti` and `sidorenko-scan`
at n_max 6 and 8, raw and dedup, by `impartial` to 7, and pinned at each
single vertex to 6. Then exact and seeded sampled family scans, exact and
sampled `quasirandom_epsilon` on seeded hosts, and `forcing_probe` rows.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from toursid.constructions import (
    catalog,
    d_family,
    directed_cycle,
    directed_path,
    star,
    transitive_tournament,
)
from toursid.counting import PinnedPattern
from toursid.experiments import forcing_probe
from toursid.families import check_anti_on_family
from toursid.formats import json_dumps
from toursid.hosts import two_block_tournament, uniform_tournament
from toursid.properties import (
    check_anti_exhaustive,
    check_strong_anti,
    impartiality_report,
    sidorenko_scan_exhaustive,
)
from toursid.quasi import quasirandom_epsilon

DIGESTS = Path(__file__).with_name("report_digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _name(d) -> str:
    params = ",".join(f"{k}={v}" for k, v in d.meta["params"].items())
    return f"{d.meta['family']}({params})"


def _args(**kwargs) -> str:
    return ",".join(f"{k}={v}" for k, v in kwargs.items())


def _rational(x):
    return None if x is None else str(x)


def scan_patterns() -> list:
    return catalog(4) + [
        directed_cycle(5),
        directed_cycle(7),
        star(2, 2),
        transitive_tournament(5),
        d_family(3),
    ]


def _scan_reports():
    for d in scan_patterns():
        name = _name(d)
        for n_max in (6, 8):
            for dedup in (False, True):
                args = _args(n_max=n_max, dedup=dedup)
                yield f"anti|{name}|{args}", check_anti_exhaustive(d, n_max, dedup=dedup)
                yield f"sidorenko-scan|{name}|{args}", sidorenko_scan_exhaustive(
                    d, n_max, dedup=dedup
                )
        yield f"impartial|{name}|n_max=7", impartiality_report(d, 7)
        for v in range(d.n):
            report = check_strong_anti(PinnedPattern(d, (v,)), 6)
            yield f"strong-anti|{name}|{_args(pins=v, n_max=6, dedup=False)}", report


FAMILY_PATTERNS = (
    directed_path(3),
    directed_cycle(3),
    directed_cycle(5),
    transitive_tournament(4),
    star(1, 2),
    star(0, 3),
    star(2, 2),
    d_family(2),
)


def _family_reports():
    for d in FAMILY_PATTERNS:
        name = _name(d)
        scans = [
            ("transitive", list(range(1, 11)), {}),
            ("blowup", [1, 2, 3], {}),
            ("blowup", [2, 3], {"base": directed_cycle(3)}),
            ("two-block", list(range(4, 13)), {"c": Fraction(1, 3), "seed": 5}),
            ("two-block", [20, 40, 80], {"c": Fraction(1, 10), "seed": 7, "samples": 4000}),
            ("transitive", [5, 10, 30], {"seed": 3, "samples": 1000}),
            ("blowup", [2, 4], {"seed": 9, "samples": 500}),
        ]
        for family, values, kw in scans:
            shown = {k: _name(v) if k == "base" else v for k, v in kw.items()}
            key = f"anti-family|{name}|{_args(family=family, values=values, **shown)}"
            yield key, check_anti_on_family(d, family, values, **kw)


def _quasi_docs():
    hosts = [(f"uniform({n},{seed})", uniform_tournament(n, seed)) for n, seed in
             [(2, 1), (5, 3), (9, 4), (13, 5), (16, 6), (18, 7), (20, 8)]]
    hosts += [(f"two-block({n},1/3,5)", two_block_tournament(n, Fraction(1, 3), 5))
              for n in (12, 20)]
    for label, host in hosts:
        yield f"quasi|{label}|mode=exact", str(quasirandom_epsilon(host))
    for n in (24, 64, 130):
        host = two_block_tournament(n, Fraction(1, 10), 7)
        eps = quasirandom_epsilon(host, "sampled", samples=500, seed=n)
        yield f"quasi|two-block({n},1/10,7)|{_args(mode='sampled', samples=500, seed=n)}", str(eps)


def _forcing_docs():
    hosts = [(f"uniform({n},{n + 1})", uniform_tournament(n, n + 1)) for n in (5, 8, 12, 20, 24, 40)]
    for d in (directed_cycle(3), star(1, 2), directed_cycle(5)):
        for row in forcing_probe(d, hosts, samples=2000, seed=11):
            doc = {
                "n": row.n,
                "deviation": _rational(row.deviation),
                "deviation_approx": row.deviation_approx,
                "epsilon": _rational(row.epsilon),
                "epsilon_approx": row.epsilon_approx,
                "sampled": row.sampled,
            }
            yield f"forcing|{_name(d)}|{_args(host=row.label, samples=2000, seed=11)}", json_dumps(doc)


def reports():
    """Yield (key, canonical text) for every entry of the corpus."""
    for key, report in _scan_reports():
        yield key, report.to_json()
    for key, report in _family_reports():
        yield key, report.to_json()
    yield from _quasi_docs()
    yield from _forcing_docs()


def digests(entries=None) -> dict[str, str]:
    """The digest of each (key, text) of `entries`, by default `reports()`."""
    out = {}
    for key, text in reports() if entries is None else entries:
        if key in out:
            raise ValueError(f"duplicate corpus key {key!r}")
        out[key] = digest(text)
    return out


def changed_keys(old: dict, new: dict) -> list[str]:
    """The keys whose digest changed, appeared or disappeared."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def main() -> int:
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = digests()
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    changed = changed_keys(old, new)
    for key in changed:
        print(key)
    print(f"{len(new)} digests, {len(changed)} changed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
