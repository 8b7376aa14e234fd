"""The committed class table and the exhaustive scans that read it.

`src/toursid/tournament_classes.bin` holds one little-endian int32 per
isomorphism class of n-vertex tournaments, n-major over n = 0..8: the class's
orbit minimum, its smallest pair code, ascending within each n. The classes
come from the live enumeration (`host_reference.enumerate_representatives`),
and each representative is replaced by the smallest code it takes under
every permutation of [n] (`host_reference.brute_orbit_minima`). To
regenerate the file (about 15 s), run from the repository root with `src`
and `tests` on the path:

    import struct
    from host_reference import brute_orbit_minima, enumerate_representatives
    from toursid.hosts import REPRESENTATIVES_LIMIT

    flat = [
        code
        for n in range(REPRESENTATIVES_LIMIT + 1)
        for code in sorted(
            brute_orbit_minima(n, [t.code() for t in enumerate_representatives(n)])
        )
    ]
    with open("src/toursid/tournament_classes.bin", "wb") as f:
        f.write(struct.pack(f"<{len(flat)}i", *flat))

The tests below check the codes against that recipe for n <= 7. At n = 8
they check that the codes are A000568(8) pairwise non-isomorphic entries,
hence one per class, and that each is its own orbit minimum by a pruned
search that shares no code with the brute force and is itself checked
against it for n <= 6.
"""

import json
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from host_reference import (
    brute_orbit_minima,
    enumerate_representatives,
    invariant_key,
    pruned_orbit_minimum,
    raw_columns,
)
from toursid import graphs, hosts, properties
from toursid.cli import main
from toursid.constructions import (
    catalog,
    d_family,
    directed_cycle,
    directed_path,
    impartial_four_tree,
    iterated_balanced_star,
    star,
    transitive_tournament,
)
from toursid.counting import PinnedPattern, labeled_counts
from toursid.digraph import Digraph, SizeLimitError, Tournament, disjoint_union
from toursid.families import check_anti_on_family
from toursid.formats import dgf_dumps, trn_loads
from toursid.graphs import are_isomorphic
from toursid.hosts import (
    CLASS_COUNTS,
    REPRESENTATIVES_LIMIT,
    class_codes,
    pair_count,
    tournament_representatives,
)
from toursid.properties import (
    PropertyReport,
    _scan_steps,
    check_anti_exhaustive,
    check_strong_anti,
    impartiality_report,
    sidorenko_scan_exhaustive,
)
from toursid.search import count_labeled


@pytest.fixture
def table_path(monkeypatch, tmp_path):
    """Point the loader at a temporary copy of the table; reload afterwards."""
    path = tmp_path / "tournament_classes.bin"
    path.write_bytes(hosts._CLASS_TABLE.read_bytes())
    monkeypatch.setattr(hosts, "_CLASS_TABLE", path)
    hosts._class_table.cache_clear()
    yield path
    hosts._class_table.cache_clear()


class TestTable:
    def test_layout(self):
        assert CLASS_COUNTS == (1, 1, 1, 2, 4, 12, 56, 456, 6880)
        assert REPRESENTATIVES_LIMIT == 8
        assert hosts._CLASS_TABLE.stat().st_size == 4 * sum(CLASS_COUNTS) == 29652
        for n, count in enumerate(CLASS_COUNTS):
            codes = class_codes(n)
            assert isinstance(codes, tuple) and len(codes) == count
            assert all(type(c) is int and 0 <= c < 1 << pair_count(n) for c in codes)
            # ascending and pairwise distinct: one smallest code per class
            assert all(a < b for a, b in zip(codes, codes[1:]))

    @pytest.mark.parametrize("n", range(8))
    def test_equals_the_live_enumeration(self, n):
        live = [t.code() for t in enumerate_representatives(n)]
        assert list(class_codes(n)) == sorted(brute_orbit_minima(n, live))

    def test_first_class_is_transitive(self):
        # code 0: every pair i < j is won by j, so the scores are 0..n-1
        for n in range(REPRESENTATIVES_LIMIT + 1):
            assert class_codes(n)[0] == 0
            first = tournament_representatives(n)[0]
            assert sorted(first.out_degree(v) for v in range(n)) == list(range(n))

    def test_representatives_decode_the_codes(self):
        # every code round-trips through Tournament.from_code, n = 8 included
        for n in range(REPRESENTATIVES_LIMIT + 1):
            reps = tournament_representatives(n)
            assert [t.code() for t in reps] == list(class_codes(n))
            assert all(isinstance(t, Tournament) and t.n == n for t in reps)

    def test_eight_vertex_codes_are_pairwise_non_isomorphic(self):
        # isomorphic tournaments share an invariant key, so comparing within
        # buckets covers every pair; with 6880 = A000568(8) entries, each
        # class then has exactly one
        buckets = defaultdict(list)
        for t in tournament_representatives(8):
            buckets[invariant_key(t)].append(t)
        for bucket in buckets.values():
            assert not any(are_isomorphic(a, b) for a, b in combinations(bucket, 2))

    def test_guards(self):
        for read in (class_codes, tournament_representatives):
            with pytest.raises(SizeLimitError):
                read(9)
        with pytest.raises(ValueError):
            class_codes(-1)

    @pytest.mark.parametrize("change", [lambda b: b[:-4], lambda b: b[:-1], lambda b: b + b"\0" * 4])
    def test_resized_file_is_an_error(self, table_path, change):
        table_path.write_bytes(change(table_path.read_bytes()))
        with pytest.raises(ValueError, match="expected 29652"):
            class_codes(3)

    def test_not_read_at_import(self):
        probe = "import toursid.cli, toursid.hosts as h; print(h._class_table.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "0\n"

    def test_loaded_on_first_use_only(self, table_path):
        table_path.unlink()
        # nothing reads the table until a scan asks for it; every exhaustive
        # scan does, raw ones included
        assert check_anti_on_family(directed_cycle(3), "transitive", [4]).verdict == "holds-upto"
        with pytest.raises(FileNotFoundError):
            check_anti_exhaustive(directed_cycle(3), 4)
        with pytest.raises(FileNotFoundError):
            class_codes(4)

    def test_scans_do_not_enumerate(self, monkeypatch, table_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a class scan enumerated the classes")

        # the class enumeration lives in the tests' host_reference, out of
        # any scan's reach; only the isomorphism test could still be called
        monkeypatch.setattr(graphs, "are_isomorphic", refuse)
        report = check_anti_exhaustive(directed_cycle(5), 7, dedup=True)
        assert [row["hosts"] for row in report.curve] == list(CLASS_COUNTS[1:8])
        assert report.verdict == "holds-upto"


class TestOrbitMinima:
    @pytest.mark.parametrize("n", range(8))
    def test_equal_the_brute_force(self, n):
        # every code is the smallest of its orbit
        assert brute_orbit_minima(n, class_codes(n)) == list(class_codes(n))

    @pytest.mark.parametrize("n", range(7))
    def test_pruned_search_equals_the_brute_force(self, n):
        # every raw code for n <= 5; at n = 6 the class codes, their
        # complements (none of them a class code) and every 97th raw code
        if n <= 5:
            codes = list(range(1 << pair_count(n)))
        else:
            top = (1 << pair_count(n)) - 1
            codes = [*class_codes(n), *(top - c for c in class_codes(n))]
            codes += range(0, 1 << pair_count(n), 97)
        pruned = [pruned_orbit_minimum(Tournament.from_code(n, c)) for c in codes]
        assert pruned == brute_orbit_minima(n, codes)

    def test_eight_equals_the_pruned_search(self):
        pruned = [pruned_orbit_minimum(t) for t in tournament_representatives(8)]
        assert pruned == list(class_codes(8))


class TestRawScans:
    """A raw scan counts the smallest code of each class; the reference counts
    every raw code, as `raw_columns` or as the whole code range in the same
    loop."""

    @staticmethod
    def every_code(monkeypatch):
        monkeypatch.setattr(properties, "class_codes", lambda n: range(1 << pair_count(n)))

    def test_reports_equal_the_scan_of_every_code(self, monkeypatch):
        def reports(d):
            runs = [check_anti_exhaustive(d, 6), sidorenko_scan_exhaustive(d, 6)]
            runs += [check_strong_anti(PinnedPattern(d, (v,)), 5) for v in range(d.n)]
            return [r.to_json() for r in runs]

        patterns = [*catalog(4), directed_cycle(5), star(2, 2), star(1, 3)]
        expected = [reports(d) for d in patterns]
        self.every_code(monkeypatch)
        assert [reports(d) for d in patterns] == expected

    @pytest.mark.parametrize("pins", [(1, 2), (1, 3), (2, 4)])
    def test_pinned_pairs_equal_the_scan_of_every_code(self, monkeypatch, pins):
        p = PinnedPattern(star(2, 2), pins)
        report = check_strong_anti(p, 6).to_json()
        self.every_code(monkeypatch)
        assert report == check_strong_anti(p, 6).to_json()

    @pytest.mark.parametrize("d", [directed_cycle(5), star(2, 2)], ids=["C5", "S22"])
    def test_seven_equals_the_raw_columns(self, d):
        # the extreme counts, and the first raw code with the largest
        direct = labeled_counts(d, raw_columns(7))
        n, _, scanned, (counts,), _, host_at = list(
            _scan_steps(d, 7, (), dedup=False)
        )[-1]
        value, h = counts.max()
        assert (n, scanned, len(counts)) == (7, 1 << 21, 456)
        assert (value, host_at(h).code()) == direct.max()
        assert counts.min() == direct.min()


class TestDedupEqualsRaw:
    """Raw and --dedup scans count the same codes, so their reports differ
    only in `regime.dedup` and in the hosts of each row."""

    PATTERNS = [
        *catalog(4),
        directed_cycle(5),
        star(2, 2),
        star(1, 3),
        d_family(2),
        transitive_tournament(4),
        directed_path(3),
        iterated_balanced_star(2),
        impartial_four_tree(),
    ]

    @staticmethod
    def stripped(report):
        doc = json.loads(report.to_json())
        del doc["regime"]["dedup"]
        for row in doc["curve"]:
            del row["hosts"]
        return doc

    @pytest.mark.parametrize("d", PATTERNS, ids=lambda d: " ".join(dgf_dumps(d).split()))
    def test_reports_agree(self, d):
        scans = [lambda dedup: check_anti_exhaustive(d, 7, dedup=dedup)]
        scans.append(lambda dedup: sidorenko_scan_exhaustive(d, 7, dedup=dedup))
        pin_sets = [(v,) for v in range(d.n)]
        pin_sets += [
            (u, v)
            for u, v in combinations(range(d.n), 2)
            if not (d.has_edge(u, v) or d.has_edge(v, u))
        ]
        for pins in pin_sets:
            p = PinnedPattern(d, pins)
            scans.append(lambda dedup, p=p: check_strong_anti(p, 6, dedup=dedup))
        for scan in scans:
            raw, dedup = scan(False), scan(True)
            assert raw.regime["dedup"] is False and dedup.regime["dedup"] is True
            assert self.stripped(raw) == self.stripped(dedup)


class TestScansAtEight:
    def test_anti_row_counts_every_class(self):
        report = check_anti_exhaustive(directed_cycle(5), 8, dedup=True)
        assert report.regime == {"kind": "exhaustive", "n_max": 8, "dedup": True}
        assert report.curve[-1]["n"] == 8 and report.curve[-1]["hosts"] == 6880
        assert report.curve[:-1] == check_anti_exhaustive(directed_cycle(5), 7, dedup=True).curve

    def test_sidorenko_rows_below_eight_are_unchanged(self):
        tt4 = transitive_tournament(4)
        report = sidorenko_scan_exhaustive(tt4, 8, dedup=True)
        assert report.curve[-1]["hosts"] == 6880
        assert report.curve[:-1] == sidorenko_scan_exhaustive(tt4, 7, dedup=True).curve

    @pytest.mark.parametrize(
        "d",
        [
            directed_cycle(5),
            transitive_tournament(4),
            # every row has multiplicity 30 = 0b11110: long ripple carries
            disjoint_union(directed_path(1), Digraph(2)),
        ],
        ids=["C5", "TT4", "P1+2"],
    )
    def test_counts_equal_the_backtracker(self, d):
        n, _, scanned, table, _, host_at = list(_scan_steps(d, 8, (), dedup=True))[-1]
        reps = tournament_representatives(8)
        assert n == 8 and scanned == 6880 and len(table) == 1 and len(table[0]) == 6880
        assert list(table[0]) == [count_labeled(d, t).value for t in reps]
        assert host_at(6879) == reps[6879]

    def test_impartiality_at_eight(self):
        holds = impartiality_report(star(1, 0), 8)
        assert holds.verdict == "holds-upto" and holds.extra == {}
        report = impartiality_report(star(2, 1), 8)
        assert report.regime["n_max"] == 8

    def test_one_guard_for_every_scan(self):
        c3, pinned = directed_cycle(3), PinnedPattern(star(1, 1), (1,))
        scans = [lambda n: impartiality_report(c3, n)]
        for dedup in (False, True):
            scans += [
                lambda n, dedup=dedup: check_anti_exhaustive(c3, n, dedup=dedup),
                lambda n, dedup=dedup: sidorenko_scan_exhaustive(c3, n, dedup=dedup),
                lambda n, dedup=dedup: check_strong_anti(pinned, n, dedup=dedup),
            ]
        for scan in scans:
            with pytest.raises(ValueError, match="guarded at n_max = 8"):
                scan(9)
            assert scan(8).regime["n_max"] == 8

    def test_raw_row_at_eight_counts_every_code(self):
        report = check_anti_exhaustive(directed_cycle(5), 8)
        assert report.curve[-1]["n"] == 8 and report.curve[-1]["hosts"] == 1 << 28
        dedup = check_anti_exhaustive(directed_cycle(5), 8, dedup=True)
        assert [row["max_ratio"] for row in report.curve] == [
            row["max_ratio"] for row in dedup.curve
        ]

    @pytest.mark.parametrize("dedup", [False, True], ids=["raw", "dedup"])
    @pytest.mark.parametrize("pins, ratio", [((1, 2), Fraction(5, 4)), ((1, 3), Fraction(9, 8))])
    def test_pinned_star_fails_first_at_eight(self, dedup, pins, ratio):
        # star(2, 2) pinned at both out-leaves, or at an out- and an in-leaf
        p = PinnedPattern(star(2, 2), pins)
        seven = check_strong_anti(p, 7, dedup=dedup)
        assert seven.verdict == "holds-upto" and seven.extremal_ratio == Fraction(320, 343)
        eight = check_strong_anti(p, 8, dedup=dedup)
        assert eight.verdict == "violated" and eight.extremal_ratio == ratio
        assert eight.curve[:-1] == seven.curve
        assert eight.curve[-1]["hosts"] == (6880 if dedup else 1 << 28)
        again = PropertyReport.from_json(eight.to_json(), verify=True)
        assert again.extra["witness_anchor"] == eight.extra["witness_anchor"]
        # raw or dedup, the witness is the smallest code of its class
        witness = trn_loads(eight.witness_trn)
        assert pruned_orbit_minimum(witness) == witness.code()

    @staticmethod
    def check(tmp_path, *argv):
        path = tmp_path / "c5.dgf"
        path.write_text(dgf_dumps(directed_cycle(5)))
        return main(["check", *argv[:1], "--pattern", str(path), *argv[1:]])

    def test_cli_dedup_scan_at_eight(self, tmp_path, capsys):
        assert self.check(tmp_path, "anti", "--dedup", "--exhaustive", "8") == 0
        assert '"hosts":6880' in capsys.readouterr().out

    def test_cli_raw_scan_at_eight(self, tmp_path, capsys):
        assert self.check(tmp_path, "anti", "--exhaustive", "8") == 0
        assert '"hosts":268435456' in capsys.readouterr().out

    @pytest.mark.parametrize("prop", ["anti", "sidorenko-scan", "strong-anti"])
    def test_cli_scan_at_nine_is_guarded(self, tmp_path, capsys, prop):
        pins = ("--pins-set", "0") if prop == "strong-anti" else ()
        for dedup in ((), ("--dedup",)):
            assert self.check(tmp_path, prop, *dedup, *pins, "--exhaustive", "9") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "guarded at n_max = 8" in err
