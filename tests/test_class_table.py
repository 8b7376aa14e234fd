"""The committed class-code table and the class scans that read it.

`src/toursid/tournament_classes.bin` holds the pair codes of one
representative per isomorphism class of n-vertex tournaments for n = 0..8, as
little-endian int32, n-major, in the order of the live enumeration
(`host_reference.enumerate_representatives`). It was written once by that
enumeration; to regenerate it (about 10 s), run from the repository root
with `src` and `tests` on the path:

    import struct
    from host_reference import enumerate_representatives
    from toursid.hosts import REPRESENTATIVES_LIMIT

    codes = [t.code() for n in range(REPRESENTATIVES_LIMIT + 1)
             for t in enumerate_representatives(n)]
    with open("src/toursid/tournament_classes.bin", "wb") as f:
        f.write(struct.pack(f"<{len(codes)}i", *codes))

The tests below check the table against that enumeration for n <= 7, and at
n = 8 check that it has A000568(8) entries that are pairwise non-isomorphic,
hence one per class.
"""

import subprocess
import sys
from collections import defaultdict
from itertools import combinations

import pytest

from host_reference import enumerate_representatives, invariant_key
from toursid import digraph, hosts
from toursid.cli import main
from toursid.constructions import directed_cycle, star, transitive_tournament
from toursid.counting import PinnedPattern, count_labeled
from toursid.digraph import SizeLimitError, Tournament, are_isomorphic
from toursid.formats import dgf_dumps
from toursid.hosts import (
    CLASS_COUNTS,
    REPRESENTATIVES_LIMIT,
    class_codes,
    tournament_representatives,
)
from toursid.properties import (
    check_anti_exhaustive,
    check_strong_anti,
    impartiality_report,
    _scan_steps,
    is_impartial_upto,
    sidorenko_scan_exhaustive,
)


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
        assert hosts._CLASS_TABLE.stat().st_size == 4 * sum(CLASS_COUNTS)
        for n, count in enumerate(CLASS_COUNTS):
            codes = class_codes(n)
            assert isinstance(codes, tuple) and len(codes) == count
            assert all(type(c) is int and 0 <= c < 1 << n * (n - 1) // 2 for c in codes)

    @pytest.mark.parametrize("n", range(8))
    def test_equals_the_live_enumeration(self, n):
        live = [t.code() for t in enumerate_representatives(n)]
        assert list(class_codes(n)) == live

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
        with pytest.raises(SizeLimitError):
            class_codes(9)
        with pytest.raises(SizeLimitError):
            tournament_representatives(9)
        with pytest.raises(ValueError):
            class_codes(-1)

    @pytest.mark.parametrize("change", [lambda b: b[:-4], lambda b: b[:-1], lambda b: b + b"\0" * 4])
    def test_resized_file_is_an_error(self, table_path, change):
        table_path.write_bytes(change(table_path.read_bytes()))
        with pytest.raises(ValueError, match="expected 29652"):
            class_codes(3)

    def test_not_read_at_import(self):
        probe = "import toursid.cli, toursid.hosts as h; print(h._class_table.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout
        assert out == "0\n"

    def test_loaded_on_first_use_only(self, table_path):
        table_path.unlink()
        # nothing reads the table until a class scan asks for it
        assert check_anti_exhaustive(directed_cycle(3), 4).verdict == "holds-upto"
        with pytest.raises(FileNotFoundError):
            class_codes(4)

    def test_scans_do_not_enumerate(self, monkeypatch, table_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a class scan enumerated the classes")

        # the class enumeration lives in the tests' host_reference, out of
        # any scan's reach; only the isomorphism test could still be called
        monkeypatch.setattr(digraph, "are_isomorphic", refuse)
        report = check_anti_exhaustive(directed_cycle(5), 7, dedup=True)
        assert [row["hosts"] for row in report.curve] == list(CLASS_COUNTS[1:8])
        assert report.verdict == "holds-upto"


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

    @pytest.mark.parametrize("d", [directed_cycle(5), transitive_tournament(4)], ids=["C5", "TT4"])
    def test_counts_equal_the_backtracker(self, d):
        n, _, table, _, host_at = list(_scan_steps(d, 8, (), dedup=True, budget=None))[-1]
        reps = tournament_representatives(8)
        assert n == 8 and len(table) == 1 and len(table[0]) == 6880
        assert list(table[0]) == [count_labeled(d, t).value for t in reps]
        assert host_at(6879) == reps[6879]

    def test_impartiality_at_eight(self):
        assert is_impartial_upto(star(1, 0), 8) == (True, None)
        report = impartiality_report(star(2, 1), 8)
        assert report.regime["n_max"] == 8

    def test_raw_and_pinned_limits_stay(self):
        with pytest.raises(ValueError, match="guarded at n_max = 7"):
            check_anti_exhaustive(directed_cycle(3), 8)
        with pytest.raises(ValueError, match="guarded at n_max = 7"):
            sidorenko_scan_exhaustive(directed_cycle(3), 8)
        with pytest.raises(ValueError, match="guarded at n_max = 8"):
            check_anti_exhaustive(directed_cycle(3), 9, dedup=True)
        with pytest.raises(ValueError, match="guarded at n_max = 6"):
            check_strong_anti(PinnedPattern(star(1, 1), (1,)), 7, dedup=True)

    @staticmethod
    def check(tmp_path, *argv):
        path = tmp_path / "c5.dgf"
        path.write_text(dgf_dumps(directed_cycle(5)))
        return main(["check", *argv[:1], "--pattern", str(path), *argv[1:]])

    def test_cli_dedup_scan_at_eight(self, tmp_path, capsys):
        assert self.check(tmp_path, "anti", "--dedup", "--exhaustive", "8") == 0
        assert '"hosts":6880' in capsys.readouterr().out

    @pytest.mark.parametrize("prop", ["anti", "sidorenko-scan"])
    def test_cli_raw_scan_at_eight_is_guarded(self, tmp_path, capsys, prop):
        assert self.check(tmp_path, prop, "--exhaustive", "8") == 1
        assert "guarded" in capsys.readouterr().err
