"""Golden outputs of the seeded generators and of the commands built on them.

The values were recorded from the scalar pure-Python implementation (one
`blend` call per coin, map slot and subset word, and a Gray-code walk for the
exact quasirandom scan) before the vectorised one replaced it. The outputs of
the backtracking counter (`TestBacktrackerBytes`) were recorded before it
learned to count a trailing group of twin vertices in closed form. Seeded
outputs are part of the determinism contract, so these literals never change.
The holding class-scan reports (`TestClassScanBytes`) were recorded while
the class representatives were still enumerated in every process, before
they were read from the committed code table; its violated reports were
re-recorded when that table came to hold only each class's smallest code. The raw-scan reports (`TestRawScanBytes`)
were recorded while plain, pinned and Sidorenko scans still had a loop each.
Large codes and long outputs are pinned by the first 16 hex digits of their
SHA-256.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from toursid import hosts
from toursid.cli import main
from toursid.constructions import (
    d_family,
    directed_cycle,
    directed_path,
    impartial_four_tree,
    iterated_balanced_star,
    star,
    transitive_minus_edge,
    transitive_tournament,
)
from toursid.digraph import Digraph
from toursid.formats import dgf_dumps, trn_dumps
from toursid.hosts import coin_rows, uniform_tournament
from toursid.properties import (
    PropertyReport,
    quasirandom_epsilon,
    sampled_density,
    two_block_tournament,
)
from toursid.rng import below, blend, coin


def digest(value) -> str:
    text = format(value, "x") if isinstance(value, int) else value
    return hashlib.sha256(text.encode()).hexdigest()[:16]


BIG_SEED = 2**63 + 11
HUGE_SEED = 2**64 + 5

# two_block_tournament(n, c, seed).code()
TWO_BLOCK = {
    (1, "0", 5): "5feceb66ffc86f38",
    (1, "0", BIG_SEED): "5feceb66ffc86f38",
    (1, "1/3", 5): "5feceb66ffc86f38",
    (1, "1/3", BIG_SEED): "5feceb66ffc86f38",
    (1, "3/10", 5): "5feceb66ffc86f38",
    (1, "3/10", BIG_SEED): "5feceb66ffc86f38",
    (1, "1", 5): "5feceb66ffc86f38",
    (1, "1", BIG_SEED): "5feceb66ffc86f38",
    (2, "0", 5): "5feceb66ffc86f38",
    (2, "0", BIG_SEED): "6b86b273ff34fce1",
    (2, "1/3", 5): "5feceb66ffc86f38",
    (2, "1/3", BIG_SEED): "6b86b273ff34fce1",
    (2, "3/10", 5): "5feceb66ffc86f38",
    (2, "3/10", BIG_SEED): "6b86b273ff34fce1",
    (2, "1", 5): "5feceb66ffc86f38",
    (2, "1", BIG_SEED): "6b86b273ff34fce1",
    (10, "0", 5): "5d3ced9f06b05847",
    (10, "0", BIG_SEED): "8ccffedface2cba2",
    (10, "1/3", 5): "2d8d58f79a8bae7d",
    (10, "1/3", BIG_SEED): "709987aa66da065c",
    (10, "3/10", 5): "2d8d58f79a8bae7d",
    (10, "3/10", BIG_SEED): "709987aa66da065c",
    (10, "1", 5): "5d3ced9f06b05847",
    (10, "1", BIG_SEED): "8ccffedface2cba2",
    (64, "0", 5): "9a18b52594e697b7",
    (64, "0", BIG_SEED): "3d164da611d82b48",
    (64, "1/3", 5): "a6d30952af6806a5",
    (64, "1/3", BIG_SEED): "eec26ce8c37a7390",
    (64, "3/10", 5): "6af6699e2b35b4d1",
    (64, "3/10", BIG_SEED): "0bf89c33b791463b",
    (64, "1", 5): "9a18b52594e697b7",
    (64, "1", BIG_SEED): "3d164da611d82b48",
    (130, "0", 5): "1b4ae345f1c8f3f6",
    (130, "0", BIG_SEED): "aad65b5db651162c",
    (130, "1/3", 5): "3108c1024f077617",
    (130, "1/3", BIG_SEED): "5c7bdd5aab477b11",
    (130, "3/10", 5): "9d29c383ce973116",
    (130, "3/10", BIG_SEED): "ec79ac3c4bb334e7",
    (130, "1", 5): "1b4ae345f1c8f3f6",
    (130, "1", BIG_SEED): "aad65b5db651162c",
    (200, "0", 5): "e10abd95b69b96d0",
    (200, "0", BIG_SEED): "38d80f7349db076c",
    (200, "1/3", 5): "2d1e9bceb5d289de",
    (200, "1/3", BIG_SEED): "c29295b848ddfdde",
    (200, "3/10", 5): "9ee5586caa036f80",
    (200, "3/10", BIG_SEED): "05a207fe64c7e6c1",
    (200, "1", 5): "e10abd95b69b96d0",
    (200, "1", BIG_SEED): "38d80f7349db076c",
}

# uniform_tournament(n, seed).code()
UNIFORM = {
    (0, 3): "5feceb66ffc86f38",
    (0, HUGE_SEED): "5feceb66ffc86f38",
    (1, 3): "5feceb66ffc86f38",
    (1, HUGE_SEED): "5feceb66ffc86f38",
    (2, 3): "6b86b273ff34fce1",
    (2, HUGE_SEED): "5feceb66ffc86f38",
    (5, 3): "f6e0a1e2ac41945a",
    (5, HUGE_SEED): "ddf81e9e4f364c6f",
    (17, 3): "4884289dbe9c5f8f",
    (17, HUGE_SEED): "8aff3bd9443c374b",
    (64, 3): "dee9d345f743c0a6",
    (64, HUGE_SEED): "9a18b52594e697b7",
    (65, 3): "efad9e43e2e3f3cf",
    (65, HUGE_SEED): "7f1c4e23dd0a5e77",
    (100, 3): "7ebbf8cd029cc0d3",
    (100, HUGE_SEED): "d6dd6d933b3199ca",
}

# sampled_density(PATTERNS[p], HOSTS[h], 3000, seed).hits
SAMPLED_HITS = {
    ("star13", "tb120", 11): 201,
    ("star13", "tb120", 2**63 + 1): 205,
    ("star13", "u30", 11): 152,
    ("star13", "u30", 2**63 + 1): 174,
    ("star22", "tb120", 11): 173,
    ("star22", "tb120", 2**63 + 1): 162,
    ("star22", "u30", 11): 168,
    ("star22", "u30", 2**63 + 1): 168,
    ("C5", "tb120", 11): 54,
    ("C5", "tb120", 2**63 + 1): 45,
    ("C5", "u30", 11): 64,
    ("C5", "u30", 2**63 + 1): 71,
}

# quasirandom_epsilon(uniform_tournament(n, n))
QUASI_EXACT = {
    5: "4/25",
    6: "1/9",
    7: "1/7",
    8: "7/64",
    9: "4/27",
    10: "9/100",
    11: "14/121",
    12: "1/9",
    13: "17/169",
    14: "5/49",
    15: "11/75",
    16: "33/256",
}

# quasirandom_epsilon(two_block_tournament(n, 3/10, n))
QUASI_EXACT_TWO_BLOCK = {
    5: "4/25",
    8: "13/64",
    11: "24/121",
    14: "10/49",
}

# quasirandom_epsilon(uniform_tournament(n, n + 1), "sampled", samples=150, seed=seed)
QUASI_SAMPLED = {
    (3, 4): "2/9",
    (3, HUGE_SEED): "2/9",
    (63, 4): "2/63",
    (63, HUGE_SEED): "38/1323",
    (64, 4): "31/1024",
    (64, HUGE_SEED): "29/1024",
    (65, 4): "2/65",
    (65, HUGE_SEED): "114/4225",
    (129, 4): "92/5547",
    (129, HUGE_SEED): "34/1849",
    (200, 4): "259/20000",
    (200, HUGE_SEED): "33/2500",
}


@pytest.mark.parametrize("key", sorted(TWO_BLOCK, key=str))
def test_two_block_codes(key):
    n, c, seed = key
    assert digest(two_block_tournament(n, Fraction(c), seed).code()) == TWO_BLOCK[key]


@pytest.mark.parametrize("key", sorted(UNIFORM, key=str))
def test_uniform_codes(key):
    n, seed = key
    assert digest(uniform_tournament(n, seed).code()) == UNIFORM[key]


def test_uniform_is_two_block_without_a_block():
    for n in (0, 1, 7, 65):
        assert uniform_tournament(n, 9) == two_block_tournament(n, 0, 9)


def test_sampled_density_hits():
    patterns = {"star13": star(1, 3), "star22": star(2, 2), "C5": directed_cycle(5)}
    hosts = {
        "tb120": two_block_tournament(120, Fraction(1, 10), 7),
        "u30": uniform_tournament(30, 2),
    }
    got = {
        (p, h, seed): sampled_density(patterns[p], hosts[h], 3000, seed).hits
        for p, h, seed in SAMPLED_HITS
    }
    assert got == SAMPLED_HITS


def test_quasi_exact():
    got = {n: str(quasirandom_epsilon(uniform_tournament(n, n))) for n in QUASI_EXACT}
    assert got == QUASI_EXACT
    got = {
        n: str(quasirandom_epsilon(two_block_tournament(n, Fraction(3, 10), n)))
        for n in QUASI_EXACT_TWO_BLOCK
    }
    assert got == QUASI_EXACT_TWO_BLOCK


def test_quasi_sampled():
    got = {
        (n, seed): str(
            quasirandom_epsilon(uniform_tournament(n, n + 1), "sampled", samples=150, seed=seed)
        )
        for n, seed in QUASI_SAMPLED
    }
    assert got == QUASI_SAMPLED


class TestCliBytes:
    @pytest.fixture
    def star13(self, tmp_path):
        path = tmp_path / "star13.dgf"
        path.write_text(dgf_dumps(star(1, 3)))
        return str(path)

    @pytest.fixture
    def host16(self, tmp_path):
        path = tmp_path / "u16.trn"
        path.write_text(trn_dumps(uniform_tournament(16, 3)))
        return str(path)

    @pytest.mark.parametrize(
        "args, code, length, expected",
        [
            (("--n", "40,120", "--c", "1/10", "--samples", "20000", "--seed", "7"),
             0, 915, "dc04c43a7114b19a"),
            (("--n", "60,120", "--c", "1/10", "--samples", "100000", "--seed", "7"),
             2, 8128, "9c6229fbd7f080de"),
            (("--n", "8", "--c", "1/2", "--samples", "500", "--seed", "3"),
             0, 621, "6f0a15d1cc87025e"),
        ],
    )
    def test_two_block_samples(self, star13, capsys, args, code, length, expected):
        argv = ["check", "anti", "--pattern", star13, "--family", "two-block", *args]
        assert main(argv) == code
        out = capsys.readouterr().out
        assert (len(out), digest(out)) == (length, expected)

    def test_quasi_two_block_samples(self, capsys):
        assert main(["quasi", "--two-block", "3/10", "200", "--samples", "300", "--seed", "9"]) == 0
        assert capsys.readouterr().out == (
            '{"epsilon":{"den":"2500","num":"193"},"epsilon_approx":0.0772,'
            '"host":"two-block(c=3/10,n=200,seed=9)",'
            '"mode":{"kind":"sampled","samples":300,"seed":9},'
            '"n":200,"schema":"toursid/quasi-v1"}\n'
        )

    def test_quasi_host(self, host16, capsys):
        assert main(["quasi", "--host", host16]) == 0
        assert capsys.readouterr().out == (
            '{"epsilon":{"den":"128","num":"11"},"epsilon_approx":0.0859375,'
            f'"host":"{host16}","mode":{{"kind":"exact"}},'
            '"n":16,"schema":"toursid/quasi-v1"}\n'
        )
        assert main(["quasi", "--host", host16, "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            f"host: {host16} (n=16)\nmode: exact\nepsilon: 11/128 (~0.0859375)\n"
        )


class TestBacktrackerBytes:
    """Family checks and counts that run the backtracker on hosts up to 40
    vertices, under several vertex relabellings of the pattern."""

    @staticmethod
    def write(tmp_path, d, name):
        path = tmp_path / name
        path.write_text(dgf_dumps(d))
        return str(path)

    @pytest.mark.parametrize(
        "perm, length, expected",
        [
            ((0, 1, 2, 3, 4), 5170, "111da4923d6510be"),
            ((4, 3, 2, 1, 0), 5170, "53f8345a8417b391"),
            ((2, 0, 4, 1, 3), 5170, "58f1a3a8ead60d79"),
        ],
    )
    def test_transitive_star22(self, tmp_path, capsys, perm, length, expected):
        pattern = self.write(tmp_path, star(2, 2).relabel(perm), "s22.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--family", "transitive", "--n", "4..32"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (len(out), digest(out)) == (length, expected)

    @pytest.mark.parametrize(
        "perm, length, expected",
        [
            ((0, 1, 2, 3, 4), 1139, "52d8fb2c90e2db80"),
            ((3, 0, 4, 2, 1), 1139, "d3b5e1024c075f42"),
        ],
    )
    def test_blowup_cycle5(self, tmp_path, capsys, perm, length, expected):
        pattern = self.write(tmp_path, directed_cycle(5).relabel(perm), "c5.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--family", "blowup", "--n", "2..6"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (len(out), digest(out)) == (length, expected)

    @pytest.mark.parametrize(
        "extra, expected",
        [
            (("--mode", "homs"),
             '{"bound":{"den":"1","num":"6400000"},"mode":"homs",'
             '"ratio":{"den":"800000","num":"693777"},"ratio_approx":0.86722125,'
             '"value":"5550216"}\n'),
            ((),
             '{"bound":{"den":"1","num":"6400000"},"mode":"labeled",'
             '"ratio":{"den":"2500","num":"1947"},"ratio_approx":0.7788,'
             '"value":"4984320"}\n'),
            (("--format", "text"),
             "mode: labeled\nvalue: 4984320\nbound: 6400000/1\nratio: 1947/2500 (~0.7788)\n"),
            (("--mode", "homs", "--format", "text"),
             "mode: homs\nvalue: 5550216\nbound: 6400000/1\nratio: 693777/800000 (~0.867221)\n"),
            # pins on the centre, on one out-leaf, and on both out-leaves
            (("--pins", "0:5"),
             '{"bound":{"den":"1","num":"160000"},"mode":"labeled-pinned","pins":{"0":5},'
             '"ratio":{"den":"5000","num":"3927"},"ratio_approx":0.7854,"value":"125664"}\n'),
            (("--pins", "1:7"),
             '{"bound":{"den":"1","num":"160000"},"mode":"labeled-pinned","pins":{"1":7},'
             '"ratio":{"den":"40000","num":"31719"},"ratio_approx":0.792975,"value":"126876"}\n'),
            (("--pins", "1:7,2:9"),
             '{"bound":{"den":"1","num":"4000"},"mode":"labeled-pinned","pins":{"1":7,"2":9},'
             '"ratio":{"den":"2000","num":"2063"},"ratio_approx":1.0315,"value":"4126"}\n'),
        ],
    )
    def test_count_star22_uniform40(self, tmp_path, capsys, extra, expected):
        pattern = self.write(tmp_path, star(2, 2), "s22.dgf")
        host = tmp_path / "u40.trn"
        host.write_text(trn_dumps(uniform_tournament(40, 4)))
        assert main(["count", "--pattern", pattern, "--host", str(host), *extra]) == 0
        assert capsys.readouterr().out == expected


class TestClassScanBytes:
    """Reports of the `--dedup` and impartiality scans. A witness host is the
    smallest pair code of its class, as in a raw scan, and an impartiality
    pair starts at code 0, the transitive tournament."""

    ANTI = ("check", "anti", "--dedup", "--exhaustive", "7")

    @staticmethod
    def run(tmp_path, capsys, d, argv):
        path = tmp_path / "pattern.dgf"
        path.write_text(dgf_dumps(d))
        code = main([*argv[:2], "--pattern", str(path), *argv[2:]])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize(
        "make, argv, length, expected",
        [
            (lambda: directed_cycle(7), ANTI, 1260, "c588a7eaef52208b"),
            (lambda: directed_cycle(5), ANTI, 1257, "e4ca6009ee33b446"),
            (lambda: directed_cycle(5).relabel((3, 0, 4, 2, 1)), ANTI, 1257, "557dabd2cdff504f"),
            (lambda: directed_cycle(5), (*ANTI, "--format", "text"), 244, "01dc3bb3103a60cb"),
            (lambda: d_family(2), ANTI, 1247, "1013b94e43a35be7"),
            (lambda: transitive_minus_edge(5, 1, 5), ANTI, 1284, "a59d39e1afd350fd"),
            (lambda: iterated_balanced_star(2), ANTI, 1219, "2a3f5dc876149639"),
            (lambda: transitive_tournament(4),
             ("check", "sidorenko-scan", "--dedup", "--exhaustive", "7"), 1055, "6063e7bd36a88689"),
            (impartial_four_tree, ("check", "impartial", "--n", "7"), 286, "32287cff9764f246"),
            (lambda: star(2, 2),
             ("check", "strong-anti", "--dedup", "--exhaustive", "6", "--pins-set", "0"),
             1121, "c92add239dd88a5d"),
        ],
    )
    def test_holding_scans(self, tmp_path, capsys, make, argv, length, expected):
        code, out = self.run(tmp_path, capsys, make(), argv)
        assert (code, len(out), digest(out)) == (0, length, expected)

    def test_impartial_witness_pair(self, tmp_path, capsys):
        code, out = self.run(
            tmp_path, capsys, directed_path(2), ("check", "impartial", "--n", "7")
        )
        assert code == 2
        assert out == (
            '{"curve":[],"extra":{"witness_counts":["1","3"],'
            '"witness_pair":["3\\n000\\n","3\\n010\\n"]},'
            '"extremal_ratio":null,"extremal_ratio_approx":null,'
            '"pattern":{"dgf":"3 2\\n0 1\\n1 2\\n","provenance":null},"property":"impartial",'
            '"regime":{"dedup":true,"kind":"impartial-scan","n_max":7},'
            '"schema":"toursid/report-v1","verdict":"violated","witness_trn":"3\\n000\\n"}\n'
        )

    @pytest.mark.parametrize(
        "perm, pins, anchor, expected",
        [
            ((0, 1, 2), "1,2", '{"1":0,"2":5}', "0539230317261c11"),
            ((2, 0, 1), "0,1", '{"0":0,"1":5}', "b5dcc60d3a7f8084"),
        ],
    )
    def test_strong_anti_witness(self, tmp_path, capsys, perm, pins, anchor, expected):
        argv = ("check", "strong-anti", "--dedup", "--exhaustive", "6", "--pins-set", pins)
        code, out = self.run(tmp_path, capsys, star(1, 1).relabel(perm), argv)
        assert (code, len(out), digest(out)) == (2, 1031, expected)
        assert out.endswith('"witness_trn":"6\\n000000000000000\\n"}\n')
        assert f'"extra":{{"witness_anchor":{anchor}}}' in out

    def test_report_of_the_representative_table_still_verifies(self):
        # the first strong-anti case as written while --dedup scans counted a
        # representative per class, whose witness is not its class's smallest
        # code; verification recounts whatever host a report names
        old = (
            '{"curve":[{"bound":{"den":"2","num":"1"},"hosts":1,"max_ratio":{"den":"1","num":"0"},'
            '"max_ratio_approx":0.0,"n":2,"violated":false},{"bound":{"den":"4","num":"3"},'
            '"hosts":2,"max_ratio":{"den":"3","num":"4"},"max_ratio_approx":1.3333333333333333,'
            '"n":3,"violated":true},{"bound":{"den":"1","num":"1"},"hosts":4,'
            '"max_ratio":{"den":"1","num":"2"},"max_ratio_approx":2.0,"n":4,"violated":true},'
            '{"bound":{"den":"4","num":"5"},"hosts":12,"max_ratio":{"den":"5","num":"12"},'
            '"max_ratio_approx":2.4,"n":5,"violated":true},{"bound":{"den":"2","num":"3"},'
            '"hosts":56,"max_ratio":{"den":"3","num":"8"},"max_ratio_approx":2.6666666666666665,'
            '"n":6,"violated":true}],"extra":{"witness_anchor":{"1":5,"2":0}},'
            '"extremal_ratio":{"den":"3","num":"8"},"extremal_ratio_approx":2.6666666666666665,'
            '"pattern":{"dgf":"3 2\\n0 1\\n2 0\\n","provenance":null},'
            '"property":"strong-anti-sidorenko-upto",'
            '"regime":{"dedup":true,"kind":"exhaustive-pinned","n_max":6,"pinned":[1,2]},'
            '"schema":"toursid/report-v1","verdict":"violated",'
            '"witness_trn":"6\\n111111111111111\\n"}\n'
        )
        assert (len(old), digest(old)) == (1031, "84a4cfa71167f708")
        report = PropertyReport.from_json(old, verify=True)
        assert report.to_json() == old


class TestRawScanBytes:
    """Reports of the scans over every raw pair code, recorded before the
    plain and pinned scans shared one loop. The violated strong-anti report
    pins which maximum is the witness: the first in host-major order."""

    @pytest.mark.parametrize(
        "make, argv, code, length, expected",
        [
            (lambda: directed_cycle(5), ("check", "anti", "--exhaustive", "6"),
             0, 1111, "b85672274af3c0b6"),
            (lambda: directed_path(2), ("check", "anti", "--exhaustive", "6"),
             0, 1096, "f2118d01b524e163"),
            (lambda: transitive_tournament(3), ("check", "sidorenko-scan", "--exhaustive", "6"),
             0, 951, "03eab0f74f4ac8fa"),
            (lambda: star(1, 1),
             ("check", "strong-anti", "--pins-set", "1,2", "--exhaustive", "5"),
             2, 879, "4cea25f51418ddc1"),
        ],
    )
    def test_raw_scans(self, tmp_path, capsys, make, argv, code, length, expected):
        got, out = TestClassScanBytes.run(tmp_path, capsys, make(), argv)
        assert (got, len(out), digest(out)) == (code, length, expected)
        if code == 2:
            assert '"extra":{"witness_anchor":{"1":0,"2":4}}' in out


class TestScalarReference:
    """The pre-numpy loops, kept as the reference the vectorised code must
    equal on any input, beyond the recorded cases above."""

    @staticmethod
    def coin_rows(n, seed, boundary):
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if i < boundary <= j or coin(seed, i, j):
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
        return rows

    @staticmethod
    def sampled_hits(d, t, samples, seed):
        rows, hits = t.out_rows(), 0
        for j in range(samples):
            phi = [below(seed, t.n, j, slot) for slot in range(d.n)]
            hits += all(rows[phi[u]] >> phi[v] & 1 for u, v in d.edges())
        return hits

    @staticmethod
    def quasi_epsilon(t, subsets):
        best = 0
        for a in subsets:
            tot = 0
            for v in range(t.n):
                if not a >> v & 1:
                    s = (t.inn(v) & a).bit_count() - (t.out(v) & a).bit_count()
                    tot += max(s, 0)
            best = max(best, tot)
        return Fraction(best, t.n * t.n)

    @pytest.mark.parametrize("n", (0, 1, 2, 5, 9, 64, 65, 70, 130))
    def test_coin_rows(self, n):
        for seed in (0, 3, BIG_SEED):
            for boundary in (0, n // 3, n):
                assert coin_rows(n, seed, boundary) == self.coin_rows(n, seed, boundary)

    def test_sampled_density(self):
        patterns = (star(1, 2), star(2, 2), directed_cycle(4), Digraph(2))
        for n, seed in ((1, 5), (7, 6), (70, 7)):
            host = uniform_tournament(n, seed)
            for d in patterns:
                got = sampled_density(d, host, 400, seed + 1).hits
                assert got == self.sampled_hits(d, host, 400, seed + 1)

    def test_quasi_exact(self):
        for n in range(2, 11):
            t = uniform_tournament(n, 100 + n)
            assert quasirandom_epsilon(t) == self.quasi_epsilon(t, range(1 << n))

    @staticmethod
    def sampled_subsets(n, samples, seed):
        words = (n + 63) // 64
        return [
            sum(blend(seed, j, w) << (64 * w) for w in range(words)) & ((1 << n) - 1)
            for j in range(samples)
        ]

    def test_quasi_sampled(self):
        # n = 768 streams 8 subsets per block, the floor on wide rows
        for n in (3, 64, 65, 130, 768):
            t = uniform_tournament(n, n)
            got = quasirandom_epsilon(t, "sampled", samples=40, seed=2)
            assert got == self.quasi_epsilon(t, self.sampled_subsets(n, 40, 2))

    def test_tiny_blocks_do_not_change_results(self, monkeypatch):
        # tiny blocks split every stream into blocks of one to three rows, so
        # a result kept from one block only, or a row lost at a block edge,
        # shows here
        monkeypatch.setattr(hosts, "_BLOCK", 1 << 6)
        monkeypatch.setattr(hosts, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(hosts, "_MIN_BLOCK_ROWS", 1)
        for n in (0, 5, 65, 130):
            assert coin_rows(n, 3, n // 3) == self.coin_rows(n, 3, n // 3)
        for n in (7, 70):
            host = uniform_tournament(n, n)
            for d in (star(2, 2), directed_cycle(4)):
                got = sampled_density(d, host, 300, 1).hits
                assert got == self.sampled_hits(d, host, 300, 1)
        for n in (3, 9):
            t = uniform_tournament(n, 100 + n)
            assert quasirandom_epsilon(t) == self.quasi_epsilon(t, range(1 << n))
        for n in (3, 65, 130, 768):
            t = uniform_tournament(n, n)
            got = quasirandom_epsilon(t, "sampled", samples=40, seed=2)
            assert got == self.quasi_epsilon(t, self.sampled_subsets(n, 40, 2))
        # the exact scan bit-slices the low log2(_BLOCK) vertices and fixes
        # the others per block: 2^(n-6), 2^(n-3) and 2^n blocks here
        for n in (7, 10, 12):
            for t in (uniform_tournament(n, n), two_block_tournament(n, Fraction(3, 10), n)):
                want = self.quasi_epsilon(t, range(1 << n))
                for block in (1 << 6, 1 << 3, 1):
                    monkeypatch.setattr(hosts, "_BLOCK", block)
                    assert quasirandom_epsilon(t) == want


# Runs in a fresh interpreter. A warm-up on small inputs first pages in the
# numpy code every path touches; after it, the large runs may grow the peak RSS
# only by their streamed blocks. The peak is the process image's VmHWM: on
# Linux, getrusage's ru_maxrss keeps the spawning process's peak across fork
# and exec, which under pytest hides any growth of the probe.
MEMORY_PROBE = textwrap.dedent(
    """
    import re
    from fractions import Fraction
    from pathlib import Path
    from toursid.constructions import star
    from toursid.properties import quasirandom_epsilon, sampled_density, two_block_tournament

    def peak_kb():
        status = Path("/proc/self/status").read_text()
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1))

    small = two_block_tournament(70, Fraction(3, 10), 1)
    sampled_density(star(2, 2), small, 100, 1)
    quasirandom_epsilon(small, "sampled", samples=5, seed=1)
    quasirandom_epsilon(two_block_tournament(8, Fraction(3, 10), 1))
    host = two_block_tournament(768, Fraction(3, 10), 5)
    before = peak_kb()
    sampled_density(star(2, 2), host, 200_000, 3)
    quasirandom_epsilon(host, "sampled", samples=300, seed=4)
    print(peak_kb() - before)
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_sampling_streams_in_bounded_blocks():
    # an unchunked rewrite holds 200k x 5 map slots (8 MB) or 300 x 768 x 12
    # subset words (22 MB) at once; the streamed blocks stay far below 2 MB
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert int(out) < 2048
