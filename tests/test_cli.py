import json
from pathlib import Path

import jsonschema
import pytest

from toursid.cli import main
from toursid.constructions import (
    d_family,
    directed_cycle,
    directed_path,
    impartial_four_tree,
    star,
    subset_bipartite,
    transitive_tournament,
)
from toursid.digraph import transitive_host
from toursid.formats import dgf_dumps, dgf_loads, trn_dumps

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


@pytest.fixture
def tt4_file(tmp_path):
    path = tmp_path / "tt4.trn"
    path.write_text(trn_dumps(transitive_host(4)))
    return str(path)


def write_pattern(tmp_path, d, name):
    path = tmp_path / name
    path.write_text(dgf_dumps(d))
    return str(path)


class TestConstruct:
    def test_balanced_star_output(self, capsys):
        assert main(["construct", "iterated-balanced-star", "7"]) == 0
        out = capsys.readouterr().out
        d = dgf_loads(out)
        assert (d.n, d.edge_count) == (7, 10)
        assert out.startswith("# constructed: iterated-balanced-star k=7\n")

    def test_fan(self, capsys):
        assert main(["construct", "d-family", "2"]) == 0
        d = dgf_loads(capsys.readouterr().out)
        assert (d.n, d.edge_count) == (4, 4)

    def test_excluded_deletion_warns_but_succeeds(self, capsys):
        assert main(["construct", "transitive-minus-edge", "3", "1", "3"]) == 0
        captured = capsys.readouterr()
        assert "j-i == 2" in captured.err
        assert dgf_loads(captured.out).edge_count == 2

    def test_output_file_and_round_trip(self, tmp_path, capsys):
        out = tmp_path / "c6.dgf"
        assert main(["construct", "directed-cycle", "6", "--out", str(out)]) == 0
        text = out.read_text()
        assert dgf_dumps(dgf_loads(text)) in text

    def test_graph_valued_family(self, tmp_path, capsys):
        src = write_pattern(tmp_path, d_family(1), "p2.dgf")
        assert main(["construct", "all-orientations-union", "--graph", src]) == 0
        d = dgf_loads(capsys.readouterr().out)
        assert (d.n, d.edge_count) == (12, 8)

    def test_subset_bipartite_emits_the_digraph_without_its_part(self, capsys):
        assert main(["construct", "subset-bipartite", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# constructed: subset-bipartite k=2\n")
        assert dgf_loads(out) == subset_bipartite(2)[0]

    def test_unknown_family_errors(self, capsys):
        assert main(["construct", "zigzag", "1"]) == 1

    def test_bad_arity_errors(self, capsys):
        assert main(["construct", "star", "2"]) == 1

    def test_constructor_error_surfaces(self, capsys):
        assert main(["construct", "directed-cycle", "2"]) == 1
        assert "at least 3" in capsys.readouterr().err


class TestCount:
    def test_edge_vs_tt4(self, tmp_path, tt4_file, capsys):
        pattern = write_pattern(tmp_path, d_family(0), "empty.dgf")
        edge = write_pattern(tmp_path, transitive_tournament(2), "edge.dgf")
        assert main(["count", "--pattern", edge, "--host", tt4_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == "6"
        assert doc["ratio"] == {"num": "3", "den": "4"}

    def test_fan_vs_tt4(self, tmp_path, tt4_file, capsys):
        pattern = write_pattern(tmp_path, d_family(2), "d2.dgf")
        assert main(["count", "--pattern", pattern, "--host", tt4_file]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "2"

    def test_pinned_at_source_is_zero(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        host = tmp_path / "tt3.trn"
        host.write_text(trn_dumps(transitive_host(3)))
        assert main(
            ["count", "--pattern", pattern, "--host", str(host), "--pins", "0:0"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == "0" and doc["mode"] == "labeled-pinned"

    def test_homs_mode(self, tmp_path, tt4_file, capsys):
        pattern = write_pattern(tmp_path, d_family(1), "p2.dgf")
        assert main(
            ["count", "--pattern", pattern, "--host", tt4_file, "--mode", "homs"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "4"

    def test_homs_output_bytes(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, directed_cycle(3), "c3.dgf")
        host = tmp_path / "t7.trn"
        host.write_text("7\n100011100010100000111\n")
        assert main(["count", "--pattern", pattern, "--host", str(host), "--mode", "homs"]) == 0
        assert capsys.readouterr().out == (
            '{"bound":{"den":"8","num":"343"},"mode":"homs",'
            '"ratio":{"den":"343","num":"240"},"ratio_approx":0.6997084548104956,'
            '"value":"30"}\n'
        )

    def test_deep_pattern_is_an_error_exit(self, tmp_path, tt4_file, capsys):
        pattern = write_pattern(tmp_path, directed_path(1200), "p1200.dgf")
        assert main(["count", "--pattern", pattern, "--host", tt4_file, "--mode", "homs"]) == 1
        assert "guarded" in capsys.readouterr().err

    def test_parse_error_cites_line(self, tmp_path, tt4_file, capsys):
        bad = tmp_path / "bad.dgf"
        bad.write_text("2 1\n0 x\n")
        assert main(["count", "--pattern", str(bad), "--host", tt4_file]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_pinned_and_unpinned_documents(self, tmp_path, tt4_file, capsys):
        # one labeled path: with no --pins the anchor is empty, and only the
        # mode and the pins tell the two documents apart
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        argv = ["count", "--pattern", pattern, "--host", tt4_file]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            '{"bound":{"den":"1","num":"16"},"mode":"labeled",'
            '"ratio":{"den":"4","num":"1"},"ratio_approx":0.25,"value":"4"}\n'
        )
        assert main(argv + ["--pins", "0:1"]) == 0
        assert capsys.readouterr().out == (
            '{"bound":{"den":"1","num":"4"},"mode":"labeled-pinned","pins":{"0":1},'
            '"ratio":{"den":"2","num":"1"},"ratio_approx":0.5,"value":"2"}\n'
        )

    def test_budget_abort_is_an_error_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOURSID_BUDGET", "4")
        pattern = write_pattern(tmp_path, d_family(2), "d2.dgf")
        host = tmp_path / "tt6.trn"
        host.write_text(trn_dumps(transitive_host(6)))
        assert main(["count", "--pattern", pattern, "--host", str(host)]) == 1
        assert "budget" in capsys.readouterr().err


class TestCheck:
    def test_anti_exhaustive_holds(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, d_family(1), "p2.dgf")
        assert main(["check", "anti", "--pattern", pattern, "--exhaustive", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["verdict"] == "holds-upto"

    def test_family_violation_exit_code(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(2, 0), "out2.dgf")
        code = main(
            ["check", "anti", "--pattern", pattern, "--family", "transitive", "--n", "4..14"]
        )
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["witness_trn"].startswith("12\n")

    def test_blowup_report_names_its_base(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, directed_path(3), "p3.dgf")
        base = write_pattern(tmp_path, directed_cycle(3), "c3.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--family", "blowup", "--n", "2..3"]
        code = main(argv)
        assert "base" not in json.loads(capsys.readouterr().out)["regime"]
        assert main(argv + ["--base", base]) == code
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["regime"]["base"] == dgf_dumps(directed_cycle(3))

    def test_impartial(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, impartial_four_tree(), "i4.dgf")
        assert main(["check", "impartial", "--pattern", pattern, "--n", "6"]) == 0
        jsonschema.validate(json.loads(capsys.readouterr().out), SCHEMA)

    def test_strong_anti(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        assert main(
            [
                "check",
                "strong-anti",
                "--pattern",
                pattern,
                "--pins-set",
                "0",
                "--exhaustive",
                "4",
            ]
        ) == 0
        jsonschema.validate(json.loads(capsys.readouterr().out), SCHEMA)

    def test_sidorenko_scan(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, transitive_tournament(3), "tt3.dgf")
        assert main(
            ["check", "sidorenko-scan", "--pattern", pattern, "--exhaustive", "4"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["verdict"] == "measured"

    def test_missing_regime_errors(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, d_family(1), "p2.dgf")
        assert main(["check", "anti", "--pattern", pattern]) == 1

    def test_exhaustive_budget_abort(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOURSID_BUDGET", "4")
        pattern = write_pattern(tmp_path, d_family(1), "p2.dgf")
        assert main(["check", "anti", "--pattern", pattern, "--exhaustive", "5"]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["abc", "-3", "1.5", " "], ids=["word", "negative", "decimal", "blank"]
    )
    def test_malformed_budget_names_the_variable(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("TOURSID_BUDGET", value)
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--exhaustive", "5"]
        assert TestEmptyInputs.error(capsys, argv) == (
            f"error: TOURSID_BUDGET: invalid budget {value!r}, expected a non-negative integer"
        )

    def test_empty_budget_is_the_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOURSID_BUDGET", "")
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        assert main(["check", "anti", "--pattern", pattern, "--exhaustive", "5"]) == 0
        assert capsys.readouterr().err == ""


class TestEmptyInputs:
    """An empty host or an empty scan is an error exit, never a traceback or
    a vacuous "holds-upto"."""

    @staticmethod
    def error(capsys, argv) -> str:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_count_on_empty_host(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        host = tmp_path / "empty.trn"
        host.write_text(trn_dumps(transitive_host(0)))
        for mode in ("labeled", "homs"):
            argv = ["count", "--pattern", pattern, "--host", str(host), "--mode", mode]
            assert "empty host" in self.error(capsys, argv)

    @pytest.mark.parametrize(
        "extra",
        [
            ("--family", "transitive", "--n", "0..3"),
            ("--family", "two-block", "--n", "0", "--c", "1/10", "--seed", "1"),
        ],
        ids=["transitive", "two-block"],
    )
    def test_family_with_empty_host(self, tmp_path, capsys, extra):
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        argv = ["check", "anti", "--pattern", pattern, *extra]
        assert "empty host" in self.error(capsys, argv)

    def test_negative_transitive_host(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--family", "transitive", "--n=-3"]
        assert self.error(capsys, argv) == "error: vertex count must be nonnegative, got -3"

    def test_empty_family_range(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--family", "transitive", "--n", "5..2"]
        assert "at least one host value" in self.error(capsys, argv)

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    @pytest.mark.parametrize("prop", ["anti", "sidorenko-scan"])
    def test_exhaustive_below_one(self, tmp_path, capsys, prop, n_max):
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        argv = ["check", prop, "--pattern", pattern, "--exhaustive", n_max]
        assert self.error(capsys, argv) == f"error: exhaustive scan needs n_max >= 1, got {n_max}"

    def test_pinned_scan_below_the_pinned_set(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        argv = ["check", "strong-anti", "--pattern", pattern, "--pins-set", "1,2", "--exhaustive", "1"]
        assert self.error(capsys, argv) == "error: pinned scan needs n_max >= 2, got 1"

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_impartial_below_one(self, tmp_path, capsys, n_max):
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        argv = ["check", "impartial", "--pattern", pattern, "--n", n_max]
        assert self.error(capsys, argv) == f"error: impartiality scan needs n_max >= 1, got {n_max}"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("impartial",), "check impartial needs --n"),
            (("anti", "--family", "transitive"), "check anti --family needs --n"),
            (("anti", "--family", "blowup"), "check anti --family needs --n"),
            (("sidorenko-scan",), "check sidorenko-scan needs --exhaustive"),
            (("impartial", "--n", ""), "check impartial needs --n"),
            (("strong-anti",), "check strong-anti needs --pins-set and --exhaustive"),
            (("strong-anti", "--pins-set", "", "--exhaustive", "3"),
             "check strong-anti needs --pins-set"),
            (("strong-anti", "--pins-set", "0"), "check strong-anti needs --exhaustive"),
            (("anti", "--family", "two-block", "--n", "8"),
             "check anti --family needs --c and --seed"),
            (("anti", "--family", "two-block", "--n", "8", "--c", "1/2", "--samples", "5"),
             "check anti --family needs --seed"),
        ],
    )
    def test_missing_size_option(self, tmp_path, capsys, extra, message):
        pattern = write_pattern(tmp_path, directed_cycle(5), "c5.dgf")
        argv = ["check", extra[0], "--pattern", pattern, *extra[1:]]
        assert self.error(capsys, argv) == f"error: {message}"


class TestInvalidOptions:
    """Usage errors and malformed option values exit 1, never 2 ("violated")."""

    @pytest.mark.parametrize(
        "extra",
        [
            ("--exhaustive", "5"),
            ("--pattern", "p.dgf", "--exhaustive", "x"),
            ("--pattern", "p.dgf", "--family", "foo"),
        ],
        ids=["no-pattern", "bad-int", "bad-choice"],
    )
    def test_usage_error_exits_one(self, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["check", "anti", *extra])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0

    def test_sampled_family_needs_a_seed(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(2, 0), "out2.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--family", "transitive",
                "--n", "4..6", "--samples", "100"]
        assert "needs a seed" in TestEmptyInputs.error(capsys, argv)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sampled_quasi_needs_a_sample(self, capsys, samples):
        argv = ["quasi", "--two-block", "0.3", "25", "--seed", "1", "--samples", samples]
        assert TestEmptyInputs.error(capsys, argv) == "error: need at least one sample"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("check", "impartial", "--n", "4..6"), "--n: invalid integer '4..6'"),
            (("check", "strong-anti", "--pins-set", "1,x", "--exhaustive", "3"),
             "--pins-set: invalid integer 'x' in '1,x'"),
            (("check", "anti", "--family", "transitive", "--n", "4..x"),
             "--n: invalid integer 'x' in '4..x'"),
            (("check", "anti", "--family", "transitive", "--n", "4,,6"),
             "--n: invalid integer '' in '4,,6'"),
            (("count", "--pins", "1:y"), "--pins: invalid integer 'y' in '1:y'"),
            (("count", "--pins", "0:1,2"), "--pins: expected pv:hv pairs, got '0:1,2'"),
            (("quasi", "--two-block", "1/2", "x", "--seed", "1"),
             "--two-block N: invalid integer 'x'"),
            (("check", "anti", "--family", "two-block", "--n", "8", "--c", "x", "--seed", "1"),
             "--c: invalid fraction 'x'"),
            (("check", "anti", "--family", "two-block", "--n", "8", "--c", "1/0", "--seed", "1"),
             "--c: invalid fraction '1/0'"),
            (("quasi", "--two-block", "y", "8", "--seed", "1"),
             "--two-block C: invalid fraction 'y'"),
        ],
        ids=["impartial-n", "pins-set", "family-n", "family-n-empty", "pins", "pins-pair",
             "two-block-n", "c", "c-zero", "two-block-c"],
    )
    def test_malformed_integer_names_its_option(self, tmp_path, tt4_file, capsys, argv, message):
        if argv[0] == "count":
            argv = (*argv, "--host", tt4_file)
        if argv[0] != "quasi":
            argv = (*argv, "--pattern", write_pattern(tmp_path, star(1, 1), "s11.dgf"))
        assert TestEmptyInputs.error(capsys, list(argv)) == f"error: {message}"

    def test_repeated_pin_is_an_error(self, tmp_path, tt4_file, capsys):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        argv = ["count", "--pattern", pattern, "--host", tt4_file, "--pins", "0:1,0:2"]
        assert "pinned twice" in TestEmptyInputs.error(capsys, argv)

    def test_repeated_pins_set_vertex_is_an_error(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        argv = ["check", "strong-anti", "--pattern", pattern, "--pins-set", "1,1",
                "--exhaustive", "3"]
        assert TestEmptyInputs.error(capsys, argv) == "error: pattern vertex 1 is pinned twice"

    @pytest.mark.parametrize(
        "extra, given",
        [
            (("--family", "transitive"), "--family"),
            (("--n", "4..6"), "--n"),
            (("--c", "1/10"), "--c"),
            (("--samples", "7"), "--samples"),
            (("--seed", "1"), "--seed"),
            (("--family", "transitive", "--n", "4..6", "--samples", "7"),
             "--family, --n, --samples"),
        ],
    )
    def test_exhaustive_refuses_family_options(self, tmp_path, capsys, extra, given):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--exhaustive", "3", *extra]
        assert TestEmptyInputs.error(capsys, argv) == (
            f"error: check anti --exhaustive does not take {given}"
        )

    @pytest.mark.parametrize(
        "argv, given",
        [
            (("sidorenko-scan", "--exhaustive", "4", "--family", "transitive", "--n", "5",
              "--samples", "3", "--pins-set", "0"),
             "sidorenko-scan does not take --family, --n, --samples, --pins-set"),
            (("strong-anti", "--pins-set", "0", "--exhaustive", "4", "--family", "blowup",
              "--c", "1/2"),
             "strong-anti does not take --family, --c"),
            (("impartial", "--n", "5", "--exhaustive", "6", "--dedup", "--seed", "3"),
             "impartial does not take --exhaustive, --dedup, --seed"),
            (("impartial", "--n", "5", "--seed", "0"), "impartial does not take --seed"),
            (("anti", "--exhaustive", "3", "--pins-set", "0"),
             "anti --exhaustive does not take --pins-set"),
            (("anti", "--family", "transitive", "--n", "4..6", "--pins-set", "0"),
             "anti --family does not take --pins-set"),
        ],
        ids=["sidorenko-scan", "strong-anti", "impartial", "impartial-seed-0",
             "anti-exhaustive", "anti-family"],
    )
    def test_check_refuses_options_it_does_not_read(self, tmp_path, capsys, argv, given):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        argv = ["check", argv[0], "--pattern", pattern, *argv[1:]]
        assert TestEmptyInputs.error(capsys, argv) == f"error: check {given}"

    @pytest.mark.parametrize(
        "extra, given",
        [
            (("transitive", "--c", "1/2", "--base", "{base}", "--seed", "3"), "--base, --c, --seed"),
            (("blowup", "--c", "1/2", "--seed", "3"), "--c, --seed"),
            (("two-block", "--c", "1/2", "--seed", "3", "--base", "{base}"), "--base"),
            (("transitive", "--seed", "3", "--samples", "5", "--c", "1/2"), "--c"),
        ],
        ids=["transitive", "blowup", "two-block", "sampled-transitive"],
    )
    def test_family_refuses_options_it_does_not_read(self, tmp_path, capsys, extra, given):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        family, *rest = (x.format(base=pattern) for x in extra)
        argv = ["check", "anti", "--pattern", pattern, "--family", family, "--n", "4..6", *rest]
        assert TestEmptyInputs.error(capsys, argv) == (
            f"error: check anti --family does not take {given}"
        )

    def test_count_homs_refuses_pins(self, tmp_path, tt4_file, capsys):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        argv = ["count", "--pattern", pattern, "--host", tt4_file, "--mode", "homs",
                "--pins", "0:1"]
        assert TestEmptyInputs.error(capsys, argv) == "error: count --mode homs does not take --pins"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("construct", "tree-orientation", "3", "--graph", "{p2}"),
             "construct tree-orientation does not take integer parameters"),
            (("construct", "star", "1", "1", "--graph", "{p2}"),
             "construct star does not take --graph"),
            (("quasi", "--host", "{host}", "--two-block", "1/2", "8", "--seed", "3"),
             "quasi --two-block does not take --host"),
            (("quasi", "--host", "{host}", "--seed", "3"),
             "quasi --host does not take --seed without --samples"),
        ],
        ids=["construct-params", "construct-graph", "quasi-two-block-host", "quasi-host-seed"],
    )
    def test_construct_and_quasi_refuse_input_they_do_not_read(
        self, tmp_path, tt4_file, capsys, argv, message
    ):
        p2 = write_pattern(tmp_path, directed_path(1), "p2.dgf")
        argv = [x.format(p2=p2, host=tt4_file) for x in argv]
        assert TestEmptyInputs.error(capsys, argv) == f"error: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("construct", "tree-orientation"), "tree-orientation needs --graph FILE"),
            (("quasi",), "quasi needs --host or --two-block"),
            (("quasi", "--host", "{host}", "--samples", "5"), "sampled mode requires --seed"),
        ],
        ids=["construct-graph", "quasi-host", "quasi-host-samples-seed"],
    )
    def test_construct_and_quasi_need_their_input(self, tt4_file, capsys, argv, message):
        argv = [x.format(host=tt4_file) for x in argv]
        assert TestEmptyInputs.error(capsys, argv) == f"error: {message}"

    def test_dedup_needs_exhaustive(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        argv = ["check", "anti", "--pattern", pattern, "--dedup", "--family", "transitive",
                "--n", "4..6"]
        assert TestEmptyInputs.error(capsys, argv) == "error: check anti --dedup needs --exhaustive"


class TestQuasi:
    def test_exact_transitive_ten(self, tmp_path, capsys):
        host = tmp_path / "tt10.trn"
        host.write_text(trn_dumps(transitive_host(10)))
        assert main(["quasi", "--host", str(host)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == {"num": "1", "den": "4"}

    def test_two_block_requires_seed(self, capsys):
        assert main(["quasi", "--two-block", "0.3", "50"]) == 1

    def test_two_block_sampled_deterministic(self, capsys):
        args = [
            "quasi",
            "--two-block",
            "0.3",
            "50",
            "--seed",
            "7",
            "--samples",
            "200",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_single_vertex(self, tmp_path, capsys):
        host = tmp_path / "t1.trn"
        host.write_text("1\n")
        assert main(["quasi", "--host", str(host)]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon_approx"] == 0

    def test_malformed_trn_host_reports_the_trn_error(self, tmp_path, capsys):
        host = tmp_path / "bad.trn"
        host.write_text("3\n10\n")
        assert main(["quasi", "--host", str(host)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: expected 3 characters over {0,1}, got '10'\n"

    def test_dgf_host_is_read(self, tmp_path, capsys):
        host = tmp_path / "tt10.dgf"
        host.write_text(dgf_dumps(transitive_host(10)))
        assert main(["quasi", "--host", str(host)]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == {"num": "1", "den": "4"}

    def test_malformed_dgf_host_reports_the_dgf_error(self, tmp_path, capsys):
        host = tmp_path / "bad.dgf"
        host.write_text("3 x\n")
        assert main(["quasi", "--host", str(host)]) == 1
        assert capsys.readouterr().err == "error: line 1: expected 'n m', got '3 x'\n"

    @pytest.mark.parametrize("command", ["count", "quasi"])
    def test_huge_vertex_count_is_a_format_error(self, tmp_path, capsys, command):
        host = tmp_path / "huge.dgf"
        host.write_text("100000000000 0\n")
        argv = ["quasi", "--host", str(host)]
        if command == "count":
            argv = ["count", "--pattern", write_pattern(tmp_path, star(1, 1), "s11.dgf"),
                    "--host", str(host)]
        assert TestEmptyInputs.error(capsys, argv) == (
            "error: line 1: vertex count 100000000000 is above the bound 1048576"
        )

    def test_non_ascii_vertex_count_is_a_format_error(self, tmp_path, capsys):
        # '²' passes str.isdigit but is no TRN/1 count, so the host is read
        # as DGF/1, whose header it is not either
        host = tmp_path / "bad.trn"
        host.write_text("\u00b2\n")
        assert main(["quasi", "--host", str(host)]) == 1
        assert capsys.readouterr().err == "error: line 1: expected 'n m', got '\u00b2'\n"

    def test_negative_two_block_size(self, capsys):
        assert main(["quasi", "--two-block", "1/2", "-5", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex count must be nonnegative, got -5\n"


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(1, 1), "s11.dgf")
        args = ["check", "anti", "--pattern", pattern, "--exhaustive", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestTextFormat:
    def test_count_text(self, tmp_path, tt4_file, capsys):
        pattern = write_pattern(tmp_path, d_family(2), "d2.dgf")
        assert main(
            ["count", "--pattern", pattern, "--host", tt4_file, "--format", "text"]
        ) == 0
        out = capsys.readouterr().out
        assert "value: 2" in out and "ratio:" in out

    def test_check_text(self, tmp_path, capsys):
        pattern = write_pattern(tmp_path, star(2, 0), "out2.dgf")
        code = main(
            [
                "check", "anti", "--pattern", pattern, "--family", "transitive",
                "--n", "11..12", "--format", "text",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "verdict: violated" in out and "witness: 12-vertex" in out

    def test_quasi_text(self, tmp_path, capsys):
        host = tmp_path / "tt10.trn"
        host.write_text(trn_dumps(transitive_host(10)))
        assert main(["quasi", "--host", str(host), "--format", "text"]) == 0
        assert "epsilon: 1/4" in capsys.readouterr().out
