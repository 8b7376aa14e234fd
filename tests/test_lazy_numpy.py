"""Each command loads only the code it runs. numpy loads on first use: the
commands that run only the backtracker over packed rows (`check anti
--family transitive` and `blowup`, and `count`), every exhaustive, pinned
and impartiality scan and the exact quasirandom scan (bit-sliced Python
ints, so `quasi --host` and the exact `forcing_probe` rows) never import it,
while the seeded hosts and the sampled quasirandom scan do, after
`toursid/__init__.py` has set OPENBLAS_NUM_THREADS. The same probe pins the
toursid modules of each command: `import toursid` loads no submodule, and
`import toursid.cli` only the modules every command shares; an exhaustive,
pinned or impartiality scan then loads `properties` alone (no RNG, no
backtracker, no family or quasirandom scan, no catalog), `quasi` loads no
`properties`, the catalog (`constructions`) and the undirected graphs with
the isomorphism test (`graphs`) load only at `construct`, the
backtracker (`search`) only at `count` and the family checks, and no command
loads `dataclasses` or `toursid.experiments`; `inspect` is absent until
numpy brings it. A scan process also stays within a bound on the toursid
source lines it compiles. A module "loads" when its code runs: the modules
that define the names `counting`, `digraph` and `properties` forward
(`toursid._forward`) sit in sys.modules as lazy modules from then on, and
run only when one of their names is read. Each case runs in a fresh interpreter,
since this test process has long imported numpy."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from toursid.constructions import directed_cycle, star
from toursid.digraph import transitive_host
from toursid.formats import dgf_dumps, trn_dumps
from toursid.hosts import uniform_tournament

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints one JSON object: the toursid submodules that `import toursid`
# loads; per step, the step's exit code and which of the watched modules have
# run after it (a lazy module, not yet run, is in sys.modules under its own
# type); and OPENBLAS_NUM_THREADS as it was when numpy's
# import began. The watched toursid modules are dropped from sys.modules
# after each step, so every step shows the ones it loads itself.
PROBE = textwrap.dedent(
    """
    import importlib.abc
    import json
    import os
    import sys
    import types

    class Watch(importlib.abc.MetaPathFinder):
        blas = "not imported"

        def find_spec(self, name, path=None, target=None):
            if name == "numpy" and Watch.blas == "not imported":
                Watch.blas = os.environ.get("OPENBLAS_NUM_THREADS")
            return None

    OWN = tuple(f"toursid.{name}" for name in (
        "constructions", "experiments", "families", "graphs", "properties", "quasi", "rng",
        "search"))

    def loaded():
        watched = ("numpy", "inspect", "dataclasses") + OWN
        found = [name for name in watched if type(sys.modules.get(name)) is types.ModuleType]
        for name in OWN:
            sys.modules.pop(name, None)
        return found

    sys.meta_path.insert(0, Watch())
    import toursid

    package = [name for name in sys.modules if name.startswith("toursid.")]
    import toursid.cli

    steps = [["import", None, loaded()]]
    for name, argv in json.loads(sys.argv[1]):
        code = toursid.cli.main(argv + ["--out", name + ".out"])
        steps.append([name, code, loaded()])
    print(json.dumps({"package": package, "steps": steps, "blas": Watch.blas}))
    """
)


def run_probe(tmp_path, blas):
    (tmp_path / "star22.dgf").write_text(dgf_dumps(star(2, 2)))
    (tmp_path / "c5.dgf").write_text(dgf_dumps(directed_cycle(5)))
    (tmp_path / "tt6.trn").write_text(trn_dumps(transitive_host(6)))
    (tmp_path / "u12.trn").write_text(trn_dumps(uniform_tournament(12, 5)))
    steps = [
        ("transitive", ["check", "anti", "--pattern", "star22.dgf",
                        "--family", "transitive", "--n", "4..12"]),
        ("blowup", ["check", "anti", "--pattern", "c5.dgf", "--family", "blowup", "--n", "2..3"]),
        ("count", ["count", "--pattern", "c5.dgf", "--host", "tt6.trn"]),
        ("count-homs", ["count", "--pattern", "c5.dgf", "--host", "tt6.trn", "--mode", "homs"]),
        ("exhaustive", ["check", "anti", "--pattern", "c5.dgf", "--exhaustive", "5"]),
        ("dedup", ["check", "anti", "--pattern", "c5.dgf", "--dedup", "--exhaustive", "7"]),
        ("sidorenko", ["check", "sidorenko-scan", "--pattern", "c5.dgf", "--exhaustive", "5"]),
        ("sidorenko-dedup", ["check", "sidorenko-scan", "--pattern", "c5.dgf",
                             "--dedup", "--exhaustive", "6"]),
        ("strong-anti", ["check", "strong-anti", "--pattern", "star22.dgf",
                         "--pins-set", "1,3", "--exhaustive", "5"]),
        ("strong-anti-dedup", ["check", "strong-anti", "--pattern", "star22.dgf",
                               "--pins-set", "1", "--dedup", "--exhaustive", "5"]),
        ("impartial", ["check", "impartial", "--pattern", "star22.dgf", "--n", "6"]),
        ("quasi-host", ["quasi", "--host", "u12.trn"]),
        ("construct", ["construct", "star", "2", "2"]),
        ("quasi-sampled", ["quasi", "--two-block", "1/10", "24", "--seed", "3",
                           "--samples", "50"]),
        ("quasi-two-block", ["quasi", "--two-block", "1/10", "12", "--seed", "3"]),
    ]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(steps)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("blas, expected", [(None, "1"), ("3", "3")], ids=["unset", "caller-set"])
def test_numpy_loads_only_for_the_scans(tmp_path, blas, expected):
    got = run_probe(tmp_path, blas)
    assert got["package"] == []
    family = ["toursid.families", "toursid.properties", "toursid.rng", "toursid.search"]
    scan = ["toursid.properties"]
    assert got["steps"] == [
        ["import", None, []],
        ["transitive", 0, family],
        ["blowup", 0, family],
        ["count", 0, ["toursid.search"]],
        ["count-homs", 0, ["toursid.search"]],
        ["exhaustive", 0, scan],
        ["dedup", 0, scan],
        ["sidorenko", 0, scan],
        ["sidorenko-dedup", 0, scan],
        ["strong-anti", 0, scan],
        ["strong-anti-dedup", 0, scan],
        ["impartial", 2, scan],
        ["quasi-host", 0, ["toursid.quasi"]],
        ["construct", 0, ["toursid.constructions", "toursid.graphs"]],
        ["quasi-sampled", 0, ["numpy", "inspect", "toursid.families", "toursid.quasi",
                              "toursid.rng"]],
        ["quasi-two-block", 0, ["numpy", "inspect", "toursid.quasi", "toursid.rng"]],
    ]
    assert got["blas"] == expected


# Prints the toursid modules that have run, each with its source line count,
# after the C5 `check anti --exhaustive 6` scan has run; a lazy module is
# told by its type, before any attribute read would run it.
SCAN_PROBE = textwrap.dedent(
    """
    import json
    import sys
    import types
    from pathlib import Path

    import toursid.cli

    assert toursid.cli.main(sys.argv[1:]) == 0
    print(json.dumps({
        name: len(Path(module.__file__).read_text().splitlines())
        for name, module in list(sys.modules.items())
        if (name == "toursid" or name.startswith("toursid.")) and type(module) is types.ModuleType
    }))
    """
)

# source lines a scan process may compile: every process without a bytecode
# cache compiles its modules again, at about 7 ms per 1000 lines
SCAN_LINES = 1850


def test_a_scan_loads_only_the_scan(tmp_path):
    (tmp_path / "c5.dgf").write_text(dgf_dumps(directed_cycle(5)))
    argv = ["check", "anti", "--pattern", "c5.dgf", "--exhaustive", "6", "--out", "c5.json"]
    proc = subprocess.run(
        [sys.executable, "-c", SCAN_PROBE, *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = json.loads(proc.stdout)
    assert sorted(lines) == ["toursid"] + [f"toursid.{name}" for name in (
        "cli", "counting", "digraph", "formats", "hosts", "properties")]
    assert sum(lines.values()) <= SCAN_LINES


# Prints whether numpy is in sys.modules after an all-exact `forcing_probe`
# on the TRN/1 hosts given as arguments.
FORCING_PROBE = textwrap.dedent(
    """
    import sys
    from toursid.constructions import star
    from toursid.formats import trn_loads
    from toursid.experiments import forcing_probe

    hosts = [(str(i), trn_loads(text)) for i, text in enumerate(sys.argv[1:])]
    rows = forcing_probe(star(1, 2), hosts)
    assert not any(row.sampled for row in rows)
    print("numpy" in sys.modules)
    """
)


def test_exact_forcing_probe_leaves_numpy_out():
    hosts = [trn_dumps(uniform_tournament(n, n)) for n in (5, 12, 16)]
    proc = subprocess.run(
        [sys.executable, "-c", FORCING_PROBE, *hosts, trn_dumps(transitive_host(9))],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
