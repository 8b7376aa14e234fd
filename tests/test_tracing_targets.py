"""The benchmark's tracer wraps toursid functions by name (`TARGETS` in
`perfbench/tracing.py`). `perfbench/` lies outside the test paths, so this
checks here that every name it wraps still exists, and that its wrappers
reach the calls a command makes.

Some names it wraps have moved out of the module it names: `properties`,
`counting` and `digraph` answer for them through `toursid._forward`, and
`toursid._PUBLIC` names the defining module. The owner must return that
module's own object, since the tracer rebinds every module attribute that is
that object. The tracer lists the toursid modules in sys.modules before it
reads the names, so the defining module must be in that list although no
scan runs it: `_forward` enters it there as a lazy module. The traced
commands below show the wrappers reaching the engines that a command imports
only when it runs, and a lazy module whose code raises leaves sys.modules as
after a failed plain import."""

import importlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import toursid
from toursid.constructions import directed_cycle, star
from toursid.digraph import transitive_host
from toursid.formats import dgf_dumps, trn_dumps

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _targets():
    return _tracing().TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t.module}:{t.attr}")
def test_target_resolves(target):
    owner = importlib.import_module(target.module)
    if "." in target.attr:
        # the tracer replaces the method in the class's own namespace
        cls_name, meth = target.attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, target.attr))


MOVED = [
    t for t in _targets()
    if "." not in t.attr and t.attr not in vars(importlib.import_module(t.module))
]


def test_the_moved_targets_are_those_of_the_three_forwards():
    assert sorted(f"{t.module}:{t.attr}" for t in MOVED) == [
        "toursid.counting:count_homomorphisms",
        "toursid.counting:count_labeled",
        "toursid.counting:count_labeled_pinned",
        "toursid.counting:density",
        "toursid.digraph:are_isomorphic",
        "toursid.properties:check_anti_on_family",
        "toursid.properties:quasirandom_epsilon",
        "toursid.properties:sampled_density",
        "toursid.properties:two_block_tournament",
    ]


@pytest.mark.parametrize("target", MOVED, ids=lambda t: f"{t.module}:{t.attr}")
def test_a_moved_target_is_the_defining_modules_object(target):
    owner = importlib.import_module(target.module)
    home = importlib.import_module(f"toursid.{toursid._PUBLIC[target.attr]}")
    # read through the forward, not a copy: the old module holds no binding
    assert target.attr not in vars(owner)
    assert getattr(owner, target.attr) is vars(home)[target.attr]
    assert inspect.getmodule(vars(home)[target.attr]) is home


# command -> the counters its trace must show, as `tracing.layer_metrics`
# computes them from the spans
TRACED = {
    "family-sampled": (
        ["check", "anti", "--pattern", "star13.dgf", "--family", "two-block", "--n", "20",
         "--c", "1/10", "--samples", "500", "--seed", "5"],
        {"properties.sampled_density.samples": 500,
         "properties.two_block_tournament.pairs": 190},
    ),
    "family-exact": (
        ["check", "anti", "--pattern", "star22.dgf", "--family", "transitive", "--n", "4..6"],
        {"counting.calls": 3},
    ),
    "count": (["count", "--pattern", "c5.dgf", "--host", "tt6.trn"], {"counting.calls": 1}),
    "quasi-sampled": (
        ["quasi", "--two-block", "1/10", "30", "--seed", "3", "--samples", "50"],
        {"properties.quasirandom_epsilon.subsets": 50,
         "properties.two_block_tournament.pairs": 435},
    ),
    "quasi-host": (["quasi", "--host", "tt6.trn"], {"properties.quasirandom_epsilon.subsets": 63}),
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_a_traced_command_counts_its_engines(tmp_path, name):
    argv, expected = TRACED[name]
    (tmp_path / "star13.dgf").write_text(dgf_dumps(star(1, 3)))
    (tmp_path / "star22.dgf").write_text(dgf_dumps(star(2, 2)))
    (tmp_path / "c5.dgf").write_text(dgf_dumps(directed_cycle(5)))
    (tmp_path / "tt6.trn").write_text(trn_dumps(transitive_host(6)))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(spans), name, *argv,
         "--out", "report.out"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in (0, 2), proc.stderr
    metrics = _tracing().layer_metrics(json.loads(spans.read_text()))
    assert {key: metrics[key] for key in expected} == expected


# Imports the catalog twice and prints each error and whether `graphs`, which
# `digraph` enters lazily and the catalog imports, is still in sys.modules.
BROKEN_PROBE = textwrap.dedent(
    """
    import sys

    for _ in range(2):
        try:
            from toursid.constructions import directed_cycle
        except Exception as error:
            print(type(error).__name__, "toursid.graphs" in sys.modules)
    """
)


@pytest.mark.parametrize(
    "tail, error",
    [("def (:", "SyntaxError"), ("raise RuntimeError", "RuntimeError")],
    ids=["syntax-error", "raises"],
)
def test_a_lazy_module_that_raises_leaves_sys_modules(tmp_path, tail, error):
    # a half-run module kept in sys.modules would make each import report
    # `cannot import name 'UndirectedGraph'` in place of the module's own error
    package = tmp_path / "toursid"
    shutil.copytree(ROOT / "src" / "toursid", package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "graphs.py", "a") as fh:
        fh.write(f"\n{tail}\n")
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN_PROBE],
        env={**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.splitlines() == [f"{error} False"] * 2, proc.stderr
