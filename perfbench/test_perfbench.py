"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They spawn CLI processes from this checkout and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def runner():
    workdir = run.prepare(ROOT)
    yield run.Runner(ROOT, workdir)
    shutil.rmtree(workdir, ignore_errors=True)


def _op(runner, workload, name, seed=1):
    ops = workloads.build(workload, seed, runner.workdir / f"{workload}-{seed}")
    return next(op for op in ops if op.name == name)


def test_traced_run_writes_the_same_report_bytes(runner):
    c5 = _op(runner, "raw-scan", "anti-C5").argv[3]
    star13 = _op(runner, "large-host", "two-block-star13").argv[3]
    small = [
        workloads.Op("anti", ("check", "anti", "--pattern", c5, "--exhaustive", "5")),
        workloads.Op("sampled", ("check", "anti", "--pattern", star13, "--family", "two-block",
                                 "--n", "40", "--c", "1/10", "--samples", "3000", "--seed", "5")),
        workloads.Op("quasi", ("quasi", "--two-block", "3/10", "70", "--samples", "50",
                               "--seed", "9"), kind="quasi"),
    ]
    for op in small:
        plain = runner.execute(op, traced=False)
        traced = runner.execute(op, traced=True)
        assert plain.error is None and traced.error is None
        assert plain.code == traced.code
        assert plain.text and traced.text == plain.text
        assert traced.layers["cli.self_s"] > 0
    assert traced.layers["rng.calls"] > 0
    assert traced.layers["properties.two_block_tournament.pairs"] == 70 * 69 // 2


def test_tampered_reports_fail_their_checks(runner):
    op = _op(runner, "class-scan", "strong-anti-star11")
    ex = runner.execute(op, traced=False)
    reference = checks.load_reference()
    assert ex.code == 2
    assert checks.check_output("class-scan", op, ex.code, ex.text, reference) == []

    doc = json.loads(ex.text)

    def tampered(change):
        bad = json.loads(ex.text)
        change(bad)
        return json.dumps(bad, sort_keys=True, separators=(",", ":")) + "\n"

    def set_ratio(d):
        d["curve"][-1]["max_ratio"] = {"num": "3", "den": "1"}

    def drop_witness(d):
        d["witness_trn"] = None

    def other_extremal_ratio(d):
        d["extremal_ratio"] = {"num": "5", "den": "2"}

    for change in (set_ratio, drop_witness, other_extremal_ratio):
        assert checks.check_output("class-scan", op, ex.code, tampered(change), reference)
    assert checks.check_output("class-scan", op, 0, ex.text, reference), "exit code must match"
    assert doc["verdict"] == "violated"


def test_another_seed_gives_the_reference_content(runner):
    reference = checks.load_reference()
    for workload in ("raw-scan", "class-scan"):
        ops = workloads.build(workload, 987654, runner.workdir / workload)
        execs = [runner.execute(op, traced=False) for op in ops]
        assert run.judge(workload, ops, execs, reference) == {}
        for op, ex in zip(ops, execs):
            assert checks.invariant_content(json.loads(ex.text)) == reference[workload][op.name]


def test_large_host_recounts_catch_a_wrong_report(runner):
    op = _op(runner, "large-host", "blowup-C5", seed=3)
    ex = runner.execute(op, traced=False)
    assert checks.check_output("large-host", op, ex.code, ex.text, {}) == []
    bad = ex.text.replace('"count":"', '"count":"1', 1)
    assert checks.check_output("large-host", op, ex.code, bad, {})

    star13 = _op(runner, "large-host", "two-block-star13").argv[3]
    op = workloads.Op("sampled", ("check", "anti", "--pattern", star13, "--family", "two-block",
                                  "--n", "40", "--c", "1/10", "--samples", "3000", "--seed", "5"),
                      invariant=False, recount="two-block-sampling")
    ex = runner.execute(op, traced=False)
    assert checks.check_output("large-host", op, ex.code, ex.text, {}) == []
    doc = json.loads(ex.text)
    doc["curve"].append(dict(doc["curve"][-1]))
    extra = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert "sampled curve has the wrong number of rows" in checks.check_output(
        "large-host", op, ex.code, extra, {})


def test_numpy_recount_matches_the_package_rng():
    from toursid.properties import two_block_tournament
    from toursid.rng import blend

    for seed, idx in ((0, (1, 2)), (7, (120, 100000)), (2**40 + 3, (5,)), (2**64 - 1, (0, 0, 9))):
        assert int(checks.np_blend(seed, *idx)) == blend(seed, *idx)
    t = two_block_tournament(37, "3/10", 11)
    adj = checks.np_two_block(37, Fraction(3, 10), 11)
    assert all(t.has_edge(u, v) == adj[u, v] for u in range(37) for v in range(37))


def test_reported_metrics_are_those_of_benchmark_json():
    assert set(run.end_to_end([], [1.0], [(1.0, 1.0)])) == set(run.metric_units(ROOT, "end_to_end"))
    assert set(run.per_layer([])) >= set(run.metric_units(ROOT, "per_layer"))


def test_times_are_scaled_by_the_yardstick():
    execs = [run.Execution("a", False, wall=3.0, cpu=2.0, rss_kb=2048),
             run.Execution("a", False, wall=5.0, cpu=4.0, rss_kb=1024),
             run.Execution("b", False, wall=1.0, cpu=1.0, rss_kb=512)]
    nominal = run.NOMINAL_YARDSTICK_S
    # the host ran the yardstick at half its nominal wall speed and a quarter of its CPU speed
    sticks = [(1.5 * nominal, 3 * nominal), (2.5 * nominal, 5 * nominal)]
    raw = run.end_to_end(execs, [0.4, 0.2, 0.3], sticks, scaled=False)
    assert raw == {"wall_s": 5.0, "cpu_s": 4.0, "setup_s": 0.3, "peak_rss_mb": 2.0}
    scaled = run.end_to_end(execs, [0.4, 0.2, 0.3], sticks)
    assert scaled == pytest.approx({"wall_s": 2.5, "cpu_s": 1.0, "setup_s": 0.15, "peak_rss_mb": 2.0})


def test_yardstick_prints_its_expected_count(runner):
    wall, cpu = runner.yardstick()
    assert wall > 0 and cpu > 0


def test_reference_agrees_with_itself():
    reference = checks.load_reference()
    raw = {r[0]: r[2] for r in reference["raw-scan"]["anti-C5"]["rows"]}
    classes = {r[0]: r[2] for r in reference["class-scan"]["anti-C5"]["rows"] if r[0] <= 6}
    assert raw == classes
    for name, content in reference["class-scan"].items():
        for n, hosts, _ in content["rows"]:
            assert hosts == checks.TOURNAMENT_CLASSES[n], name


def test_exits_nonzero_without_the_program():
    bare = ROOT / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "raw-scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
