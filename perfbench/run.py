"""toursid benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload raw-scan --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The benchmark is a single closed-loop client:
it runs the workload's operations one at a time, each as a fresh
`python -m toursid.cli ...` process exactly as a user runs it, timing each
process from spawn to exit and taking its CPU time and peak RSS from
`os.wait4`. After the first full pass it keeps cycling through the operations
while the next one is expected to finish within --seconds. Every output is
checked afterwards (see `checks.py`); nothing is checked inside a timed
region.

The host's speed drifts by 20-40% over tens of seconds to minutes, so an
untraced run also spawns the fixed workload of `yardstick.py` between
operations, for about a fifth of its time, and scales its times to the
yardstick's nominal speed: a figure is the raw one times
NOMINAL_YARDSTICK_S / (the run's mean yardstick time). The raw figures and the
yardstick's times are printed above the result line.

--trace 0 reports the end-to-end metrics:
  wall_s       sum over operations of the mean spawn-to-exit seconds, i.e.
               the average time of one pass over the whole run, scaled by
               the yardstick's wall time
  cpu_s        the same for user + system CPU seconds, scaled by the
               yardstick's CPU time
  setup_s      median seconds for a fresh process to `import toursid.cli` and
               exit, over several processes started before timing begins,
               scaled by the yardstick's wall time
  peak_rss_mb  highest peak RSS of any operation process
--trace 1 runs each operation untraced and then through `trace_cli.py`, and
reports the per-layer metrics (per-operation means summed over the pass)
with the tracing overhead. BENCHMARK.json at the checkout root names the
metrics reported and their units.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. `--record-reference` re-records `reference.json`, the
seed-invariant content the checks compare against.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

OP_TIMEOUT_S = 60.0
SETUP_PROCESSES = 7
WORK_DIR = ".perfbench_work"
# Roughly the yardstick's spawn-to-exit time on the 2-core Xeon VM where the
# benchmark was defined, so that scaled figures read close to raw seconds
# there. Changing it rescales every figure.
NOMINAL_YARDSTICK_S = 0.75
# The yardstick's share of an untraced run's process time.
YARDSTICK_SHARE = 0.2


class ProgramMissing(RuntimeError):
    """The checkout holds no runnable toursid."""


@dataclass
class Execution:
    op: str
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    code: Optional[int] = None
    text: str = ""
    error: Optional[str] = None
    layers: dict = field(default_factory=dict)


class Runner:
    """Spawns operation processes from the checkout at `root`."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.count = 0

    def spawn(self, argv: list[str], stdout_path: Path) -> tuple[float, object, Optional[int]]:
        """Run argv to completion: (wall seconds, rusage, exit code or None on
        timeout)."""
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if proc.returncode < 0 else proc.returncode
        return wall, usage, code

    def import_seconds(self) -> float:
        wall, _, code = self.spawn(
            [sys.executable, "-c", "import toursid.cli"], self.workdir / "import.out"
        )
        if code != 0:
            err = (self.workdir / "import.err").read_text()
            raise ProgramMissing(f"`import toursid.cli` failed:\n{err}")
        return wall

    def yardstick(self) -> tuple[float, float]:
        """Run the yardstick once: (wall seconds, CPU seconds)."""
        out = self.workdir / "yardstick.out"
        wall, usage, code = self.spawn([sys.executable, str(HERE / "yardstick.py")], out)
        if code != 0 or out.read_text().strip() != str(yardstick.EXPECTED):
            raise RuntimeError(f"the yardstick exited {code} or printed a wrong count")
        return wall, usage.ru_utime + usage.ru_stime

    def execute(self, op: workloads.Op, traced: bool) -> Execution:
        self.count += 1
        stem = self.workdir / f"{op.name}.{self.count}"
        out_path = stem.with_suffix(".json")
        if traced:
            spans = stem.with_suffix(".spans")
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans), op.name]
        else:
            argv = [sys.executable, "-m", "toursid.cli"]
        argv += [*op.argv, "--out", str(out_path)]
        ex = Execution(op.name, traced)
        ex.wall, usage, ex.code = self.spawn(argv, stem.with_suffix(".stdout"))
        ex.cpu = usage.ru_utime + usage.ru_stime
        ex.rss_kb = usage.ru_maxrss
        if ex.code is None:
            ex.error = f"killed after {OP_TIMEOUT_S:.0f} s or by a signal"
            return ex
        try:
            ex.text = out_path.read_text()
            if traced:
                ex.layers = tracing.layer_metrics(json.loads(spans.read_text()))
        except (OSError, ValueError) as exc:
            ex.error = f"no readable output: {exc}"
        return ex


def measure(
    runner: Runner, ops: list, seconds: float, trace: bool
) -> tuple[list[Execution], list[tuple[float, float]]]:
    """One full pass, then more operations in order while the next one is
    expected to end within `seconds` of the start. An untraced run also runs
    the yardstick after an operation whenever the yardstick has had less than
    YARDSTICK_SHARE of the time so far. Returns the executions and the
    yardstick's (wall, CPU) times."""
    modes = (False, True) if trace else (False,)
    done: dict[str, list[Execution]] = {op.name: [] for op in ops}
    sticks: list[tuple[float, float]] = []
    busy = 0.0
    start = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops):
            expected = sum(
                statistics.median(e.wall for e in done[op.name] if e.traced == m) for m in modes
            )
            if time.perf_counter() - start + expected > seconds:
                break
        batch = [runner.execute(op, traced) for traced in modes]
        done[op.name].extend(batch)
        busy += sum(e.wall for e in batch)
        if not trace and sum(w for w, _ in sticks) < YARDSTICK_SHARE * busy:
            sticks.append(runner.yardstick())
        if any(e.code is None for e in batch):
            break
    return [e for op in ops for e in done[op.name]], sticks


def judge(workload: str, ops: list, execs: list[Execution], reference: dict) -> dict[str, list[str]]:
    """Failure reasons per execution index; an execution fails when its output
    is wrong or differs from the operation's other executions."""
    by_name = {op.name: op for op in ops}
    verdicts: dict[tuple, list[str]] = {}
    failures = {}
    first_text = {}
    for idx, ex in enumerate(execs):
        if ex.error:
            failures[idx] = [ex.error]
            continue
        key = (ex.op, ex.code, ex.text)
        if key not in verdicts:
            verdicts[key] = checks.check_output(workload, by_name[ex.op], ex.code, ex.text, reference)
        errors = list(verdicts[key])
        if first_text.setdefault(ex.op, ex.text) != ex.text:
            errors.append("output differs from an earlier run of the same operation")
        if errors:
            failures[idx] = errors
    return failures


def _per_op_sum(execs: list[Execution], value, traced: bool = False) -> float:
    # Means, not medians: the host's speed drifts over tens of seconds, and a
    # mean weights every part of the run alike, as the yardstick's mean does.
    groups: dict[str, list[float]] = {}
    for ex in execs:
        if ex.traced == traced:
            groups.setdefault(ex.op, []).append(value(ex))
    return sum(statistics.fmean(vals) for vals in groups.values())


def end_to_end(
    execs: list[Execution], setup: list[float], sticks: list[tuple[float, float]], scaled: bool = True
) -> dict[str, float]:
    """The end-to-end metrics, scaled by the yardstick's mean times unless
    `scaled` is false."""
    wall_scale = NOMINAL_YARDSTICK_S / statistics.fmean(w for w, _ in sticks) if scaled else 1.0
    cpu_scale = NOMINAL_YARDSTICK_S / statistics.fmean(c for _, c in sticks) if scaled else 1.0
    return {
        "wall_s": _per_op_sum(execs, lambda e: e.wall) * wall_scale,
        "cpu_s": _per_op_sum(execs, lambda e: e.cpu) * cpu_scale,
        "setup_s": statistics.median(setup) * wall_scale,
        "peak_rss_mb": max((e.rss_kb for e in execs), default=0) / 1024,
    }


def per_layer(execs: list[Execution]) -> dict[str, float]:
    # the additive quantities are the keys `layer_metrics` gives any trace
    sums = {
        name: _per_op_sum(execs, lambda e, name=name: e.layers[name], traced=True)
        for name in tracing.layer_metrics([])
    }
    sums.update(tracing.ratios(sums))
    sums["trace.overhead_s"] = _per_op_sum(execs, lambda e: e.wall, traced=True) - _per_op_sum(
        execs, lambda e: e.wall
    )
    return sums


def metric_units(root: Path, section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under `section`."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def fingerprint() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def prepare(root: Path) -> Path:
    """Make the checkout's toursid importable here and return a fresh work
    directory inside the checkout."""
    src = root / "src"
    if not (src / "toursid" / "cli.py").is_file():
        raise ProgramMissing(f"no toursid sources under {src}")
    sys.path.insert(0, str(src))
    import toursid

    if Path(toursid.__file__).resolve().parent != (src / "toursid").resolve():
        raise ProgramMissing(f"imported toursid from {toursid.__file__}, not from {src}")
    workdir = root / WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workdir = prepare(root)
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    try:
        runner = Runner(root, workdir)
        ops = workloads.build(workload, seed, workdir / "inputs")
        runner.import_seconds()  # warms the bytecode cache; also proves the program runs
        setup = [] if trace else [runner.import_seconds() for _ in range(SETUP_PROCESSES)]
        if not trace:
            runner.yardstick()  # warms the page cache, like the import above
        execs, sticks = measure(runner, ops, seconds, trace)
        failures = judge(workload, ops, execs, checks.load_reference())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for idx, errors in sorted(failures.items()):
        print(f"FAILED {execs[idx].op} (run {idx}): " + "; ".join(errors))
    finished = [e for e in execs if not e.error]
    metrics = per_layer(finished) if trace else end_to_end(finished, setup, sticks)
    units = metric_units(root, "per_layer" if trace else "end_to_end")
    reps = [sum(1 for e in execs if e.op == op.name and not e.traced) for op in ops]
    print(
        f"{workload} seed={seed} trace={int(trace)}: {len(ops)} operations, "
        f"{min(reps)}-{max(reps)} untraced runs each, {len(execs)} processes"
    )
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:14.6f} {unit}")
    if not trace:
        print(f"  {'setup processes':42s} {len(setup):14d}")
        unscaled = end_to_end(finished, setup, sticks, scaled=False)
        for name in ("wall_s", "cpu_s", "setup_s"):
            print(f"  {'unscaled ' + name:42s} {unscaled[name]:14.6f} {units[name]}")
        walls = [w for w, _ in sticks]
        print(f"  {'yardstick runs':42s} {len(walls):14d}")
        print(f"  {'yardstick mean wall s':42s} {statistics.fmean(walls):14.6f}")
        print(f"  {'yardstick mean cpu s':42s} {statistics.fmean(c for _, c in sticks):14.6f}")
    print(f"  {'failed_ratio':42s} {len(failures) / len(execs):14.6f}")
    return {
        "correct": not failures,
        "attempted": len(execs),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def record_reference(root: Path) -> None:
    """Run every seed-invariant operation once (seed 0) and rewrite
    reference.json, after checking the new content against itself."""
    workdir = prepare(root)
    try:
        runner = Runner(root, workdir)
        runs = []
        for workload in workloads.WORKLOADS:
            ops = [op for op in workloads.build(workload, 0, workdir / workload) if op.invariant]
            runs.append((workload, ops, [runner.execute(op, traced=False) for op in ops]))
        reference: dict = {}
        for workload, ops, execs in runs:
            for op, ex in zip(ops, execs):
                if ex.error:
                    raise SystemExit(f"{workload} {op.name}: {ex.error}")
                doc = json.loads(ex.text)
                reference.setdefault(workload, {})[op.name] = checks.invariant_content(doc)
        for workload, ops, execs in runs:
            failures = judge(workload, ops, execs, reference)
            if failures:
                raise SystemExit(f"{workload}: {failures}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per operation, so that a re-recorded reference diffs readably
    body = ",\n".join(
        f" {json.dumps(w)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(op)}: {json.dumps(c, sort_keys=True)}" for op, c in sorted(ops.items())
        )
        + "\n }"
        for w, ops in sorted(reference.items())
    )
    checks.REFERENCE_PATH.write_text("{\n" + body + "\n}\n")
    print(f"wrote {checks.REFERENCE_PATH}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.record_reference:
            record_reference(root)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
