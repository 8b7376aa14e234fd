"""Steadiness report: run the benchmark on several seeds per workload and print
each end-to-end metric's median, quartiles and relative spread.

    python3 perfbench/steady.py --runs 10 [--first-seed 101] [--workloads raw-scan,class-scan]

Run from the root of a checkout. The spread is the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) divided by the
median. Against its bound in BENCHMARK.json a metric is "steady" when its
spread is below a third of the bound, "within bound" when it is below the
bound, and "OVER BOUND" otherwise; setup_s is judged only by comparing the
medians of two sets. Two sets of runs (say --first-seed 101 and 201) agree
when every median of one is within its bound of the other. With --runs 1 this
is the one command that runs every workload and prints every metric with its
unit and failed_ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    for line in lines[:-1]:
        if line.startswith("FAILED"):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def verdict(name: str, spread: float, bound: float) -> str:
    if name == "setup_s":
        return "(compare medians)"
    if spread < bound / 3:
        return "steady"
    return "within bound" if spread < bound else "OVER BOUND"


def summarise(results: list[dict], bounds: dict) -> list[str]:
    rows = []
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for name, unit in ((k, v["unit"]) for k, v in results[0]["metrics"].items()):
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        rows.append(
            f"  {name:14s} median {med:12.6f} {unit:6s} q1 {q1:12.6f} q3 {q3:12.6f} "
            f"spread {spread:8.4f} bound {bounds[name]} {verdict(name, spread, bounds[name])} "
            f"(n={len(values)})"
        )
    rows.append(f"  {'failed_ratio':14s} {failed / attempted:.6f} ({failed}/{attempted} operations)")
    return rows


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [one_run(workload, seed, seconds) for seed in seeds]
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"{seconds} s each")
        print("\n".join(summarise(results, bounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
