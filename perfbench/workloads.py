"""The benchmark's workloads: which CLI operations each one runs, and the
seeded inputs they read.

Every input comes from the benchmark seed. Patterns are written as DGF/1 files
under a random vertex relabelling, the `quasi --host` tournament is a seeded
TRN/1 file, and every `--seed` passed to the CLI is drawn from the same
generator. The CLI only ever sees files and arguments.

Why each workload exists (the per-layer metrics it should move are computed
by `tracing.layer_metrics` and listed in BENCHMARK.json):

raw-scan    ~35k tiny `count_*` calls per operation on raw hosts with n <= 6.
            Time goes to per-call set-up in `counting` and to
            `hosts.all_tournaments` / `Tournament.from_code`. No class
            enumeration, no rng, no numpy: a batched all-hosts kernel shows here.
class-scan  every process rebuilds the 456 isomorphism classes at n = 7, so
            `tournament_representatives` / `are_isomorphic` dominate while
            counting touches about 530 hosts. Canonical class codes show here;
            a raw batched kernel should not move it.
large-host  hosts of 18 to 768 vertices: `rng`, `sampled_density`,
            `two_block_tournament` and the exact quasirandom loop, plus a few
            deep `counting` searches. Vectorised rng and a chunked quasi loop
            show here; a kernel that trades deep searches for tiny hosts pays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("raw-scan", "class-scan", "large-host")


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload.

    `hosts` names the host enumeration whose per-row counts are checked
    ("raw" or "classes"); `invariant` marks operations whose verdict, ratios
    and curve rows do not depend on the seed and are compared with the
    committed reference; `recount` names the independent recomputation in
    `checks.py` that checks a seed-dependent report.
    """

    name: str
    argv: tuple[str, ...]
    kind: str = "report"  # "report" | "quasi"
    invariant: bool = True
    hosts: Optional[str] = None
    recount: Optional[str] = None


def _pattern(key: str):
    from toursid import constructions as cons

    return {
        "C5": lambda: cons.directed_cycle(5),
        "C7": lambda: cons.directed_cycle(7),
        "P2": lambda: cons.directed_path(2),
        "TT3": lambda: cons.transitive_tournament(3),
        "TT4": lambda: cons.transitive_tournament(4),
        "star11": lambda: cons.star(1, 1),
        "star13": lambda: cons.star(1, 3),
        "star22": lambda: cons.star(2, 2),
        "d2": lambda: cons.d_family(2),
        "tme515": lambda: cons.transitive_minus_edge(5, 1, 5),
        "ibs2": lambda: cons.iterated_balanced_star(2),
        "i4t": cons.impartial_four_tree,
    }[key]()


class _Inputs:
    """Writes the seeded input files of one workload into `workdir`."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.perms: dict[str, list[int]] = {}

    def pattern(self, key: str) -> str:
        """Path of `key`'s DGF/1 file under a seeded vertex relabelling."""
        from toursid.formats import dgf_dumps

        d = _pattern(key)
        perm = list(range(d.n))
        self.rng.shuffle(perm)
        self.perms[key] = perm
        path = self.workdir / f"{key}.dgf"
        path.write_text(dgf_dumps(d.relabel(tuple(perm))))
        return str(path)

    def pins(self, key: str, vertices: tuple[int, ...]) -> str:
        """The relabelled pinned set, as `--pins-set` takes it."""
        perm = self.perms[key]
        return ",".join(str(v) for v in sorted(perm[u] for u in vertices))

    def cli_seed(self) -> str:
        return str(self.rng.randrange(1 << 31))

    def host(self, n: int) -> str:
        from toursid.formats import trn_dumps
        from toursid.hosts import uniform_tournament

        path = self.workdir / f"uniform{n}.trn"
        path.write_text(trn_dumps(uniform_tournament(n, self.rng.randrange(1 << 31))))
        return str(path)


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of `workload`, with their inputs written to `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    inp = _Inputs(seed, workdir)
    p = inp.pattern
    if workload == "raw-scan":
        return [
            Op("anti-C5", ("check", "anti", "--pattern", p("C5"), "--exhaustive", "6"), hosts="raw"),
            Op("anti-P2", ("check", "anti", "--pattern", p("P2"), "--exhaustive", "6"), hosts="raw"),
            Op(
                "sidorenko-TT3",
                ("check", "sidorenko-scan", "--pattern", p("TT3"), "--exhaustive", "6"),
                hosts="raw",
            ),
            Op(
                "strong-anti-star11",
                ("check", "strong-anti", "--pattern", p("star11"),
                 "--pins-set", inp.pins("star11", (1, 2)), "--exhaustive", "5"),
                hosts="raw",
            ),
        ]
    if workload == "class-scan":
        ops = [
            Op(
                f"anti-{key}",
                ("check", "anti", "--dedup", "--pattern", p(key), "--exhaustive", "7"),
                hosts="classes",
            )
            for key in ("C7", "C5", "d2", "tme515", "ibs2")
        ]
        return ops + [
            Op("impartial-i4t", ("check", "impartial", "--pattern", p("i4t"), "--n", "7")),
            Op(
                "sidorenko-TT4",
                ("check", "sidorenko-scan", "--dedup", "--pattern", p("TT4"), "--exhaustive", "7"),
                hosts="classes",
            ),
            Op(
                "strong-anti-star22",
                ("check", "strong-anti", "--dedup", "--pattern", p("star22"),
                 "--pins-set", inp.pins("star22", (0,)), "--exhaustive", "6"),
                hosts="classes",
            ),
            Op(
                "strong-anti-star11",
                ("check", "strong-anti", "--dedup", "--pattern", p("star11"),
                 "--pins-set", inp.pins("star11", (1, 2)), "--exhaustive", "6"),
                hosts="classes",
            ),
        ]
    return [
        Op(
            "two-block-star13",
            ("check", "anti", "--pattern", p("star13"), "--family", "two-block",
             "--n", "120", "--c", "1/10", "--samples", "100000", "--seed", inp.cli_seed()),
            invariant=False,
            recount="two-block-sampling",
        ),
        Op(
            "quasi-two-block",
            ("quasi", "--two-block", "3/10", "768", "--samples", "1000", "--seed", inp.cli_seed()),
            kind="quasi",
            invariant=False,
        ),
        Op("quasi-host", ("quasi", "--host", inp.host(18)), kind="quasi", invariant=False),
        Op(
            "transitive-star22",
            ("check", "anti", "--pattern", p("star22"), "--family", "transitive", "--n", "4..32"),
        ),
        # the lexicographic fill depends on the labelling, so the host does too
        Op(
            "blowup-C5",
            ("check", "anti", "--pattern", p("C5"), "--family", "blowup", "--n", "2..6"),
            invariant=False,
            recount="cycle5-blowup",
        ),
    ]
