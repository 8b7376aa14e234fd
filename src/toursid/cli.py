"""Command-line surface binding the library into reproducible runs.

Subcommands: construct, count, check, quasi. Reports are canonical JSON
(identical inputs and seeds give byte-identical output); exact rationals are
emitted as {"num": ..., "den": ...} string pairs and every floating-point
field is suffixed "_approx". Exit codes: 0 = holds / success, 2 = violated,
1 = error (usage errors included). Randomized runs require an explicit
--seed. The work budget is the TOURSID_BUDGET environment variable (see
`counting.work_budget`); a malformed value is an error exit.
"""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction
from pathlib import Path

from .counting import (
    BudgetExceededError,
    CountResult,
    PinnedPattern,
    count_homomorphisms,
    count_labeled_pinned,
    labeled_bound,
)
from .digraph import Digraph
from .formats import _frac, dgf_dumps, dgf_loads, host_loads, json_dumps
from .properties import (
    check_anti_exhaustive,
    check_anti_on_family,
    check_strong_anti,
    impartiality_report,
    quasirandom_epsilon,
    sidorenko_scan_exhaustive,
    two_block_tournament,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _emit_doc(doc: dict, render, args) -> int:
    """Write doc as canonical JSON, or rendered by `render` under --format text."""
    _emit(render(doc) if args.fmt == "text" else json_dumps(doc), args.out)
    return EXIT_OK


def _rational_str(doc) -> str:
    if doc is None:
        return "n/a"
    return f"{doc['num']}/{doc['den']}"


def _render_report_text(doc: dict) -> str:
    lines = [
        f"property: {doc['property']}",
        f"verdict: {doc['verdict']}",
        f"extremal ratio: {_rational_str(doc['extremal_ratio'])}"
        + (
            f" (~{doc['extremal_ratio_approx']:.6g})"
            if doc["extremal_ratio_approx"] is not None
            else ""
        ),
    ]
    for row in doc["curve"]:
        key = "max_ratio" if "max_ratio" in row else "min_ratio"
        flag = " VIOLATED" if row.get("violated") else ""
        lines.append(f"  n={row['n']}: {key}={_rational_str(row[key])}{flag}")
    if doc["witness_trn"]:
        n = doc["witness_trn"].splitlines()[0]
        lines.append(f"witness: {n}-vertex tournament (TRN/1 embedded in JSON report)")
    return "\n".join(lines) + "\n"


def _render_count_text(doc: dict) -> str:
    return (
        f"mode: {doc['mode']}\n"
        f"value: {doc['value']}\n"
        f"bound: {_rational_str(doc['bound'])}\n"
        f"ratio: {_rational_str(doc['ratio'])} (~{doc['ratio_approx']:.6g})\n"
    )


def _render_quasi_text(doc: dict) -> str:
    return (
        f"host: {doc['host']} (n={doc['n']})\n"
        f"mode: {doc['mode']['kind']}\n"
        f"epsilon: {_rational_str(doc['epsilon'])} (~{doc['epsilon_approx']:.6g})\n"
    )


def _load_pattern(path: str) -> Digraph:
    return dgf_loads(Path(path).read_text())


def _int(text: str, flag: str, spec: str | None = None) -> int:
    """int(text), or a ValueError naming the option `flag` and quoting the
    text and the option's whole value `spec`, when text is only a piece."""
    try:
        return int(text)
    except ValueError:
        where = f" in {spec!r}" if spec not in (None, text) else ""
        raise ValueError(f"{flag}: invalid integer {text!r}{where}") from None


def _fraction(text: str, flag: str) -> Fraction:
    """Fraction(text), or a ValueError naming the option `flag`."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: invalid fraction {text!r}") from None


def _parse_ints(spec: str, flag: str) -> list[int]:
    """A comma-separated list of integers, the value of option `flag`."""
    return [_int(piece, flag, spec) for piece in spec.split(",")]


def _parse_range(spec: str) -> list[int]:
    """The --n of a family scan: lo..hi inclusive, or a comma-separated list."""
    if ".." in spec:
        lo, hi = (_int(end, "--n", spec) for end in spec.split("..", 1))
        return list(range(lo, hi + 1))
    return _parse_ints(spec, "--n")


def _parse_pins(spec: str) -> list[tuple[int, int]]:
    pairs = []
    for piece in spec.split(","):
        if piece.count(":") != 1:
            raise ValueError(f"--pins: expected pv:hv pairs, got {spec!r}")
        pairs.append(tuple(_int(x, "--pins", spec) for x in piece.split(":")))
    return pairs


# per family: its builder in `constructions`, and the number of integer
# parameters it takes (None: it takes a --graph instead)
_FAMILIES = {
    "directed-path": ("directed_path", 1),
    "directed-cycle": ("directed_cycle", 1),
    "transitive-tournament": ("transitive_tournament", 1),
    "transitive-minus-edge": ("transitive_minus_edge", 3),
    "star": ("star", 2),
    "iterated-balanced-star": ("iterated_balanced_star", 1),
    "subset-bipartite": ("subset_bipartite", 1),
    "d-family": ("d_family", 1),
    "cycle-with-chord": ("cycle_with_chord", 1),
    "unique-hom-digraph": ("unique_hom_digraph", 1),
    "subdivided-star": ("subdivided_star_orientation", 1),
    "impartial-four-tree": ("impartial_four_tree", 0),
    "all-orientations-union": ("all_orientations_union", None),
    "tree-orientation": ("tree_anti_orientation", None),
}


def _cmd_construct(args) -> int:
    family = args.family
    if family not in _FAMILIES:
        return _error(f"unknown family {family!r}")
    name, arity = _FAMILIES[family]
    # the catalog is loaded here only: no other command builds from it
    from . import constructions

    builder = getattr(constructions, name)
    if arity is None:
        if args.params:
            return _error(f"construct {family} does not take integer parameters")
        if not args.graph:
            return _error(f"{family} needs --graph FILE")
        d = builder(_load_pattern(args.graph).underlying())
    else:
        if args.graph is not None:
            return _error(f"construct {family} does not take --graph")
        if len(args.params) != arity:
            return _error(f"{family} takes {arity} integer parameter(s)")
        d = builder(*args.params)
        if family == "subset-bipartite":
            d = d[0]  # the builder also returns part A
    if d.meta and d.meta.get("eligible") is False:
        print(
            "warning: j-i == 2; this deletion is outside the over-representation guarantee",
            file=sys.stderr,
        )
    header = None
    if d.meta:
        params = d.meta.get("params", {})
        rendered = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
        header = f"constructed: {d.meta['family']} {rendered}".rstrip()
    _emit(dgf_dumps(d, header=header), args.out)
    return EXIT_OK


def _cmd_count(args) -> int:
    if args.pins and args.mode == "homs":
        return _error("count --mode homs does not take --pins")
    pattern = _load_pattern(args.pattern)
    host = host_loads(Path(args.host).read_text())
    if args.mode == "homs":
        res = CountResult(count_homomorphisms(pattern, host), labeled_bound(pattern, host.n))
        doc = {"mode": "homs"}
    else:
        # no --pins is the empty anchor: the unpinned count and bound
        pairs = _parse_pins(args.pins) if args.pins else []
        pinned = PinnedPattern(pattern, [k for k, _ in pairs])
        res = count_labeled_pinned(pinned, host, dict(pairs))
        doc = {"mode": "labeled-pinned" if pairs else "labeled"}
        if pairs:
            doc["pins"] = {str(k): v for k, v in pairs}
    ratio = res.ratio
    doc |= {"value": str(res.value), "bound": _frac(res.bound),
            "ratio": _frac(ratio), "ratio_approx": float(ratio)}
    return _emit_doc(doc, _render_count_text, args)


# per `check` property, and per regime of `check anti` (each family, sampled or
# not): the options it needs and the others it reads; it refuses the rest
_CHECK_READS = {
    "anti --exhaustive": (("exhaustive",), ("dedup",)),
    "anti --family transitive": (("family", "n"), ()),
    "anti --family blowup": (("family", "n"), ("base",)),
    "anti --family two-block": (("family", "n", "c", "seed"), ()),
    "anti --family transitive --samples": (("family", "n"), ("samples", "seed")),
    "anti --family blowup --samples": (("family", "n"), ("base", "samples", "seed")),
    "anti --family two-block --samples": (("family", "n", "c", "seed"), ("samples",)),
    "strong-anti": (("pins_set", "exhaustive"), ("dedup",)),
    "impartial": (("n",), ()),
    "sidorenko-scan": (("exhaustive",), ("dedup",)),
}
_CHECK_OPTIONS = ("exhaustive", "dedup", "family", "n", "base", "c", "samples", "seed", "pins_set")


def _flags(keys) -> list[str]:
    return ["--" + k.replace("_", "-") for k in keys]


def _cmd_check(args) -> int:
    pattern = _load_pattern(args.pattern)
    scan = args.property
    if scan == "anti":
        if args.exhaustive is None and args.family is None:
            return _error("check anti needs --exhaustive or --family")
        if args.exhaustive is None and args.dedup:
            return _error("check anti --dedup needs --exhaustive")
        scan += " --family" if args.exhaustive is None else " --exhaustive"
    regime = scan
    if scan == "anti --family":
        regime += f" {args.family}" + (" --samples" if args.samples is not None else "")
    needs, reads = _CHECK_READS[regime]
    # an empty --pins-set or --n is as good as none
    missing = [k for k in needs if getattr(args, k) in (None, "")]
    if missing:
        return _error(f"check {scan} needs {' and '.join(_flags(missing))}")
    # an absent option is None, or False for --dedup (a given 0 is neither)
    given = [k for k in _CHECK_OPTIONS if all(getattr(args, k) is not v for v in (None, False))]
    unread = [k for k in given if k not in needs + reads]
    if unread:
        return _error(f"check {scan} does not take {', '.join(_flags(unread))}")
    if scan == "anti --exhaustive":
        report = check_anti_exhaustive(pattern, args.exhaustive, dedup=args.dedup)
    elif scan == "anti --family":
        report = check_anti_on_family(
            pattern,
            args.family,
            _parse_range(args.n),
            base=_load_pattern(args.base) if args.base else None,
            c=_fraction(args.c, "--c") if args.c else None,
            seed=args.seed,
            samples=args.samples,
        )
    elif scan == "strong-anti":
        pinned = tuple(_parse_ints(args.pins_set, "--pins-set"))
        report = check_strong_anti(
            PinnedPattern(pattern, pinned), args.exhaustive, dedup=args.dedup
        )
    elif scan == "impartial":
        report = impartiality_report(pattern, _int(args.n, "--n"))
    else:
        report = sidorenko_scan_exhaustive(pattern, args.exhaustive, dedup=args.dedup)
    _emit_doc(report.to_json_dict(), _render_report_text, args)
    return EXIT_VIOLATED if report.verdict == "violated" else EXIT_OK


def _cmd_quasi(args) -> int:
    if args.two_block:
        if args.host is not None:
            return _error("quasi --two-block does not take --host")
        if args.seed is None:
            return _error("--two-block requires --seed")
        c = _fraction(args.two_block[0], "--two-block C")
        n = _int(args.two_block[1], "--two-block N")
        host = two_block_tournament(n, c, args.seed)
        label = f"two-block(c={c},n={n},seed={args.seed})"
    elif args.host:
        if args.seed is not None and args.samples is None:
            return _error("quasi --host does not take --seed without --samples")
        host = host_loads(Path(args.host).read_text())
        label = args.host
    else:
        return _error("quasi needs --host or --two-block")
    if args.samples is not None:
        if args.seed is None:
            return _error("sampled mode requires --seed")
        eps = quasirandom_epsilon(
            host, "sampled", samples=args.samples, seed=args.seed
        )
        mode = {"kind": "sampled", "samples": args.samples, "seed": args.seed}
    else:
        eps = quasirandom_epsilon(host)
        mode = {"kind": "exact"}
    doc = {
        "schema": "toursid/quasi-v1",
        "host": label,
        "n": host.n,
        "mode": mode,
        "epsilon": _frac(eps),
        "epsilon_approx": float(eps),
    }
    return _emit_doc(doc, _render_quasi_text, args)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit code 1, keeping 2 for "violated"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toursid",
        description="Exact counting and extremal search in tournaments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cons = sub.add_parser("construct", help="emit a catalog digraph as DGF/1")
    p_cons.add_argument("family", help="family name, e.g. d-family")
    p_cons.add_argument("params", nargs="*", type=int, help="family parameters")
    p_cons.add_argument("--graph", help="DGF/1 input for graph-valued families")
    p_cons.add_argument("--out", help="output path (default stdout)")
    p_cons.set_defaults(func=_cmd_construct)

    p_count = sub.add_parser("count", help="count pattern copies in a host")
    p_count.add_argument("--pattern", required=True, help="pattern DGF/1 file")
    p_count.add_argument("--host", required=True, help="host TRN/1 (or DGF/1) file")
    p_count.add_argument("--mode", choices=("homs", "labeled"), default="labeled")
    p_count.add_argument("--pins", help="anchor as 'pv:hv,pv:hv' (labeled only)")
    p_count.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
    p_count.add_argument("--out")
    p_count.set_defaults(func=_cmd_count)

    p_check = sub.add_parser("check", help="run a property verdict engine")
    p_check.add_argument(
        "property",
        choices=("anti", "strong-anti", "impartial", "sidorenko-scan"),
    )
    p_check.add_argument("--pattern", required=True)
    p_check.add_argument("--exhaustive", type=int, help="scan all hosts up to n")
    p_check.add_argument("--dedup", action="store_true", help="report hosts as isomorphism classes")
    p_check.add_argument("--family", choices=("transitive", "blowup", "two-block"))
    p_check.add_argument("--n", help="host sizes or multipliers, e.g. 4..14 or 2,3")
    p_check.add_argument("--base", help="blowup base pattern (default: the pattern)")
    p_check.add_argument("--c", help="two-block left fraction, e.g. 1/10")
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--samples", type=int)
    p_check.add_argument("--pins-set", help="pinned pattern vertices, e.g. 0,2")
    p_check.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
    p_check.add_argument("--out")
    p_check.set_defaults(func=_cmd_check)

    p_quasi = sub.add_parser("quasi", help="quasirandom-direction epsilon")
    p_quasi.add_argument("--host", help="host TRN/1 (or DGF/1) file")
    p_quasi.add_argument(
        "--two-block", nargs=2, metavar=("C", "N"), help="generate the host instead"
    )
    p_quasi.add_argument("--seed", type=int)
    p_quasi.add_argument("--samples", type=int)
    p_quasi.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
    p_quasi.add_argument("--out")
    p_quasi.set_defaults(func=_cmd_quasi)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a FormatError is a ValueError
        return _error(str(exc))
    except BudgetExceededError as exc:
        return _error(f"budget exceeded: {exc}")


def run() -> None:
    """The process entry point: `main`, then exit with its code.

    Before exiting, every object still alive is moved to the collector's
    permanent generation (`gc.freeze`), so interpreter shutdown does not walk
    every module, function and class (and numpy's objects, where it loaded)
    once more. Nothing is lost by that: Python does not promise that `__del__`
    runs at exit, toursid defines no `__del__`, weakref callback or atexit
    hook, a document written to `--out` is closed by `Path.write_text`, and
    the interpreter still flushes stdout and stderr and runs atexit hooks, as
    `sys.exit` always does (`os._exit` would skip both). In-process callers
    use `main`, which freezes nothing.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
