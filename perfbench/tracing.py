"""Spans around the calls into each toursid layer, recorded from outside the
package, and the per-layer metrics computed from them.

`Recorder.install` wraps the public functions in `TARGETS` at every module
attribute that names them (so `toursid.properties.count_labeled` and
`toursid.counting.count_labeled` are both timed). A call becomes a span with
a name, start, end, parent and operation id. Hot functions are aggregated:
all their calls under one parent span share a single record that carries the
call count and the summed busy time. Generators are timed per `next`.
Spans stay in memory and are written once, when the traced process exits.

`run.py` computes self time (a span minus its child spans) and
the metrics below from those records.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

SPAN, HOT, GEN = "span", "hot", "gen"


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "func" or "Class.method"
    layer: str
    kind: str = SPAN
    # work done by one call, from its arguments and result
    work: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr.rsplit('.', 1)[-1]}"


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _quasi_subsets(args, kwargs, result) -> int:
    n = args[0].n
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
    if n <= 1:
        return 0
    return (1 << n) - 1 if mode == "exact" else kwargs["samples"]


TARGETS = (
    Target("toursid.cli", "main", "cli"),
    Target("toursid.properties", "check_anti_exhaustive", "properties"),
    Target("toursid.properties", "check_anti_on_family", "properties"),
    Target("toursid.properties", "check_strong_anti", "properties"),
    Target("toursid.properties", "sidorenko_scan_exhaustive", "properties"),
    Target("toursid.properties", "impartiality_report", "properties"),
    Target("toursid.properties", "sampled_density", "properties",
           work=lambda a, k, r: a[2] if len(a) > 2 else k["samples"]),
    Target("toursid.properties", "quasirandom_epsilon", "properties", work=_quasi_subsets),
    Target("toursid.properties", "two_block_tournament", "properties",
           work=lambda a, k, r: r.n * (r.n - 1) // 2),
    Target("toursid.counting", "count_homomorphisms", "counting", HOT),
    Target("toursid.counting", "count_labeled", "counting", HOT),
    Target("toursid.counting", "count_labeled_pinned", "counting", HOT),
    Target("toursid.counting", "density", "counting", HOT),
    Target("toursid.hosts", "all_tournaments", "hosts", GEN, work=lambda a, k, r: 1),
    Target("toursid.hosts", "tournament_representatives", "hosts", work=_len_result),
    Target("toursid.digraph", "Tournament.from_code", "digraph", HOT),
    Target("toursid.digraph", "are_isomorphic", "digraph", HOT,
           work=lambda a, k, r: r is not None),
    Target("toursid.digraph", "fill_to_tournament", "digraph"),
    Target("toursid.rng", "blend", "rng", HOT),
    Target("toursid.rng", "coin", "rng", HOT),
    Target("toursid.rng", "below", "rng", HOT),
    Target("toursid.formats", "dgf_loads", "formats"),
    Target("toursid.formats", "trn_loads", "formats"),
    Target("toursid.formats", "dgf_dumps", "formats", work=_len_result),
    Target("toursid.formats", "trn_dumps", "formats", work=_len_result),
    # report serialisation belongs to the formats layer
    Target("toursid.properties", "PropertyReport.to_json", "formats", work=_len_result),
)

# kernels with their own busy-time metric, left out of properties.self_s
PROPERTY_KERNELS = ("properties.sampled_density", "properties.quasirandom_epsilon",
                    "properties.two_block_tournament")
COUNTING_KERNELS = ("counting.count_homomorphisms", "counting.count_labeled",
                    "counting.count_labeled_pinned", "counting.density")


class _Node:
    __slots__ = ("id", "parent", "name", "start", "end", "calls", "busy", "work", "hot")

    def __init__(self, nid: int, parent: int, name: str):
        self.id, self.parent, self.name = nid, parent, name
        self.start = self.end = 0.0
        self.calls = 0
        self.busy = 0.0
        self.work = 0
        self.hot: dict[str, "_Node"] = {}


class Recorder:
    """Span recorder for one operation process."""

    def __init__(self, op: str):
        self.op = op
        root = _Node(0, -1, "process")
        self.nodes = [root]
        self.stack = [root]

    def _child(self, name: str, aggregate: bool) -> "_Node":
        parent = self.stack[-1]
        if aggregate:
            node = parent.hot.get(name)
            if node is not None:
                return node
        node = _Node(len(self.nodes), parent.id, name)
        self.nodes.append(node)
        if aggregate:
            parent.hot[name] = node
        return node

    def _call(self, target: Target, fn, args, kwargs):
        node = self._child(target.name, target.kind != SPAN)
        self.stack.append(node)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            if not node.calls:
                node.start = t0
            node.end = t1
            node.calls += 1
            node.busy += t1 - t0
        if target.work is not None:
            node.work += target.work(args, kwargs, result)
        return result

    def wrap(self, target: Target, fn):
        if target.kind == GEN:
            recorder = self

            class TimedGenerator:
                def __init__(self, gen):
                    self.gen = gen

                def __iter__(self):
                    return self

                def __next__(self):
                    return recorder._call(target, next, (self.gen,), {})

            @functools.wraps(fn)
            def start_generator(*args, **kwargs):
                return TimedGenerator(fn(*args, **kwargs))

            return start_generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(target, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at every `toursid` module attribute naming it."""
        for target in TARGETS:
            importlib.import_module(target.module)
        modules = [m for k, m in sys.modules.items() if k == "toursid" or k.startswith("toursid.")]
        for target in TARGETS:
            owner = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    bound_fn = self.wrap(target, raw.__func__)
                    setattr(cls, meth, classmethod(bound_fn))
                else:
                    setattr(cls, meth, self.wrap(target, raw))
                continue
            orig = getattr(owner, target.attr)
            wrapped = self.wrap(target, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        records = [
            [n.id, n.parent, n.name, self.op, n.start, n.end, n.calls, n.busy, n.work]
            for n in self.nodes[1:]
            if n.calls
        ]
        with open(path, "w") as fh:
            json.dump(records, fh)


# -- analysis (runs in run.py) ----------------------------------------------


def ratios(sums: dict[str, float]) -> dict[str, float]:
    """The ratio metrics, from `layer_metrics` summed over operations."""

    def div(a, b, scale=1.0):
        return scale * sums[a] / sums[b] if sums[b] else 0.0

    return {
        "counting.us_per_call": div("counting.busy_s", "counting.calls", 1e6),
        "digraph.are_isomorphic.hit_ratio": div(
            "digraph.are_isomorphic.hits", "digraph.are_isomorphic.calls"
        ),
    }


def layer_metrics(records: list) -> dict[str, float]:
    """Additive per-layer quantities of one traced operation process.

    busy time counts a call only when no caller of the same function (or, for
    a whole layer, of the same layer) is already running, so recursion and
    nested calls are not counted twice. Self time is a span's busy time minus
    that of its direct child spans.
    """
    by_id = {r[0]: r for r in records}
    child_busy: dict[int, float] = {}
    for r in records:
        child_busy[r[1]] = child_busy.get(r[1], 0.0) + r[7]

    def ancestors(r):
        p = by_id.get(r[1])
        while p is not None:
            yield p[2]
            p = by_id.get(p[1])

    def layer(name):
        return name.split(".", 1)[0]

    outer_fn = [r for r in records if r[2] not in set(ancestors(r))]
    outer_layer = [
        r for r in records if layer(r[2]) not in {layer(a) for a in ancestors(r)}
    ]

    def fn_sum(name, field):
        return sum(r[field] for r in outer_fn if r[2] == name)

    def layer_sum(lay, field, names=None):
        return sum(
            r[field]
            for r in outer_layer
            if layer(r[2]) == lay and (names is None or r[2] in names)
        )

    def self_time(lay):
        return sum(
            r[7] - child_busy.get(r[0], 0.0)
            for r in records
            if layer(r[2]) == lay and r[2] not in PROPERTY_KERNELS
        )

    return {
        "cli.self_s": self_time("cli"),
        "properties.self_s": self_time("properties"),
        "properties.sampled_density.samples": fn_sum("properties.sampled_density", 8),
        "properties.sampled_density.busy_s": fn_sum("properties.sampled_density", 7),
        "properties.quasirandom_epsilon.subsets": fn_sum("properties.quasirandom_epsilon", 8),
        "properties.quasirandom_epsilon.busy_s": fn_sum("properties.quasirandom_epsilon", 7),
        "properties.two_block_tournament.pairs": fn_sum("properties.two_block_tournament", 8),
        "properties.two_block_tournament.busy_s": fn_sum("properties.two_block_tournament", 7),
        "counting.calls": layer_sum("counting", 6, COUNTING_KERNELS),
        "counting.busy_s": layer_sum("counting", 7, COUNTING_KERNELS),
        "hosts.enumerated": fn_sum("hosts.all_tournaments", 8),
        "hosts.all_tournaments.busy_s": fn_sum("hosts.all_tournaments", 7),
        "hosts.tournament_representatives.calls": fn_sum("hosts.tournament_representatives", 6),
        "hosts.tournament_representatives.busy_s": fn_sum("hosts.tournament_representatives", 7),
        "hosts.classes": fn_sum("hosts.tournament_representatives", 8),
        "digraph.from_code.calls": fn_sum("digraph.from_code", 6),
        "digraph.from_code.busy_s": fn_sum("digraph.from_code", 7),
        "digraph.are_isomorphic.calls": fn_sum("digraph.are_isomorphic", 6),
        "digraph.are_isomorphic.busy_s": fn_sum("digraph.are_isomorphic", 7),
        "digraph.are_isomorphic.hits": fn_sum("digraph.are_isomorphic", 8),
        "digraph.fill_to_tournament.busy_s": fn_sum("digraph.fill_to_tournament", 7),
        "rng.calls": layer_sum("rng", 6),
        "rng.busy_s": layer_sum("rng", 7),
        "formats.busy_s": layer_sum("formats", 7),
        "formats.bytes_out": layer_sum("formats", 8),
    }
