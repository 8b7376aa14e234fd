"""Output checks for the benchmark's operations. None of this is timed.

An operation fails when its output does not pass `check_output`:

* a report must parse and re-verify through
  `PropertyReport.from_json(verify=True)` (for sampled reports that re-runs
  the seeded estimate) and re-serialise to the same bytes; the exit code must
  match the verdict (2 for "violated", else 0);
* per-row host counts must be 2^(n(n-1)/2) for raw scans and the number of
  tournament classes (OEIS A000568) for --dedup scans;
* seed-invariant content (verdict, extremal ratio, each curve row's n, hosts
  and ratio) must equal the reference recorded in `reference.json`;
* C5's curve rows for n <= 6 must agree between the raw and the class scan,
  two independent host paths;
* large-host outputs whose content depends on the seed are recomputed here by
  an independent numpy implementation of the seeded hosts, the sampled
  density and the quasirandom epsilon.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# number of n-vertex tournaments up to isomorphism, n = 0..7 (OEIS A000568)
TOURNAMENT_CLASSES = (1, 1, 1, 2, 4, 12, 56, 456)

# operations whose rows n <= 6 must agree across the raw and the class scan
CROSS_CHECKS = {
    ("raw-scan", "anti-C5"): ("class-scan", "anti-C5"),
    ("class-scan", "anti-C5"): ("raw-scan", "anti-C5"),
}
CROSS_MAX_N = 6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _ratio(doc) -> str | None:
    return None if doc is None else f"{doc['num']}/{doc['den']}"


def invariant_content(doc: dict) -> dict:
    """The part of a report that no seed may change."""
    rows = []
    for row in doc["curve"]:
        ratio = row.get("max_ratio", row.get("min_ratio"))
        rows.append([row["n"], row.get("hosts"), _ratio(ratio)])
    return {
        "verdict": doc["verdict"],
        "extremal_ratio": _ratio(doc["extremal_ratio"]),
        "rows": rows,
    }


# -- independent numpy implementations of the seeded large-host inputs --------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(x):
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def np_blend(seed: int, *indices):
    """splitmix64 hash of (seed, *indices), broadcast over index arrays."""
    with np.errstate(over="ignore"):
        h = _mix(np.uint64(seed % (1 << 64)) + _GOLDEN)
        for ix in indices:
            h = _mix(h ^ _mix(np.asarray(ix, dtype=np.uint64) + _GOLDEN))
    return h


def np_two_block(n: int, c: Fraction, seed: int) -> np.ndarray:
    """Adjacency matrix (adj[u, v] = u beats v) of the planted two-block host."""
    boundary = math.floor(c * n)
    iu, ju = np.triu_indices(n, 1)
    coins = (np_blend(seed, iu, ju) & np.uint64(1)).astype(bool)
    forward = ((iu < boundary) & (ju >= boundary)) | coins
    adj = np.zeros((n, n), dtype=bool)
    adj[iu[forward], ju[forward]] = True
    adj[ju[~forward], iu[~forward]] = True
    return adj


def _parse_dgf(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n = int(lines[0][0])
    return n, [(int(u), int(v)) for u, v in lines[1:]]


def _parse_trn(text: str) -> np.ndarray:
    head, word = (text.split() + [""])[:2]
    n = int(head)
    adj = np.zeros((n, n), dtype=bool)
    iu, ju = np.triu_indices(n, 1)
    forward = np.frombuffer(word.encode(), dtype=np.uint8) == ord("1")
    adj[iu[forward], ju[forward]] = True
    adj[ju[~forward], iu[~forward]] = True
    return adj


def _best_split(adj: np.ndarray, members: np.ndarray) -> int:
    """max over the subset rows A of sum_{v not in A} max(0, s_A(v)), where
    s_A(v) counts A's edges into v minus v's edges into A."""
    signed = adj.astype(np.float64) - adj.T.astype(np.float64)
    cur = members.astype(np.float64) @ signed
    cur[members.astype(bool)] = 0
    return int(np.clip(cur, 0, None).sum(axis=1).max())


def exact_epsilon(adj: np.ndarray) -> Fraction:
    n = len(adj)
    best = 0
    shifts = np.arange(n, dtype=np.int64)
    chunk = 1 << 14
    for lo in range(1, 1 << n, chunk):
        ids = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)
        best = max(best, _best_split(adj, (ids[:, None] >> shifts) & 1))
    return Fraction(best, n * n)


def sampled_epsilon(adj: np.ndarray, samples: int, seed: int) -> Fraction:
    n = len(adj)
    words = (n + 63) // 64
    raw = np_blend(seed, np.arange(samples)[:, None], np.arange(words)[None, :])
    members = (raw[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    members = members.reshape(samples, 64 * words)[:, :n]
    return Fraction(_best_split(adj, members), n * n)


def sampled_hits(pattern_text: str, adj: np.ndarray, samples: int, seed: int) -> int:
    k, edges = _parse_dgf(pattern_text)
    draws = np_blend(seed, np.arange(samples)[:, None], np.arange(k)[None, :])
    phi = (draws % np.uint64(len(adj))).astype(np.int64)
    ok = np.ones(samples, dtype=bool)
    for u, v in edges:
        ok &= adj[phi[:, u], phi[:, v]]
    return int(ok.sum())


# -- the checks ----------------------------------------------------------------


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_sampled_family(argv, doc) -> list[str]:
    pattern_text = Path(_arg(argv, "--pattern")).read_text()
    _, edges = _parse_dgf(pattern_text)
    seed, samples = int(_arg(argv, "--seed")), int(_arg(argv, "--samples"))
    c = Fraction(_arg(argv, "--c"))
    bound = Fraction(1, 1 << len(edges))
    sizes = [int(v) for v in _arg(argv, "--n").split(",")]
    if len(doc["curve"]) != len(sizes):
        return ["sampled curve has the wrong number of rows"]
    errors = []
    violated_any = False
    best = Fraction(0)
    for row, n in zip(doc["curve"], sizes):
        map_seed = int(np_blend(seed, n, samples))
        hits = sampled_hits(pattern_text, np_two_block(n, c, seed), samples, map_seed)
        p = hits / samples
        stderr = math.sqrt(max(p * (1 - p), 0.0) / samples)
        violated = float(Fraction(hits, samples)) - 3.0 * stderr > float(bound)
        ratio = Fraction(hits, samples) / bound
        want = (n, samples, map_seed, hits, f"{ratio.numerator}/{ratio.denominator}", violated)
        got = (row["n"], row["samples"], row["map_seed"], row["hits"],
               _ratio(row["max_ratio"]), row["violated"])
        if got != want:
            errors.append(f"sampled row {got} differs from the independent recount {want}")
        violated_any |= violated
        best = max(best, ratio)
    if doc["verdict"] != ("violated" if violated_any else "holds-upto"):
        errors.append(f"verdict {doc['verdict']!r} contradicts the recounted rows")
    if _ratio(doc["extremal_ratio"]) != f"{best.numerator}/{best.denominator}":
        errors.append("extremal ratio differs from the recounted rows")
    return errors


def _check_cycle5_blowup(argv, doc) -> list[str]:
    """Labeled copies of a directed 5-cycle in an oriented graph are exactly
    its closed 5-walks, tr(A^5): a closed walk that repeats a vertex splits
    into two shorter closed walks, and an oriented graph has none of length 1
    or 2."""
    k, edges = _parse_dgf(Path(_arg(argv, "--pattern")).read_text())
    succ = dict(edges)
    if k != 5 or len(succ) != 5 or sorted(succ.values()) != list(range(5)):
        return ["the cycle5-blowup recount needs a directed 5-cycle"]
    lo, hi = (int(v) for v in _arg(argv, "--n").split(".."))
    errors = []
    best = Fraction(0)
    violated_any = False
    for row, m in zip(doc["curve"], range(lo, hi + 1)):
        n = k * m
        adj = np.zeros((n, n), dtype=np.int64)
        for u, v in edges:
            adj[u * m : (u + 1) * m, v * m : (v + 1) * m] = 1
        iu, ju = np.triu_indices(n, 1)
        free = (adj[iu, ju] == 0) & (adj[ju, iu] == 0)
        adj[iu[free], ju[free]] = 1  # the lexicographic fill
        count = int(np.trace(np.linalg.matrix_power(adj, 5)))
        ratio = Fraction(count << len(edges), n**k)
        want = (m, n, str(count), f"{ratio.numerator}/{ratio.denominator}", ratio > 1)
        got = (row["value"], row["n"], row["count"], _ratio(row["max_ratio"]), row["violated"])
        if got != want:
            errors.append(f"blowup row {got} differs from the independent recount {want}")
        best = max(best, ratio)
        violated_any |= ratio > 1
    if len(doc["curve"]) != hi - lo + 1:
        errors.append("blowup curve has the wrong number of rows")
    if doc["verdict"] != ("violated" if violated_any else "holds-upto"):
        errors.append(f"verdict {doc['verdict']!r} contradicts the recounted rows")
    if _ratio(doc["extremal_ratio"]) != f"{best.numerator}/{best.denominator}":
        errors.append("extremal ratio differs from the recounted rows")
    return errors


RECOUNTS = {
    "two-block-sampling": _check_sampled_family,
    "cycle5-blowup": _check_cycle5_blowup,
}


def _check_quasi(argv, code, text) -> list[str]:
    doc = json.loads(text)
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if "--two-block" in argv:
        c, n = argv[argv.index("--two-block") + 1 : argv.index("--two-block") + 3]
        seed = int(_arg(argv, "--seed"))
        adj = np_two_block(int(n), Fraction(c), seed)
        want = sampled_epsilon(adj, int(_arg(argv, "--samples")), seed)
    else:
        adj = _parse_trn(Path(_arg(argv, "--host")).read_text())
        want = exact_epsilon(adj)
    got = Fraction(int(doc["epsilon"]["num"]), int(doc["epsilon"]["den"]))
    errors = []
    if doc["n"] != len(adj):
        errors.append(f"host size {doc['n']} != {len(adj)}")
    if got != want or doc["epsilon_approx"] != float(want):
        errors.append(f"epsilon {got} differs from the independent value {want}")
    return errors


def check_output(workload: str, op, code: int, text: str, reference: dict) -> list[str]:
    """Every reason the output `text` (exit code `code`) of `op` is wrong."""
    if op.kind == "quasi":
        try:
            return _check_quasi(op.argv, code, text)
        except Exception as exc:  # any unreadable output fails the operation
            return [f"unreadable quasi output: {exc!r}"]
    from toursid.properties import PropertyReport

    try:
        report = PropertyReport.from_json(text, verify=True)
        doc = json.loads(text)
    except Exception as exc:  # any failure to load or re-verify fails the operation
        return [f"report failed to parse or re-verify: {exc!r}"]
    errors = []
    if report.to_json() != text:
        errors.append("report does not re-serialise to the same bytes")
    want_code = 2 if doc["verdict"] == "violated" else 0
    if code != want_code:
        errors.append(f"exit code {code} does not match verdict {doc['verdict']!r}")
    if doc["pattern"]["dgf"] != Path(_arg(op.argv, "--pattern")).read_text():
        errors.append("report does not echo its input pattern")
    for row in doc["curve"]:
        n = row["n"]
        if op.hosts == "raw" and row["hosts"] != 1 << (n * (n - 1) // 2):
            errors.append(f"n={n}: {row['hosts']} raw hosts")
        if op.hosts == "classes" and row["hosts"] != TOURNAMENT_CLASSES[n]:
            errors.append(f"n={n}: {row['hosts']} tournament classes")
    content = invariant_content(doc)
    if op.invariant:
        want = reference.get(workload, {}).get(op.name)
        if content != want:
            errors.append(f"seed-invariant content {content} differs from the reference {want}")
    other = CROSS_CHECKS.get((workload, op.name))
    if other is not None:
        theirs = reference[other[0]][other[1]]["rows"]
        pick = lambda rows: [(r[0], r[2]) for r in rows if r[0] <= CROSS_MAX_N]
        if pick(content["rows"]) != pick(theirs):
            errors.append(f"rows n <= {CROSS_MAX_N} disagree with {other[0]} {other[1]}")
    if op.recount is not None:
        errors.extend(RECOUNTS[op.recount](op.argv, doc))
    return errors
