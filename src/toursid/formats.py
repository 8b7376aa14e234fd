"""Text wire formats.

DGF/1 (digraph): line 1 is "n m", then m lines "u v" meaning u->v, 0-indexed,
edges sorted lexicographically. Lines starting with "#" are comments and are
skipped by the parser; the writer may emit a provenance header comment.

TRN/1 (tournament): line 1 is "n", line 2 is a string of n(n-1)/2 characters
over {0,1}; the p-th character corresponds to the p-th pair (i,j) with i<j in
lexicographic order, "1" meaning i->j: the pair code (`Tournament.code`,
whose pair order `digraph` defines) in binary, lowest bit first.

Both are bit-exact contracts: serialize(parse(s)) reproduces the payload lines
byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .digraph import Digraph, Tournament, pair_count


class FormatError(ValueError):
    """A parse failure; the message cites the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def json_dumps(doc) -> str:
    """Canonical JSON, the encoding of every report and CLI document: equal
    documents give equal bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _frac(x: Fraction) -> dict:
    """The JSON encoding of an exact rational: {"num": ..., "den": ...} strings."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _unfrac(d: dict) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def _is_uint(text: str) -> bool:
    """A nonnegative integer in ASCII digits (str.isdigit also takes '²')."""
    return text.isascii() and text.isdigit()


def _payload_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((i, line))
    return out


def dgf_dumps(d: Digraph, header: str | None = None) -> str:
    lines = []
    if header:
        for piece in header.splitlines():
            lines.append(f"# {piece}")
    lines.append(f"{d.n} {d.edge_count}")
    lines.extend(f"{u} {v}" for u, v in d.edges())
    return "\n".join(lines) + "\n"


def dgf_loads(text: str) -> Digraph:
    lines = _payload_lines(text)
    if not lines:
        raise FormatError(1, "empty DGF/1 document")
    line_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or not all(map(_is_uint, parts)):
        raise FormatError(line_no, f"expected 'n m', got {head!r}")
    n, m = int(parts[0]), int(parts[1])
    if len(lines) - 1 != m:
        raise FormatError(line_no, f"declared {m} edges, found {len(lines) - 1}")
    edges = []
    for line_no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2 or not all(map(_is_uint, parts)):
            raise FormatError(line_no, f"expected 'u v', got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    try:
        return Digraph(n, edges)
    except ValueError as exc:
        raise FormatError(lines[0][0], str(exc)) from exc


def trn_dumps(t: Tournament) -> str:
    # no pairs, no characters: format(0, "00b") would give "0"
    word = format(t.code(), f"0{pair_count(t.n)}b")[::-1] if t.n > 1 else ""
    return f"{t.n}\n{word}\n"


def trn_loads(text: str) -> Tournament:
    lines = _payload_lines(text)
    if not lines:
        raise FormatError(1, "empty TRN/1 document")
    line_no, head = lines[0]
    if not _is_uint(head):
        raise FormatError(line_no, f"expected vertex count, got {head!r}")
    n = int(head)
    p = pair_count(n)
    if p == 0:
        if len(lines) > 1:
            raise FormatError(lines[1][0], "unexpected content after header")
        return Tournament.from_code(n, 0)
    if len(lines) < 2:
        raise FormatError(line_no, "missing orientation word")
    word_no, word = lines[1]
    if len(lines) > 2:
        raise FormatError(lines[2][0], "unexpected content after word")
    if len(word) != p or set(word) - {"0", "1"}:
        got = repr(word) if len(word) <= 40 else f"{len(word)} characters, {word[:40]!r}..."
        raise FormatError(word_no, f"expected {p} characters over {{0,1}}, got {got}")
    return Tournament.from_code(n, int(word[::-1], 2))
