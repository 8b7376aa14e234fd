"""Text wire formats.

DGF/1 (digraph): line 1 is "n m", then m lines "u v" meaning u->v, 0-indexed,
edges sorted lexicographically. Lines starting with "#" are comments and are
skipped by the parser; the writer may emit a provenance header comment.

TRN/1 (tournament): line 1 is "n", line 2 is a string of n(n-1)/2 characters
over {0,1}; the p-th character corresponds to the p-th pair (i,j) with i<j in
lexicographic order, "1" meaning i->j: the pair code (`Tournament.code`,
whose pair order `digraph` defines) in binary, lowest bit first.

BCV/1 (biclique cover): line 1 is "n k", then k lines "|A| <members> | |B|
<members>"; `covers` reads and writes it.

`read_document` is the one place that holds the line grammar of all three;
each reader states only its body rules on top of it. All three are bit-exact
contracts: serialize(parse(s)) reproduces the payload lines byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .digraph import Digraph, Tournament, pair_count

VERTEX_LIMIT = 1 << 20
# more digits than any vertex or line count has; int() refuses past 4300 digits
FIELD_DIGITS = 18


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


def quote(text: str) -> str:
    """repr(text), or its length and a 40-character prefix when it is longer."""
    return repr(text) if len(text) <= 40 else f"{len(text)} characters, {text[:40]!r}..."


def uint_fields(text: str, count: int = 0) -> list[int] | None:
    """The whitespace-separated fields of text as integers: `count` of them,
    or any positive number when count is 0. None unless each field is at most
    FIELD_DIGITS ASCII digits (str.isdigit alone also takes '²')."""
    fields = text.split()
    if not fields or count and len(fields) != count:
        return None
    if not all(f.isascii() and f.isdigit() and len(f) <= FIELD_DIGITS for f in fields):
        return None
    return [int(f) for f in fields]


def _payload_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def read_document(
    text: str, name: str, head: str, noun: str | None = None
) -> tuple[int, list[int], list[tuple[int, str]]]:
    """The header line number, header fields and numbered body lines of a
    `name` document, blank and "#" lines skipped. The header is the vertex
    count n, at most VERTEX_LIMIT before anything is allocated, then the count
    of body lines where the format declares them as `noun`; `head` names it.
    Errors cite their line and quote long text by a prefix (`quote`)."""
    lines = _payload_lines(text)
    if not lines:
        raise FormatError(1, f"empty {name} document")
    (line_no, header), body = lines[0], lines[1:]
    fields = uint_fields(header, 2 if noun else 1)
    if fields is None:
        raise FormatError(line_no, f"expected {head}, got {quote(header)}")
    if fields[0] > VERTEX_LIMIT:
        raise FormatError(line_no, f"vertex count {fields[0]} is above the bound {VERTEX_LIMIT}")
    if noun and fields[1] != len(body):
        raise FormatError(line_no, f"declared {fields[1]} {noun}, found {len(body)}")
    return line_no, fields, body


def cite(line_no: int, make, *args):
    """make(*args), with a ValueError it raises cited at line_no."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(line_no, str(exc)) from exc


def dgf_dumps(d: Digraph, header: str | None = None) -> str:
    lines = []
    if header:
        for piece in header.splitlines():
            lines.append(f"# {piece}")
    lines.append(f"{d.n} {d.edge_count}")
    lines.extend(f"{u} {v}" for u, v in d.edges())
    return "\n".join(lines) + "\n"


def dgf_loads(text: str) -> Digraph:
    line_no, (n, _), body = read_document(text, "DGF/1", "'n m'", "edges")
    edges = []
    for edge_no, line in body:
        edge = uint_fields(line, 2)
        if edge is None:
            raise FormatError(edge_no, f"expected 'u v', got {quote(line)}")
        edges.append(edge)
    return cite(line_no, Digraph, n, edges)


def trn_dumps(t: Tournament) -> str:
    # no pairs, no characters: format(0, "00b") would give "0"
    word = format(t.code(), f"0{pair_count(t.n)}b")[::-1] if t.n > 1 else ""
    return f"{t.n}\n{word}\n"


def trn_loads(text: str) -> Tournament:
    line_no, (n,), body = read_document(text, "TRN/1", "vertex count")
    p = pair_count(n)
    if len(body) > (p > 0):
        raise FormatError(body[p > 0][0], f"unexpected content after {'word' if p else 'header'}")
    if not p:
        return Tournament.from_code(n, 0)
    if not body:
        raise FormatError(line_no, "missing orientation word")
    word_no, word = body[0]
    if len(word) != p or set(word) - {"0", "1"}:
        raise FormatError(word_no, f"expected {p} characters over {{0,1}}, got {quote(word)}")
    return Tournament.from_code(n, int(word[::-1], 2))


def host_loads(text: str) -> Tournament:
    """The host in a TRN/1 document (first line one integer), or else in DGF/1."""
    lines = _payload_lines(text)
    if lines and lines[0][1].isascii() and lines[0][1].isdigit():
        return trn_loads(text)
    return Tournament.from_rows(dgf_loads(text).out_rows())
