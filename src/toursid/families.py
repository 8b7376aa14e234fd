"""Family scans: the ratio of a pattern's labeled count to its baseline on
a named family of hosts, counted exactly or estimated by seeded map
sampling. This is the code of `check anti --family`.

The exact rows count each host with the backtracker (`search`); the sampled
rows estimate the homomorphism density by `sampled_density` and call a
violation only at three standard errors past the baseline, decided in
rationals (`SampledDensity.violates`). Each host is built when the scan
reaches it: transitive hosts, filled balanced blowups, or the planted
two-block hosts of `hosts.two_block_tournament`.

numpy is imported by the sampling code when it is first called, and
`_packed_rows`, the hosts' out-rows as uint64 words, serves the sampled
quasirandom scan in `quasi` too. The report path (`properties`) and the
backtracker are imported by `check_anti_on_family` itself, so `quasi` loads
neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .digraph import Digraph, Tournament, fill_to_tournament, transitive_host
from .formats import _frac, dgf_dumps
from .hosts import _block_rows, two_block_tournament
from .rng import blend, blend_array

if TYPE_CHECKING:
    import numpy as np

    from .properties import PropertyReport


class SampledDensity(NamedTuple):
    """Monte-Carlo homomorphism-density estimate over uniform vertex maps."""

    hits: int
    samples: int

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.hits, self.samples)

    @property
    def stderr(self) -> float:
        p = self.hits / self.samples
        return math.sqrt(max(p * (1 - p), 0.0) / self.samples)

    def violates(self, bound: Fraction) -> bool:
        """The estimate p lies more than three standard errors above `bound`,
        decided in rationals: p > bound and (p - bound)^2 samples > 9 p (1 - p)."""
        p = self.estimate
        return p > bound and (p - bound) ** 2 * self.samples > 9 * p * (1 - p)


def sampled_density(d: Digraph, t: Tournament, samples: int, seed: int) -> SampledDensity:
    """Estimate the homomorphism density by seeded uniform map sampling."""
    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    n, k = t.n, d.n
    if n == 0 and k > 0:
        raise ValueError("cannot map a nonempty pattern into an empty host")
    tails, heads = np.array(d.edges(), dtype=np.intp).reshape(-1, 2).T
    adj = _packed_rows(t)
    slots = np.arange(k)
    step = _block_rows(max(k, d.edge_count))  # k slots per map, one gather per edge
    hits = 0
    for start in range(0, samples, step):
        j = np.arange(start, min(start + step, samples))[:, None]
        # phi[j, slot] = below(seed, n, j, slot), one row per sampled map
        phi = (blend_array(seed, j, slots) % np.uint64(n)).astype(np.intp)
        u, v = phi[:, tails], phi[:, heads]
        hit = adj[u, v >> 6] >> (v & 63).astype(np.uint64) & np.uint64(1)
        hits += int(hit.all(axis=1).sum())
    return SampledDensity(hits, samples)


def _packed_rows(t: Digraph) -> np.ndarray:
    """The out-rows of t as an n x ceil(n / 64) uint64 array: bit b of word w
    in row u is the edge u -> 64 w + b."""
    import numpy as np

    words = (t.n + 63) // 64
    buf = b"".join(row.to_bytes(8 * words, "little") for row in t.out_rows())
    return np.frombuffer(buf, dtype="<u8").reshape(t.n, words).astype(np.uint64)


def check_anti_on_family(
    d: Digraph,
    family: str,
    values: Sequence[int],
    *,
    base: Optional[Digraph] = None,
    c=None,
    seed: Optional[int] = None,
    samples: Optional[int] = None,
) -> PropertyReport:
    """Ratio scan over a named host family.

    family "transitive": hosts are the transitive tournaments at each value n.
    family "blowup": hosts are lexicographically filled balanced blowups of
    `base` (default: the pattern itself) at each multiplier value; a given
    base is recorded as DGF/1 in `regime.base`.
    family "two-block": hosts are the planted two-block tournaments at sizes
    `values` with left fraction `c` and the given seed. With `samples` set (any
    family; it needs the seed, recorded in `regime.seed`) the density is
    estimated by seeded map sampling and a violation is called only at three
    standard errors past the baseline, decided in rationals by
    `SampledDensity.violates`.
    """
    from .properties import _report
    from .search import count_labeled

    if not values:
        raise ValueError("family scan needs at least one host value")
    if samples is not None and seed is None:
        raise ValueError("sampled family scan needs a seed")
    regime: dict = {"kind": "family", "family": family, "values": list(values)}
    if samples is not None:
        regime |= {"kind": "sampled-family", "samples": samples, "seed": seed}
    # each host is built when the loop below reaches it, so a scan that
    # fails its budget early has not built the hosts after the failing one
    if family == "transitive":
        hosts = ((n, transitive_host(n)) for n in values)
    elif family == "blowup":
        src = base if base is not None else d
        hosts = ((m, fill_to_tournament(src.blowup(m))) for m in values)
        if base is not None:
            regime["base"] = dgf_dumps(base)
    elif family == "two-block":
        if c is None or seed is None:
            raise ValueError("two-block family needs c and seed")
        hosts = ((n, two_block_tournament(n, c, seed)) for n in values)
        regime |= {"c": str(Fraction(c)), "seed": seed}
    else:
        raise ValueError(f"unknown family {family!r}")

    bound_unit = Fraction(1, 1 << d.edge_count)
    curve = []
    best_ratio = Fraction(0)
    witness = witness_row = None
    for value, host in hosts:
        if samples is None:
            res = count_labeled(d, host)
            ratio = res.ratio
            row = {
                "value": value,
                "n": host.n,
                "count": str(res.value),
                "bound": _frac(res.bound),
                "max_ratio": _frac(ratio),
                "max_ratio_approx": float(ratio),
                "violated": ratio > 1,
            }
        else:
            map_seed = blend(seed, host.n, samples)
            est = sampled_density(d, host, samples, map_seed)
            ratio = est.estimate / bound_unit
            row = {
                "value": value,
                "n": host.n,
                "samples": samples,
                "map_seed": map_seed,
                "hits": est.hits,
                "bound": _frac(bound_unit),
                "estimate": _frac(est.estimate),
                "stderr_approx": est.stderr,
                "max_ratio": _frac(ratio),
                "max_ratio_approx": float(ratio),
                "violated": est.violates(bound_unit),
            }
        curve.append(row)
        if row["violated"] and witness is None:
            witness, witness_row = host, row
        best_ratio = max(best_ratio, ratio)

    violated = any(row["violated"] for row in curve)
    extra = {}
    if witness is not None and samples is not None:
        extra["witness_hits"] = witness_row["hits"]
        extra["witness_map_seed"] = witness_row["map_seed"]
    return _report("anti-sidorenko-family", d, regime, violated, best_ratio, witness, curve, extra)
