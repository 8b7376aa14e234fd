"""The paper's constructions and probes that no CLI command runs: the
classification of oriented stars and their exact two-block profile, the
filled 2-blowup falsifier for dense patterns (e(D) >= v(D) log2 v(D)), the
edge-flip interpolation walk, and the forcing probe that sets the density
deviation of a pattern next to the quasirandom-direction eps of each host.

They are library functions built on `counting` and `properties`, kept apart
so that a CLI process never loads them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .counting import count_homomorphisms, density
from .digraph import Digraph, Tournament, fill_to_tournament, pair_order, vertex_mask
from .properties import QUASI_EXACT_LIMIT, quasirandom_epsilon, sampled_density
from .rng import blend

# hosts with at most this many pattern maps get an exact density in
# `forcing_probe`; larger ones are sampled
FORCING_EXACT_MAPS = 10**8


# -- stars ------------------------------------------------------------------


class StarClassification(NamedTuple):
    sidorenko: bool
    anti_sidorenko: bool

    @property
    def label(self) -> str:
        if self.sidorenko and self.anti_sidorenko:
            return "both"
        if self.sidorenko:
            return "sidorenko"
        if self.anti_sidorenko:
            return "anti-sidorenko"
        return "neither"


def classify_star(d_out: int, d_in: int) -> StarClassification:
    """Classification of oriented stars: over-represented iff one side is
    empty (the star maps onto an edge), under-represented iff the center's
    in- and out-degrees differ by at most one. The single edge carries both
    flags."""
    if d_out < 0 or d_in < 0 or d_out + d_in < 1:
        raise ValueError("star needs at least one leaf")
    return StarClassification(
        sidorenko=min(d_out, d_in) == 0,
        anti_sidorenko=abs(d_out - d_in) <= 1,
    )


def star_two_block_profile(c, d_out: int, d_in: int) -> Fraction:
    """The exact block-profile polynomial
    f(c) = c^(1+d_in) (2-c)^(d_out) + (1-c)^(1+d_out) (1+c)^(d_in),
    normalized so f(0) = f(1) = 1."""
    if d_out < 1 or d_in < 1:
        raise ValueError("profile needs both degrees positive")
    x = Fraction(c)
    return x ** (1 + d_in) * (2 - x) ** d_out + (1 - x) ** (1 + d_out) * (1 + x) ** d_in


def star_expected_density(c, d_out: int, d_in: int) -> Fraction:
    """Large-host expected density of the oriented star in the two-block
    family: 2^(-s) f(c) with s = d_out + d_in, exact in rationals."""
    s = d_out + d_in
    return star_two_block_profile(c, d_out, d_in) / (1 << s)


# -- blowups, interpolation and forcing -------------------------------------


def falsify_by_blowup(d: Digraph) -> Optional[tuple[Tournament, Fraction]]:
    """The filled balanced 2-blowup host that over-represents any pattern
    with e(D) >= v(D) log2 v(D); None when the density premise fails.

    The returned host has 2 v(D) vertices and exact density at least
    v(D)^(-v(D)), which beats 2^(-e(D)) under the premise. Other multipliers
    are the blowup family of `check_anti_on_family`.
    """
    v = d.n
    if v == 0:
        return None
    if (1 << d.edge_count) < v**v:
        return None
    host = fill_to_tournament(d.blowup(2))
    dens = density(d, host)
    if dens < Fraction(1, v**v):
        raise AssertionError("blowup host lost the block embeddings; counting bug")
    return host, dens


class InterpolationResult(NamedTuple):
    tournament: Tournament
    index: int
    h_values: tuple[int, ...]
    deltas: tuple[int, ...]


def interpolate_to_density(
    d: Digraph,
    t_lo: Tournament,
    t_hi: Tournament,
    exclude=0,
    *,
    target: int,
) -> InterpolationResult:
    """Walk from t_lo toward t_hi one pair at a time (lexicographic order,
    pairs meeting `exclude` never touched), tracking the homomorphism count.

    Returns the first intermediate whose count crosses `target` together with
    the full count sequence and per-step deltas. The per-step change obeys
    |delta| <= v(D)^2 n^(v(D)-2); the proof-level bound has no explicit
    constant, the v(D)^2 factor is the testable form used here. Errors when
    the target is not bracketed by the walk endpoints.
    """
    if t_lo.n != t_hi.n:
        raise ValueError("hosts must share a vertex count")
    n = t_lo.n
    excl = vertex_mask(exclude, n, "excluded vertex out of range")
    pairs = [(i, j) for i, j in pair_order(n) if not (excl >> i & 1 or excl >> j & 1)]
    rows = list(t_lo.out_rows())
    h = count_homomorphisms(d, t_lo)
    h_values = [h]
    snapshots = [tuple(rows)]
    for i, j in pairs:
        # flip a pair that t_hi orients the other way; only a flip moves the count
        if rows[i] >> j & 1 != t_hi.has_edge(i, j):
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
            h = count_homomorphisms(d, Tournament.from_rows(rows))
        snapshots.append(tuple(rows))
        h_values.append(h)
    lo, hi = h_values[0], h_values[-1]
    if not (min(lo, hi) <= target <= max(lo, hi)):
        raise ValueError(
            f"target {target} not bracketed by walk endpoints {lo} and {hi}"
        )
    if lo <= hi:
        idx = next(i for i, h in enumerate(h_values) if h >= target)
    else:
        idx = next(i for i, h in enumerate(h_values) if h <= target)
    deltas = tuple(b - a for a, b in zip(h_values, h_values[1:]))
    return InterpolationResult(
        Tournament.from_rows(snapshots[idx]), idx, tuple(h_values), deltas
    )


class ForcingRow(NamedTuple):
    label: str
    n: int
    deviation: Optional[Fraction]
    deviation_approx: float
    epsilon: Optional[Fraction]
    epsilon_approx: float
    sampled: bool


def forcing_probe(
    d: Digraph,
    hosts: Iterable[tuple[str, Tournament]],
    *,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> list[ForcingRow]:
    """For each labeled host, the density deviation |t_D - 2^(-e(D))| next to
    the quasirandom-direction eps; the correct-count/small-eps trend is the
    experiment, nothing is asserted here.

    Hosts too large for exact work fall back to seeded sampling (requires
    samples and seed).
    """
    bound = Fraction(1, 1 << d.edge_count)
    out = []
    for label, host in hosts:
        exact_density = host.n**d.n <= FORCING_EXACT_MAPS
        exact_eps = host.n <= QUASI_EXACT_LIMIT
        sampled = not (exact_density and exact_eps)
        if sampled and (samples is None or seed is None):
            raise ValueError(f"host {label!r} needs samples and seed")
        if exact_density:
            dens: Fraction | float = density(d, host)
            deviation = abs(dens - bound)
            dev_approx = float(deviation)
        else:
            est = sampled_density(d, host, samples, blend(seed, host.n))
            deviation = None
            dev_approx = abs(float(est.estimate) - float(bound))
        if exact_eps:
            eps = quasirandom_epsilon(host)
            eps_approx = float(eps)
        else:
            eps_est = quasirandom_epsilon(
                host, "sampled", samples=max(1, samples // 100), seed=blend(seed, host.n, 1)
            )
            eps = None
            eps_approx = float(eps_est)
        out.append(
            ForcingRow(
                label=label,
                n=host.n,
                deviation=deviation,
                deviation_approx=dev_approx,
                epsilon=eps,
                epsilon_approx=eps_approx,
                sampled=sampled,
            )
        )
    return out
