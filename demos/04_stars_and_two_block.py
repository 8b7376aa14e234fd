"""Oriented stars: a complete classification, and the planted host family
that separates the middle cases.

A star is over-represented exactly when one side is empty (it maps onto an
edge) and under-represented exactly when its center is nearly balanced.
Everything else is neither, witnessed by a two-block host: the first cn
vertices beat the rest, all other pairs are coin flips. The expected density
there is 2^(-s) f(c) for an explicit polynomial f with f(0) = f(1) = 1, and
f'(0) > 0 exposes the violation.
"""

from fractions import Fraction

from toursid import check_strong_anti, sampled_density, two_block_tournament
from toursid.counting import PinnedPattern
from toursid.constructions import star
from toursid.experiments import classify_star, star_expected_density, star_two_block_profile
from toursid.rng import blend

print("== classification table ==")
for d_out, d_in in [(3, 0), (0, 3), (1, 1), (2, 2), (2, 3), (1, 3), (3, 1), (1, 0)]:
    print(f"  star({d_out},{d_in}): {classify_star(d_out, d_in).label}")

print()
print("== pinned certification: the balanced star, center anchored anywhere ==")
report = check_strong_anti(PinnedPattern(star(1, 1), (0,)), 5)
print(f"  every host to n=5, every anchor: {report.verdict}")

print()
print("== the block profile polynomial for the (1,3) star ==")
for c in (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
    f = star_two_block_profile(c, 1, 3)
    print(f"  f({c}) = {f} (~{float(f):.4f})")
print("  f exceeds 1 just after c=0, so the planted family beats the baseline")

print()
print("== sampled violation at n=120, c=1/10 ==")
host = two_block_tournament(120, Fraction(1, 10), seed=7)
est = sampled_density(star(1, 3), host, 100_000, blend(7, 120, 100_000))
bound = 1 / 16
print(f"  estimate {float(est.estimate):.5f} +- {est.stderr:.5f}, baseline {bound:.5f}")
print(f"  margin: {(float(est.estimate) - bound) / est.stderr:.1f} standard errors above")
print(f"  model prediction 2^-4 f(1/10) = {float(star_expected_density(Fraction(1,10),1,3)):.5f}")
