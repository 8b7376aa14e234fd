"""Certifying and falsifying systematic under-representation.

A pattern is systematically under-represented when its labeled count never
exceeds 2^(-e) n^v in any n-vertex tournament. Exhaustive scans certify this
up to a host size; structured families (transitive hosts, filled blowups)
hunt for violations beyond exhaustive reach.
"""

from toursid import check_anti_exhaustive, check_anti_on_family
from toursid.constructions import directed_cycle, directed_path, star, transitive_tournament
from toursid.experiments import falsify_by_blowup

print("== exhaustive certification over every host with up to 6 vertices ==")
for pattern in (directed_path(2), directed_cycle(3), star(1, 1)):
    report = check_anti_exhaustive(pattern, 6, dedup=True)
    print(
        f"  {pattern.meta['family']} {pattern.meta['params']}: {report.verdict}, "
        f"extremal ratio ~{float(report.extremal_ratio):.3f}"
    )

print()
print("== the out-star survives exhaustive scans, then falls on transitive hosts ==")
report = check_anti_on_family(star(2, 0), "transitive", range(4, 15))
for row in report.curve:
    flag = "  <-- first violation" if row["violated"] and row["n"] == 12 else ""
    print(f"  n={row['n']:>2}: ratio ~{row['max_ratio_approx']:.3f}{flag}")
print(f"verdict: {report.verdict} (witness: {report.witness_trn.splitlines()[0]}-vertex host)")

print()
print("== dense patterns are over-represented in their own filled blowup ==")
res = falsify_by_blowup(transitive_tournament(7))
host, dens = res
print(f"host on {host.n} vertices; exact density {dens} (~{float(dens):.2e})")
print(f"uniform floor 7^-7 ~ {float(1/7**7):.2e} beats the baseline 2^-21 ~ {float(2**-21):.2e}")

print()
print("== sparse patterns escape the blowup falsifier ==")
print("2-edge path:", falsify_by_blowup(directed_path(2)))

print()
print("== length 0 mod 4 is the open case: scans only report, never presume ==")
report4 = check_anti_exhaustive(directed_cycle(4), 6, dedup=True)
print(f"4-cycle up to n=6: {report4.verdict}, extremal ratio ~{float(report4.extremal_ratio):.3f}")
