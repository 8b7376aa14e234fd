"""The yardstick: a fixed pure-Python workload whose run time measures how fast
the host runs Python right now.

    python3 perfbench/yardstick.py

The benchmark's host is a share of a machine whose speed drifts by 20-40% over
tens of seconds to minutes as other tenants load it. `run.py` spawns this
program between operations and scales the operations' times by its times, so
a run reports what the operations would take at the yardstick's nominal
speed. The workload imitates toursid's counting: it walks a seventh of the
tournaments on six vertices and counts their directed triangles with set
lookups. It imports nothing from toursid, and it must never change, or
figures from before and after the change stop being comparable.
"""

import itertools

REPS = 12
EXPECTED = 842760  # the count printed for REPS repetitions


def count() -> int:
    n = 6
    pairs = list(itertools.combinations(range(n), 2))
    total = 0
    for _ in range(REPS):
        for code in range(0, 1 << len(pairs), 7):
            out = {v: set() for v in range(n)}
            for bit, (u, v) in enumerate(pairs):
                if code >> bit & 1:
                    out[u].add(v)
                else:
                    out[v].add(u)
            for a in range(n):
                for b in out[a]:
                    for c in out[b]:
                        if a in out[c]:
                            total += 1
    return total


if __name__ == "__main__":
    print(count())
