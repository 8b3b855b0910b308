"""A fixed pure-Python program that measures how fast the machine is right now.

Usage: python3 perfbench/reference.py

run.py runs it as a cold subprocess next to every timed command and divides
the command's wall time by this program's.  It does the same kinds of work as
the library -- frozenset order tests, dict lookups, big-integer sums, sorting
and JSON -- but shares no code with it, so a change to the library never
changes it.  Do not change it either: every normalised time of the benchmark
is measured in units of this program's run time.

Prints one JSON object whose digest run.py checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json

ROUNDS = 50


def one_round() -> dict:
    # the Mobius function of the Boolean lattice on 8 points, by recursion
    points = 8
    subsets = [frozenset(c) for r in range(points + 1) for c in itertools.combinations(range(points), r)]
    mu: dict[frozenset, int] = {}
    for s in subsets:
        mu[s] = 1 if not s else -sum(mu[t] for t in subsets if t < s)
    # Stirling numbers of the second kind S(60, k), big integers
    row = [1]
    for i in range(1, 61):
        new = [0] * (i + 1)
        for k in range(1, i + 1):
            new[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
        row = new
    # tuples, sorting and dict counting
    pairs = sorted((a * 7919 % 1009, b) for a in range(200) for b in range(50))
    counts: dict[tuple[int, int], int] = {}
    for a, b in pairs:
        counts[a, b % 5] = counts.get((a, b % 5), 0) + 1
    return {"mu": [mu[s] for s in subsets], "stirling": [str(x) for x in row], "counts": len(counts)}


def main() -> None:
    docs = [one_round() for _ in range(ROUNDS)]
    text = json.dumps(docs[-1], sort_keys=True)
    same = all(d == docs[-1] for d in docs)
    print(json.dumps({"rounds": len(docs), "same": same, "sha256": hashlib.sha256(text.encode()).hexdigest()}))


if __name__ == "__main__":
    main()
