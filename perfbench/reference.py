"""A fixed pure-Python kernel that measures how fast the processor runs now.

The benchmark runs it in a child process between operations and scales
every timing by ``REFERENCE_S / its time``.  The kernel does what the
program spends its time on (hashing, comparing and sorting small frozen
dataclasses, set and dict traffic, and two-state cost sweeps over a tree
held in lists, as branch and bound does), so a slower processor phase slows
both by about the same factor.  It shares no code with the program, so
a change to the program cannot move it.

    python3 perfbench/reference.py      # prints the kernel's wall time
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

#: Kernel time of the machine the bounds were set on, in a quiet phase.
REFERENCE_S = 0.4


@dataclass(frozen=True, order=True)
class Pair:
    a: int
    b: int


def kernel() -> int:
    rng = random.Random(1)
    items = [Pair(rng.randrange(1000), rng.randrange(1000)) for _ in range(40_000)]
    items.sort()
    counts: dict[Pair, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    total = len(set(items)) + len(counts)
    # two-state cost sweeps over a binary tree held in lists
    n = 63
    order = range(n - 1, -1, -1)
    cost0, cost1 = [0] * n, [0] * n
    for round_ in range(20_000):
        for v in order:
            if 2 * v + 2 >= n:
                cost0[v], cost1[v] = round_ & 1, 1 - (round_ & 1)
                continue
            c0, c1 = 0, 5
            for c in (2 * v + 1, 2 * v + 2):
                b0, b1 = cost0[c], cost1[c]
                c0 += b0 if b0 <= b1 + 3 else b1 + 3
                c1 += b1 if b1 <= b0 + 3 else b0 + 3
            cost0[v], cost1[v] = c0, c1
        total += min(cost0[0], cost1[0])
    return total


if __name__ == "__main__":
    gc.collect()
    started = time.perf_counter()
    kernel()
    print(time.perf_counter() - started)
