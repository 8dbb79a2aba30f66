"""The machine's pace: how fast it runs Python right now.

On a shared virtual machine a busy co-tenant slows the same verdict by
up to 1.8 times (measured on 2 vCPUs), in stretches from a fraction of a
second to minutes, so a whole 30-second run can fall inside one. No
statistic over the samples of one run filters that out. The benchmark
therefore times `reference()` right before and right after every verdict
and every set-up, and scales the measured time by REF_S over the mean of
the two reference times (`at_pace`): the result is the time the verdict
takes when the machine runs at reference pace, the pace at which
`reference()` takes REF_S seconds.

`reference()` does the kinds of work the verdicts do: it sorts and
walks tuples of small exponents, counts through dicts and generator
expressions, recurses, and does fraction-free elimination on big
integers. It calls no parkdet code, so that a change to parkdet leaves
it, and with it the scale, as it is.
"""

from __future__ import annotations

import random
import time

# About the fastest time of reference() on the 2-vCPU machine the
# benchmark was tuned on. Any fixed value gives the same comparisons.
REF_S = 0.005

_rng = random.Random(5)
_GENS = [tuple(_rng.randrange(4) for _ in range(6)) for _ in range(40)]
_TUPLES = [tuple((i * 7 + j * 3) % 5 for j in range(7)) for i in range(200)]
_MATRIX = [[_rng.randrange(-50, 50) for _ in range(22)] for _ in range(22)]


def _walk(active, depth, n, box):
    """Points of the box [0, box)^n outside the ideal the tuples generate."""
    if depth == n - 1:
        cap = box
        for g in active:
            if g[depth] < cap:
                cap = g[depth]
        return cap
    total, idx, current = 0, 0, []
    order = sorted(active, key=lambda g: g[depth])
    for p in range(box):
        while idx < len(order) and order[idx][depth] <= p:
            g = order[idx]
            idx += 1
            if all(e == 0 for e in g[depth + 1:]):
                return total
            current.append(g)
        total += _walk(current, depth + 1, n, box)
    return total


def _tally():
    order = sorted(_TUPLES)
    count = 0
    for p in range(5):
        active = [g for g in order if g[0] <= p]
        count += sum(1 for g in active if all(e == 0 for e in g[2:]))
        seen: dict[tuple, int] = {}
        for g in active:
            seen[g[1:4]] = seen.get(g[1:4], 0) + 1
        count += len(seen)
    return count


def _eliminate():
    a = [row[:] for row in _MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    return a[-1][-1]


def reference() -> float:
    """Seconds one fixed computation takes now."""
    started = time.perf_counter()
    _walk(_GENS, 0, 6, 4)
    _tally()
    _eliminate()
    return time.perf_counter() - started


def at_pace(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between reference times `before` and `after`,
    scaled to reference pace."""
    return seconds * REF_S * 2 / (before + after)
