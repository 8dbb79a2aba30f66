"""Independent oracles that tests compare package code against.

Parking predicates, checked against `enumerate_standard` and
`count_standard`: Dhar's burning algorithm for graphs and a sorted
comparison for sequences, with the brute-force count of the latter over
its box. The Steck polynomials are closed forms of `steck_count` on
arithmetic progressions and flat sequences.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from operator import lt
from typing import Iterable

from parkdet.formulas import FormulaDomainError, _check_lambda
from parkdet.multigraph import Multigraph


def is_lambda_parking(p: Iterable[int], lam: tuple[int, ...]) -> bool:
    """Sorted rearrangement of p must stay strictly below the reversed
    bound sequence."""
    p = tuple(p)
    lam = _check_lambda(lam)
    if len(p) != len(lam):
        raise ValueError(f"vector length {len(p)} != sequence length {len(lam)}")
    return _sorted_below(p, lam[::-1])


def _sorted_below(p: Iterable[int], reversed_lam: tuple[int, ...]) -> bool:
    return all(map(lt, sorted(p), reversed_lam))


def count_lambda_parking(lam: tuple[int, ...]) -> int:
    """Brute force over the full box [0, lam[0])^n."""
    lam = _check_lambda(lam)
    if not lam:
        return 1
    reversed_lam = lam[::-1]
    return sum(_sorted_below(p, reversed_lam) for p in product(range(lam[0]), repeat=len(lam)))


def is_g_parking(g: Multigraph, p: Iterable[int]) -> bool:
    """Dhar's burning algorithm (Dhar, PRL 64, 1990): the fire starts at
    the root, and vertex i burns once p_i is below its number of edges to
    burnt vertices; p is G-parking iff every vertex burns.

    This is the subset definition (every nonempty A among the non-root
    vertices holds an i with p_i below its number of edges leaving A):
    if the fire stops, the unburnt set violates it, and otherwise the
    first vertex of any A to burn satisfies it, since every vertex burnt
    before it lies outside A. O(n^2) per vector."""
    p = tuple(p)
    if len(p) != g.n:
        raise ValueError(f"vector length {len(p)} != {g.n}")
    heat = list(g.adj[0])  # edges from each vertex to the burnt ones
    unburnt = set(range(1, g.n + 1))
    while unburnt:
        burning = [i for i in unburnt if p[i - 1] < heat[i]]
        if not burning:
            return False
        unburnt.difference_update(burning)
        for v in burning:
            row = g.adj[v]
            for i in unburnt:
                heat[i] += row[i]
    return True


def steck_poly_progression(n: int, b: int, x: int) -> Fraction:
    """Steck determinant of the arithmetic progression
    (x+(n-1)b, ..., x+b, x): x(x+nb)^(n-1) / n!."""
    if n < 1:
        raise FormulaDomainError("n must be >= 1")
    return Fraction(x * (x + n * b) ** (n - 1), factorial(n))


def steck_poly_flat(n: int, b: int, x: int) -> Fraction:
    """Steck determinant of (x+b, x, ..., x): x^(n-1)(x+nb) / n!."""
    if n < 1:
        raise FormulaDomainError("n must be >= 1")
    return Fraction(x ** (n - 1) * (x + n * b), factorial(n))
