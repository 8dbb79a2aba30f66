"""Independent oracles that tests compare package code against.

Parking predicates, checked against `enumerate_standard` and
`count_standard`: Dhar's burning algorithm for graphs and a sorted
comparison for sequences, with the brute-force count of the latter over
its box. Skeleton ideals from every candidate subset or pair, with each
m_A computed afresh, checked against `skeleton_ideal`, `parking_ideal`
and `matrix_skeleton_ideal`, which leave out the subsets and pairs that
cannot give a minimal generator; the m_A of every connected subset,
checked against the list `skeleton_ideal` grows. The Steck
polynomials are closed forms of `steck_count` on arithmetic progressions
and flat sequences.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import lt
from typing import Iterable

from parkdet.exact_linalg import IntMatrix
from parkdet.formulas import FormulaDomainError, _check_lambda
from parkdet.monomial_ideals import MonomialIdeal
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


def boundary_monomial(g: Multigraph, a: tuple[int, ...]) -> tuple[int, ...]:
    """m_A: x_i, for i in A, raised to the number of edges from i to
    vertices outside A."""
    return tuple(sum(g.adj[i][j] for j in range(g.n + 1) if j not in a) if i in a else 0
                 for i in range(1, g.n + 1))


def skeleton_ideal_all_subsets(g: Multigraph, k: int) -> MonomialIdeal:
    """m_A for every nonempty set A of at most k+1 non-root vertices."""
    vertices = range(1, g.n + 1)
    gens = [boundary_monomial(g, a) for size in range(1, k + 2) for a in combinations(vertices, size)]
    return MonomialIdeal(g.n, tuple(gens))


def connected_sets(g: Multigraph, k: int) -> list[tuple[int, ...]]:
    """Every set A of at most k+1 non-root vertices that induces a
    connected subgraph of G - root."""
    def connected(a: tuple[int, ...]) -> bool:
        seen, todo = {a[0]}, [a[0]]
        while todo:
            i = todo.pop()
            for j in a:
                if j not in seen and g.adj[i][j]:
                    seen.add(j)
                    todo.append(j)
        return len(seen) == len(a)

    return [a for size in range(1, k + 2) for a in combinations(range(1, g.n + 1), size) if connected(a)]


def connected_boundary_monomials(g: Multigraph, k: int) -> list[tuple[int, ...]]:
    """m_A, sorted, for every connected set A of at most k+1 non-root
    vertices, one entry per set."""
    return sorted(boundary_monomial(g, a) for a in connected_sets(g, k))


def matrix_skeleton_ideal_all_pairs(h: IntMatrix) -> MonomialIdeal:
    """Pure powers x_l^h_ll and x_i^(h_ii - h_ij) x_j^(h_jj - h_ij) for
    every pair i < j, h_ij = 0 included."""
    n = h.order
    gens = [tuple(h[l][l] if m == l else 0 for m in range(n)) for l in range(n)]
    gens += [tuple(h[i][i] - h[i][j] if m == i else h[j][j] - h[i][j] if m == j else 0 for m in range(n))
             for i, j in combinations(range(n), 2)]
    return MonomialIdeal(n, tuple(gens))


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
