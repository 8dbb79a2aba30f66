"""Counting and enumerating standard monomials of Artinian quotients.

A monomial ideal is Artinian here when every variable carries a pure
power generator. The counter memoizes counts within a call, keyed by the
sorted generators, which are the ideal itself, so the memo is sound, and
it splits the quotient into slices by the exponent p of the first
variable, as the generators give it (the divide-and-conquer step of the
Hilbert-series algorithms of Bayer-Stillman and Bigatti): the slice at p
is the ideal, in the other variables, of the generators with g[0] <= p.
It is constant between consecutive values of g[0], so each run of equal
slices is counted once; from x_1's pure power on, the slice is the unit
ideal, and it is never built. The slices are counted recursively down to
one closed form, taken when at most two generators are not pure powers
(the corners): the box of the pure powers with those corners cut out.
A two-variable slice with more corners is sliced like any other, down
to one-variable boxes. Each slice comes from the previous one by
dropping what the new generators divide, which keeps it minimally
generated without a minimalization pass. A slice is kept sorted, so the
multiples of a new generator lie in the suffix that starts where it
would be inserted, and only that suffix is tested, on the new
generator's nonzero exponents alone: a zero exponent needs no test.

Two routes here are independent of the counter and check it: an
inclusion-exclusion count over generator subsets, and the enumerator,
which walks the box of pure-power exponents point by point. The
inclusion-exclusion count sums its subsets by lcm class: a subset's term
depends only on its size and its lcm, so grouping equal terms reorders
the same sum, and the route stays independent of the counter. The
parking predicates, Dhar's burning algorithm for graphs and a sorted
comparison for sequences, are the tests' oracles and live with them.

Dimensions are monomial counts, so they are field independent; all
results are Python ints (arbitrary precision).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from math import prod
from operator import itemgetter, le, lt, sub

from .monomial_ideals import Monomial, MonomialIdeal

ENUMERATION_GUARD = 10**6
IE_GENERATOR_GUARD = 22


class NonArtinianError(ValueError):
    """Quotient is infinite dimensional; names the unbounded variable."""


def artinian_bounds(ideal: MonomialIdeal) -> tuple[int, ...]:
    """Pure-power exponent per variable (the box), all zero for the unit
    ideal; raises NonArtinianError naming the first variable without a
    pure power generator."""
    bounds = [0] * ideal.nvars
    if ideal.is_unit:
        return tuple(bounds)
    for g in ideal.gens:
        if g.count(0) == ideal.nvars - 1:  # exactly one nonzero exponent
            b = max(g)
            bounds[g.index(b)] = b
    if 0 in bounds:
        raise NonArtinianError(f"no pure power of x_{bounds.index(0) + 1}: quotient is not finite dimensional")
    return tuple(bounds)


def count_standard(ideal: MonomialIdeal) -> int:
    """Number of monomials outside the ideal (the quotient dimension)."""
    artinian_bounds(ideal)  # raises NonArtinianError for an infinite quotient
    if ideal.is_unit:
        return 0
    return _slice_count(ideal.gens, {}) if ideal.gens else 1  # no variables: the quotient is the field


def _slice_count(gens: tuple[Monomial, ...], memo: dict) -> int:
    """Standard monomials of the Artinian, non-unit ideal minimally
    generated by `gens`, which come sorted lexicographically (as
    `MonomialIdeal` keeps them, and as each slice below is kept). Besides
    one pure power per variable, an ideal with at most two more generators
    is a leaf: `_corners` counts it in closed form, before the memo is
    consulted.

    `memo` maps the sorted generators to their count. They are the ideal
    itself, in its own variable order, so two slices share an entry only
    when they are the same ideal, and the memo is sound. The sum runs over
    the slices x_1 = p of the ideal's own first variable.

    The slice at p is the ideal of the generators with g[0] <= p, with x_1
    dropped; it only changes at the cuts, the distinct values of g[0]. The
    sorted generators come grouped by g[0], and the last cut holds only
    x_1's pure power: any other generator with g[0] at least its exponent
    would be its multiple. From there on the slice is the unit ideal and
    counts nothing, so the pass stops before the last cut and counts the
    slice of the cut before it up to x_1's exponent.

    The slices are built in one pass over the generators grouped by g[0]:
    at each cut, the kept projections that a new projection g[1:] divides
    are dropped and the new ones appended. Because `gens` is minimal, this
    leaves each slice minimally generated with no further check: two
    generators with equal g[0] project to incomparable monomials, and a
    projection h[1:] with h[0] < g[0] never divides g[1:], since h would
    then divide g. So each slice handed down is minimal again.

    The kept projections stay sorted lexicographically. A multiple h of g
    is at least g in every exponent, so h >= g as tuples, and only the
    suffix from bisect_left(kept, g) can hold one; the prefix is left
    untested. A zero exponent of g needs no test, so h is tested on g's
    support only, and first on its last variable: where h agrees with g's
    zero prefix, h >= g as tuples already forces h to reach g's first
    nonzero exponent, so that test would rarely rule h out. With one
    nonzero exponent the test is that one comparison. The new projections
    of a cut are sorted already, since `gens` is sorted and they share
    g[0], so re-sorting after appending them merges two sorted runs.
    """
    n = len(gens[0])
    if len(gens) <= n + 2:
        return _corners(gens, n)
    total = memo.get(gens)
    if total is None:
        total = lo = 0
        kept: list[Monomial] = []
        for cut, group in groupby(gens[:-1], itemgetter(0)):
            new = [g[1:] for g in group]
            if kept:  # the slice of the previous cut holds up to this one
                total += (cut - lo) * _slice_count(tuple(kept), memo)
                for g in new:
                    i = bisect_left(kept, g)
                    support = [j for j, e in enumerate(g) if e]
                    j = support[-1]
                    e = g[j]
                    if len(support) == 1:
                        kept[i:] = [h for h in kept[i:] if h[j] < e]
                    else:
                        on = itemgetter(*support)
                        es = on(g)
                        kept[i:] = [h for h in kept[i:] if h[j] < e or not all(map(le, es, on(h)))]
                kept += new
                kept.sort()  # two sorted runs, merged in linear time
            else:
                kept = new
            lo = cut
        total += (gens[-1][0] - lo) * _slice_count(tuple(kept), memo)
        memo[gens] = total
    return total


def _corners(gens: tuple[Monomial, ...], n: int) -> int:
    """Standard monomials of a minimal Artinian ideal in n >= 1 variables
    with at most two generators that are not pure powers (its corners).

    Artinian gives each variable a pure power, and minimality leaves
    exactly one, since of two pure powers of x_i one divides the other. So
    the corners are the generators with more than one nonzero exponent.
    A corner g lies strictly inside the box b of the pure powers: g_i >= b_i
    would make x_i^b_i divide g. So b is the largest exponent of each
    variable, and the standard monomials are the box points divisible by
    no corner. The box points divisible by g form the box from g to b, of
    prod(b - g) points; those divisible by g and h form the box from
    lcm(g, h) = max(g, h), which lies inside b too. So no corner leaves
    the box, prod(b); one leaves prod(b) - prod(b - g), and two leave
    prod(b) - prod(b - g) - prod(b - h) + prod(b - max(g, h)).
    """
    b = tuple(map(max, zip(*gens)))
    total = prod(b)
    corners = [m for m in gens if m.count(0) < n - 1]
    if corners:
        g, *rest = corners
        total -= prod(map(sub, b, g))
        for h in rest:
            total += prod(map(sub, b, map(max, g, h))) - prod(map(sub, b, h))
    return total


def count_standard_ie(ideal: MonomialIdeal) -> int:
    """Independent oracle: inclusion-exclusion over generator subsets,
    summed by lcm class.

    Each subset S contributes (-1)^|S| times the number of box monomials
    divisible by lcm(S), a number that depends on lcm(S) alone, so equal
    terms are added first (the lcm lattice of Gasharov, Peeva and
    Welker). `coef` maps each lcm to the signed count of the subsets of
    the generators seen so far that have it, starting from the empty
    subset at lcm 1. Adding a generator g to each of those subsets
    subtracts its class's coefficient at lcm(L, g). An lcm outside the
    box divides no box monomial, and neither does any lcm above it, so
    it is dropped with all its supersets; a class whose coefficient
    cancels to 0 is dropped too.
    """
    bounds = artinian_bounds(ideal)
    gens = ideal.gens
    if len(gens) > IE_GENERATOR_GUARD:
        raise ValueError(f"inclusion-exclusion guard: {len(gens)} generators exceed {IE_GENERATOR_GUARD}")
    coef = {(0,) * ideal.nvars: 1}
    for g in gens:
        for lcm, c in list(coef.items()):
            merged = tuple(map(max, lcm, g))
            if all(map(lt, merged, bounds)):
                left = coef.get(merged, 0) - c
                if left:
                    coef[merged] = left
                else:
                    del coef[merged]
    return sum(c * prod(map(sub, bounds, lcm)) for lcm, c in coef.items())


def enumerate_standard(ideal: MonomialIdeal) -> list[Monomial]:
    """All standard monomials in lexicographic order.

    An oracle for small n: it recurses once per variable, and its guard
    bounds the count, not the depth, so the ideal (x_1, ..., x_1200)
    counts 1 but enumerating it raises RecursionError."""
    count = count_standard(ideal)
    if count > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guard: {count} standard monomials exceed {ENUMERATION_GUARD}")
    bounds = artinian_bounds(ideal)
    n = ideal.nvars
    if n == 0:
        return [] if ideal.gens else [()]
    out: list[Monomial] = []
    prefix = [0] * n

    def rec(depth: int, active: list[Monomial]):
        if depth == n:
            out.append(tuple(prefix))
            return
        order = sorted(active, key=lambda g: g[depth])
        idx = 0
        current: list[Monomial] = []
        for p in range(bounds[depth]):
            while idx < len(order) and order[idx][depth] <= p:
                g = order[idx]
                idx += 1
                if all(e == 0 for e in g[depth + 1:]):
                    return
                current.append(g)
            prefix[depth] = p
            rec(depth + 1, current)
        prefix[depth] = 0

    rec(0, list(ideal.gens))
    return out
