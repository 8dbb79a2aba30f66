"""Counting and enumerating standard monomials of Artinian quotients.

A monomial ideal is Artinian here when every variable carries a pure
power generator. The counter packs exponents into ints: x_1 in the top
field, each exponent in a field of k bytes, k the fewest whose top bit,
the field's guard, no exponent reaches. Packed ints sort as the exponent
tuples do, dropping x_1 is a mask, reading its exponent a shift, and a
divisibility test one subtraction that the guards keep from borrowing
across fields. A minimal Artinian ideal is held as its box, one int
packing each variable's pure-power exponent, and its corners, the sorted
packed generators with two or more nonzero exponents. The counter splits
the quotient into slices by the exponent p of the first variable, as the
generators give it (the divide-and-conquer step of the Hilbert-series
algorithms of Bayer-Stillman and Bigatti): the slice at p is the ideal,
in the other variables, of the generators with g_1 <= p. It is constant
between consecutive values of g_1, so each run of equal slices is
counted once; from x_1's pure power on, the slice is the unit ideal, and
it is never built. Each slice comes from the previous one: a generator
that projects to a pure power lowers its field of the box, and the
corners that a new power or a new corner divides are dropped, which
keeps the slice minimally generated without a minimalization pass. The
corners are kept sorted, so the multiples of a new corner lie in the
suffix that starts where it would be inserted, and only that suffix is
tested. The slices are counted in one loop, memoized within a call by
(box, corners), which is the ideal itself at the call's one field width
(a slice never raises an exponent, so the width chosen at the top fits
every slice), down to one closed form, taken at two corners or fewer:
the box with those corners cut out, read off the bytes of the box and of
the box minus a corner, which lies strictly inside it, so the
subtraction never borrows. A two-variable slice with more corners is
sliced like any other, down to one-variable boxes.

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
from math import prod
from operator import lt, sub
from typing import Iterator, Sequence

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
    bounds = artinian_bounds(ideal)  # raises NonArtinianError for an infinite quotient
    if ideal.is_unit:
        return 0
    if not ideal.gens:
        return 1  # no variables: the quotient is the field
    # every exponent is at most the largest pure power, so k bytes a field
    # leave each field's top bit free as the guard
    n, k = ideal.nvars, max(bounds).bit_length() // 8 + 1
    to_bytes = bytes if k == 1 else lambda g: b"".join(e.to_bytes(k, "big") for e in g)
    corners = tuple(int.from_bytes(to_bytes(g), "big") for g in ideal.gens if g.count(0) < n - 1)
    return _slice_count(int.from_bytes(to_bytes(bounds), "big"), corners, n, k)


def _slice_count(box: int, corners: tuple[int, ...], n: int, k: int) -> int:
    """Standard monomials of the Artinian, non-unit ideal in n variables
    minimally generated by the pure powers packed in `box` and by
    `corners`, packed as `count_standard` packs them (k bytes a field, x_1
    on top) and sorted, which for packed ints is the lexicographic order
    of the exponent tuples.

    One loop walks the tree of slices depth first, the root's one slice
    being the ideal itself. A slice with at most two corners is a leaf,
    which `_corners` counts in closed form; it and a memo hit are added in
    place, and a miss pushes the current frame (key, nvars, slices,
    partial sum) with the miss's multiplier. An exhausted frame memoizes
    its total and pops its parent, adding the total times that
    multiplier. The memo maps (box, corners) to the count. Packing is
    injective at one field width, one width serves the whole call, and
    every field of a box is at least 1, so the box fixes n too. Two slices
    share an entry only when they are the same ideal, and the memo is
    sound.
    """
    memo, stack = {}, []
    key, n, slices, total = None, n, iter([(1, box, corners)]), 0
    while True:
        for c, box, corners in slices:
            if len(corners) <= 2:
                total += c * _corners(box, corners, n, k)
            elif (hit := memo.get(s := (box, corners))) is not None:
                total += c * hit
            else:
                stack.append((key, n, slices, total, c))
                key, n, slices, total = s, n - 1, _slices(box, corners, n, k), 0
                break
        else:
            if not stack:
                return total
            memo[key] = total
            key, n, slices, partial, c = stack.pop()
            total = partial + c * total


def _slices(box: int, corners: tuple[int, ...], n: int, k: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Yields (multiplier, box, corners) for each run of x_1 exponents
    sharing a slice.

    The slice at p is the ideal of the generators with g_1 <= p, with x_1
    dropped; it only changes at the cuts, the distinct values of the top
    field g_1 = g >> top, and each group of corners with one cut is found
    by bisecting for the next cut's first value. Cut 0 holds the pure
    powers of x_2, ..., x_n, the box without its top field, and the
    corners with g_1 = 0, which need no projection: their top field is
    already 0, so they are the slice's own packed ints. From x_1's pure
    power b_1 on, the slice is the unit ideal, so the pass yields the
    slice of the last corner cut up to b_1.

    At a later cut, a projection g & low (g without x_1) with one nonzero
    field is a new pure power. It lies below its field's old exponent,
    since the generator that gave the old one has a smaller g_1 and would
    otherwise divide g, so it replaces the whole field of the box. The
    new powers lie in distinct fields, as two of one variable would
    divide one another, so one pass, one subtraction of their sum
    `powers` a corner, tests the guard bits of their fields, `mask`, and
    drops every kept corner that any new power divides. The other
    projections are new corners: the kept ones that a new corner divides
    are dropped and the new ones appended. Because the ideal is
    minimal, each slice stays minimally generated: two generators with
    equal g_1 project to incomparable monomials, and the projection of h
    with h_1 < g_1 never divides that of g, since h would then divide g.
    The kept corners stay sorted, and a multiple h of g is at least g in
    every exponent, so h >= g, and only the suffix from bisect_left(kept,
    g) is tested. Each test is one subtraction: `guard` holds the top bit
    of every field, which no exponent reaches, so no field of h | guard
    is below g's, nothing borrows across fields, and a field keeps its
    guard bit exactly when h's exponent is at least g's. Adding `fill`,
    all bits below each guard, carries into a field's guard bit exactly
    when the field is nonzero, which tells a new power from a new corner.
    """
    top = 8 * k * (n - 1)
    low = (1 << top) - 1
    guard = int.from_bytes((b"\x80" + bytes(k - 1)) * (n - 1), "big")
    fill = guard - (guard >> 8 * k - 1)
    end = bisect_left(corners, 1 << top)
    kept = list(corners[:end])
    lo, last, b_1, box = 0, len(corners), box >> top, box & low
    while end < last:
        cut = corners[end] >> top
        yield cut - lo, box, tuple(kept)
        start, end, lo = end, bisect_left(corners, cut + 1 << top, end), cut
        new, powers, mask = [], 0, 0
        for g in corners[start:end]:
            g &= low
            nonzero = (g + fill) & guard
            if nonzero & (nonzero - 1):
                new.append(g)
            else:
                powers |= g
                mask |= nonzero
        if powers:  # clear the k bytes of each field below a guard of mask
            box = box & ~((mask << 1) - (mask >> 8 * k - 1)) | powers
            kept = [h for h in kept if not ((h | guard) - powers) & mask]
        for g in new:
            i = bisect_left(kept, g)
            if i < len(kept):
                kept[i:] = [h for h in kept[i:] if ((h | guard) - g) & guard != guard]
        kept += new
        kept.sort()  # two sorted runs, merged in linear time
    yield b_1 - lo, box, tuple(kept)


def _fields(p: int, n: int, k: int) -> Sequence[int]:
    """The n exponents packed in p, k bytes each, x_1 first: for k = 1
    the bytes of p themselves."""
    b = p.to_bytes(n * k, "big")
    return b if k == 1 else [int.from_bytes(b[i:i + k], "big") for i in range(0, n * k, k)]


def _corners(box: int, corners: tuple[int, ...], n: int, k: int) -> int:
    """Standard monomials of the minimal Artinian ideal in n >= 1
    variables with the pure powers packed in `box` and at most two
    corners, packed as for `_slice_count`.

    A corner g lies strictly inside the box: g_i >= b_i would make
    x_i^b_i divide g. So box - g borrows in no field and packs b - g. The
    box points divisible by g form the box from g to b, of prod(b - g)
    points; those divisible by g and h form the box from lcm(g, h) =
    max(g, h), which lies inside b too. So the count is prod(b) minus
    prod(b - g) for each corner g, plus prod(b - max(g, h)) for two; only
    two corners are unpacked, for their max.
    """
    b = _fields(box, n, k)
    total = prod(b) - sum(prod(_fields(box - g, n, k)) for g in corners)
    if len(corners) == 2:
        g, h = corners
        total += prod(map(sub, b, map(max, _fields(g, n, k), _fields(h, n, k))))
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
