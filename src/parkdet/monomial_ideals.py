"""Monomial ideals given by finite generator lists.

A monomial is an exponent tuple; an ideal keeps its minimal generators
only. The public constructor checks every exponent and minimalizes in
one lexicographic pass, testing divisibility on exponents packed into
one int per monomial with a guard bit above each field. The kept
generators are packed side by side into one int too, so one
subtraction tests a generator against all of them. The zero
monomial as a generator denotes the unit ideal. Constructors cover the
parking-function ideal of a rooted multigraph, its k-skeleton subideals,
the ideal of a nonincreasing exponent sequence, and the skeleton-type
ideal J_H attached to a symmetric integer matrix H with dominant
diagonal. The two-level step-weight family of the colon recurrence is
J_H of a weight matrix, built by `matrix_skeleton_ideal` too.

`parking_ideal`, `skeleton_ideal` and `matrix_skeleton_ideal` bypass
the public constructor, through `MonomialIdeal._trusted`, which checks
nothing. The first two read their exponents off a `Multigraph`, whose
constructor has checked every multiplicity to be an int >= 0, so each
m_A is an n-tuple of ints >= 0; `matrix_skeleton_ideal` checks each of
its generators itself. The connected cuts `parking_ideal` keeps are
each reached once and are the minimal generators already (Postnikov and
Shapiro), so it only sorts them. The two skeleton constructors only
sort too when every generator has full support, a positive exponent at
each variable its set or pair names, which makes the generators
pairwise non-dividing; otherwise they minimalize.

The boundary monomial m_A raises x_i, for i in A, to the number of
edges from i to V - A. `parking_ideal` and `skeleton_ideal` both grow
the connected sets of non-root vertices in `_grow` instead of scanning
all 2^n subsets, and carry m_A along as A grows, so neither recomputes
one from scratch. `skeleton_ideal` keeps m_A for every set of size at
most k + 1, `parking_ideal` for the connected cuts only, where V - A is
connected too. The independent routes to these ideals are in the tests:
the all-subsets oracle computes every m_A afresh, the `matrix-tree`
suite checks dim R/M_G = det of the truncated Laplacian (Postnikov and
Shapiro), and for k = 1 `matrix_skeleton_ideal(qtilde)` builds the
1-skeleton ideal from the truncated signless Laplacian.
`matrix_skeleton_ideal` leaves out the pairs with h_ij = 0, whose
monomials are multiples of pure powers.
"""

from __future__ import annotations

import json
from itertools import chain, combinations
from operator import le, mul
from typing import Iterable, Sequence

from .exact_linalg import IntMatrix, _Frozen, has_dominant_diagonal
from .formulas import _check_lambda
from .multigraph import Multigraph

Monomial = tuple[int, ...]


def divides(g: Monomial, m: Monomial) -> bool:
    return all(map(le, g, m))


def _check_exponents(m: Sequence[int], nvars: int, kind: str) -> None:
    """Raise ValueError unless m has nvars exponents, each an int >= 0;
    kind, "generator" or "monomial", names m in the message."""
    if len(m) != nvars:
        raise ValueError(f"{kind} {m} has {len(m)} exponents, expected {nvars}")
    if not all(type(e) is int and e >= 0 for e in m):  # type, not isinstance: bool is rejected
        raise ValueError(f"exponents must be nonnegative ints, got {kind} {m}")


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    # Any divisor of g, and any copy of g, sorts lexicographically before g.
    # Divisibility is tested on exponents packed by place value, G = g . place
    # with x_1 in the top field. Every field is one bit wider than the largest
    # exponent needs, and its top bit is a guard: h divides g iff
    # ((G | guard) - H) & guard == guard. Each field of G | guard exceeds every
    # exponent of H, so the subtraction never borrows across fields, and a
    # field keeps its guard bit exactly when g's exponent is at least h's.
    # The kept generators are packed side by side into `packed`, one block
    # of `block` bits each: the fields of kept[i] and a spare bit on top.
    # `ones` has a 1 at the bottom of each block, `guards` the guard bits of
    # every block and `spares` every spare bit. Block i of (G | guard) * ones
    # - packed is (G | guard) - kept[i], which never borrows from the next
    # block, so one subtraction tests g against every kept generator: block
    # i of x = guards & ~that is zero exactly when kept[i] divides g. Then
    # (x | spares) - ones clears a block's spare bit exactly when that block
    # of x is zero, so g is kept iff every spare bit survives.
    gens = sorted(gens)
    nvars = len(gens[0]) if gens else 0
    width = max(chain.from_iterable(gens), default=0).bit_length() + 1
    place = [1 << width * i for i in reversed(range(nvars))]
    guard = sum(place) << width - 1
    block = nvars * width + 1
    kept, packed, ones, guards, spares, shift = [], 0, 0, 0, 0, 0
    for g in gens:
        p = sum(map(mul, g, place))
        x = guards & ~((p | guard) * ones - packed)
        if ((x | spares) - ones) & spares == spares:
            kept.append(g)
            packed |= p << shift
            ones |= 1 << shift
            guards |= guard << shift
            shift += block
            spares |= 1 << shift - 1
    return tuple(kept)


class MonomialIdeal(_Frozen):
    """nvars and the minimal generators, canonically sorted.

    The constructor checks that each generator has nvars nonnegative
    int exponents, stores it as a tuple and minimalizes; `_trusted`, for
    `parking_ideal`, `skeleton_ideal` and `matrix_skeleton_ideal` only,
    does none of this.
    Equality of two MonomialIdeal values is equality of ideals, since
    minimal generating sets of monomial ideals are unique.
    """

    __slots__ = ("nvars", "gens")
    nvars: int
    gens: tuple[Monomial, ...]

    def __init__(self, nvars: int, gens: tuple[Monomial, ...]):
        object.__setattr__(self, "nvars", nvars)
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        for g in gens:
            _check_exponents(g, nvars, "generator")
        object.__setattr__(self, "gens", _minimalize(map(tuple, gens)))

    @classmethod
    def _trusted(cls, nvars: int, gens: tuple[Monomial, ...]) -> MonomialIdeal:
        """The ideal of gens as given: tuples of nvars ints >= 0, sorted
        and minimal. Nothing is checked."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "nvars", nvars)
        object.__setattr__(ideal, "gens", gens)
        return ideal

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def __contains__(self, m: Monomial) -> bool:
        _check_exponents(m, self.nvars, "monomial")
        return any(divides(g, m) for g in self.gens)


def _start(g: Multigraph) -> tuple[list[int], tuple[int, ...], list[tuple]]:
    """Neighbour masks, degrees and the singleton entries that `_grow`
    starts from; bit v of a mask stands for vertex v, bit 0 for the root."""
    n, adj = g.n, g.adj
    nbr = [sum(1 << j for j in range(n + 1) if adj[v][j]) for v in range(n + 1)]
    deg = g.degrees()
    stack = [(1 << v, nbr[v] & ~low, nbr[v] | low, (0,) * (v - 1) + (deg[v],) + (0,) * (n - v))
             for v in range(1, n + 1) for low in [(2 << v) - 1]]
    return nbr, deg, stack


def _grow(stack: list[tuple], entry: tuple, adj: Sequence[Sequence[int]], nbr: Sequence[int],
          deg: Sequence[int]) -> None:
    """Push the children of a stack entry (A, frontier, excluded, m_A) of
    a connected set A of G - root; the excluded mask holds the root, A,
    the frontier and every vertex already decided against.

    A set whose least vertex is v starts as {v} with every vertex below v
    excluded, and each frontier vertex w is either added, with its
    neighbours joining the frontier, or excluded from the sets grown
    after it. So every connected A is reached at most once, and exactly
    once when no branch is cut off. m_A rides along: when w joins A, its
    exponent is deg(w) minus its edges into A, and each neighbour u of w
    in A loses its edges to w.
    """
    a, frontier, excluded, m = entry
    while frontier:
        w = frontier & -frontier
        frontier ^= w
        j = w.bit_length() - 1
        grown, row, child = nbr[j], adj[j], list(m)
        inside, both = 0, a & grown
        while both:
            u = both & -both
            both ^= u
            i = u.bit_length() - 1
            child[i - 1] -= row[i]
            inside += row[i]
        child[j - 1] = deg[j] - inside
        stack.append((a | w, frontier | grown & ~excluded, excluded | grown, tuple(child)))


def skeleton_ideal(g: Multigraph, k: int) -> MonomialIdeal:
    """Generated by the boundary monomials of all nonempty subsets of size
    at most k+1; built from the subsets that induce a connected subgraph
    of G - root only. `_grow` reaches each of them once, from smaller
    sets only, so it stops growing at size k+1.

    If G|A splits into A1 and A2 with no edge between them, a vertex of
    A1 has the same edges inside A as inside A1, so m_A = m_A1 * m_A2, and
    m_A1, of a smaller subset, is a generator already. Inductively every
    m_A is a multiple of the m_C of a connected subset C of A. For k = 1
    the subsets left out are exactly the non-adjacent pairs.

    When every kept m_A has full support, a positive exponent at each
    vertex of A, they are the minimal generators already and are only
    sorted. Let A and B be connected sets with m_B | m_A. Support
    containment gives B in A. For i in B, e(i, V - B) = e(i, V - A) +
    e(i, A - B), so m_B | m_A forces e(i, A - B) = 0: no edge joins B to
    A - B. As G|A is connected, B = A, and no kept m_A divides another.
    Otherwise, as when some vertex of a set A has no edge leaving A, the
    kept m_A are minimalized.
    """
    if type(k) is not int or not 0 <= k <= g.n - 1:  # type, not isinstance: bool is rejected
        raise ValueError(f"k must be an int in [0, {g.n - 1}], got {k!r}")
    n = g.n
    nbr, deg, stack = _start(g)
    gens, full = [], True
    while stack:
        entry = stack.pop()
        a, m = entry[0], entry[3]
        gens.append(m)
        size = a.bit_count()
        full = full and m.count(0) == n - size
        if size <= k:
            _grow(stack, entry, g.adj, nbr, deg)
    return MonomialIdeal._trusted(n, tuple(sorted(gens)) if full else _minimalize(gens))


def parking_ideal(g: Multigraph) -> MonomialIdeal:
    """Full ideal, generated by the boundary monomials m_A of every
    nonempty subset A of [n]; built from the connected cuts only.

    If G is disconnected, some component C misses the root and m_C = 1,
    so the ideal is the unit ideal. Otherwise m_A is kept only when G|A
    and G|(V - A) are both connected. That loses nothing: let A' be A
    together with every component of G|(V - A) that misses the root.
    Then V - A' is connected, and m_A' divides m_A (the added vertices
    have no edge to V - A'). Any component A1 of G|A' has an edge to
    V - A', so V - A1 is connected, and m_A1 divides m_A'. So every
    m_A is a multiple of a kept one. The kept ones are exactly the
    minimal generators (Postnikov and Shapiro, Trans. AMS 356, 2004).
    `_grow` reaches each connected set once, so no cut repeats, and the
    sorted cuts go to `MonomialIdeal._trusted` unminimalized.

    The connected sets A of G - root are grown by `_grow`. Each set
    visited costs one breadth-first search of V - A from the root, by
    layers, which stops once it has reached every vertex (after one
    layer on a wheel or a fan). The same search prunes: the vertices a
    branch never adds to A (the root, the vertices below v and those
    decided against) lie in the complement of every set grown from A,
    and that complement lies inside V - A. If the search misses one of
    them, no such complement is connected, and the whole branch is
    skipped. Cycles, fans and wheels visit only their cuts; the ladder
    at n = 13 visits 266 of its 969 connected sets for its 91 cuts.
    """
    n, adj = g.n, g.adj
    nbr, deg, stack = _start(g)
    full = (1 << (n + 1)) - 1

    def reach(mask: int) -> int:
        # a search from the root inside mask, one layer at a time, until
        # no vertex is added or every vertex of mask is reached
        reached = layer = 1
        while layer and reached != mask:
            grown = 0
            while layer:
                v = layer & -layer
                layer ^= v
                grown |= nbr[v.bit_length() - 1]
            layer = grown & mask & ~reached
            reached |= layer
        return reached

    if reach(full) != full:
        return MonomialIdeal(n, ((0,) * n,))
    gens = []
    while stack:
        entry = stack.pop()
        a, frontier, excluded, m = entry
        rest = full ^ a
        reached = reach(rest)
        if reached == rest:
            gens.append(m)
        elif excluded & ~frontier & rest & ~reached:
            continue  # a vertex no superset of A takes stays cut off from the root
        _grow(stack, entry, adj, nbr, deg)
    gens.sort()
    return MonomialIdeal._trusted(n, tuple(gens))


def lambda_ideal(lam: tuple[int, ...]) -> MonomialIdeal:
    """For each nonempty subset A, the product of its variables raised to
    lam[|A|-1]; lam must be a nonempty nonincreasing sequence of ints >= 1."""
    lam = _check_lambda(lam)
    n = len(lam)
    if n == 0:
        raise ValueError("empty exponent sequence")
    gens = []
    for size in range(1, n + 1):
        e = lam[size - 1]
        for a in combinations(range(n), size):
            g = [0] * n
            for i in a:
                g[i] = e
            gens.append(tuple(g))
    return MonomialIdeal(n, tuple(gens))


def step_weight_ideal(n: int, r: int, a: int) -> MonomialIdeal:
    """J_H of the weight matrix H whose diagonal is the step weight
    w = (a,)*(n-r) + (a-1,)*r and whose off-diagonal entries are all 1:
    pure powers x_i^w_i plus all cross products x_i^(w_i-1) x_j^(w_j-1).
    n = 0 gives the zero ideal in no variables."""
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    w = (a,) * (n - r) + (a - 1,) * r
    if min(w, default=1) < 1:
        raise ValueError(f"weights must stay >= 1: n={n}, r={r}, a={a}")
    return matrix_skeleton_ideal(IntMatrix(tuple(tuple(w[i] if i == j else 1 for j in range(n))
                                                 for i in range(n))))


def matrix_skeleton_ideal(h: IntMatrix) -> MonomialIdeal:
    """Skeleton-type ideal of a symmetric nonnegative matrix whose diagonal
    dominates each row: pure powers x_l^{h_ll} and, for each pair i < j,
    x_i^{h_ii - h_ij} x_j^{h_jj - h_ij}.

    For the truncated signless Laplacian of a multigraph this coincides
    with the 1-skeleton ideal of the graph.

    Every generator is checked, since `IntMatrix` does not check its
    entries. When every h_ll > 0 and h_ii > h_ij < h_jj for each kept
    pair, each generator has full support, a positive exponent at each of
    its one or two variables, and the generators are minimal already, so
    they are only sorted. A generator dividing another has its support
    inside the other's, and no two generators share a support {l} or
    {i, j}. So only x_l^h_ll could divide the generator of a pair {l, j},
    and it does not: the pair's exponent at l is h_ll - h_lj < h_ll.
    Otherwise the generators are minimalized.
    """
    if not has_dominant_diagonal(h):
        raise ValueError("matrix must be symmetric, nonnegative, with row-dominant diagonal")
    n = h.order
    gens, full = [], True
    for l in range(n):
        g = [0] * n
        g[l] = h[l][l]
        gens.append(tuple(g))
        full = full and g[l] > 0
    for i in range(n):
        for j in range(i + 1, n):
            if not h[i][j]:  # x_i^h_ii x_j^h_jj, a multiple of x_i^h_ii
                continue
            g = [0] * n
            g[i] = h[i][i] - h[i][j]
            g[j] = h[j][j] - h[i][j]
            gens.append(tuple(g))
            full = full and g[i] > 0 and g[j] > 0
    for g in gens:
        _check_exponents(g, n, "generator")
    return MonomialIdeal._trusted(n, tuple(sorted(gens)) if full else _minimalize(gens))


def colon(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Colon ideal (I : m), generated by g / gcd(g, m) over generators g."""
    _check_exponents(m, ideal.nvars, "monomial")
    gens = tuple(tuple(max(ge - me, 0) for ge, me in zip(g, m)) for g in ideal.gens)
    return MonomialIdeal(ideal.nvars, gens)


def ideal_to_text(ideal: MonomialIdeal) -> str:
    """One generator per line, space-separated exponents."""
    return "\n".join(" ".join(str(e) for e in g) for g in ideal.gens) + "\n"


def ideal_to_json(ideal: MonomialIdeal) -> str:
    return json.dumps({"nvars": ideal.nvars, "generators": [[str(e) for e in g] for g in ideal.gens]})
