"""Monomial ideals given by finite generator lists.

A monomial is an exponent tuple; an ideal keeps its minimal generators
only (minimalization is applied eagerly by the constructor). The
constructor minimalizes in one lexicographic pass, testing divisibility
on exponents packed into one int per monomial with a guard bit above
each field, so one subtraction compares every exponent at once. The zero
monomial as a generator denotes the unit ideal. Constructors cover the
parking-function ideal of a rooted multigraph, its k-skeleton subideals,
the ideal of a nonincreasing exponent sequence, and the skeleton-type
ideal J_H attached to a symmetric integer matrix H with dominant
diagonal. The two-level step-weight family of the colon recurrence is
J_H of a weight matrix, built by `matrix_skeleton_ideal` too.

The boundary monomial m_A, where x_i for i in A is raised to the number
of edges from i to V - A, is written once, in `_boundary`, on the member
vertices of A. `parking_ideal` takes it for the connected cuts of the graph
only, enumerating the connected sets of non-root vertices instead of
scanning all 2^n subsets; `skeleton_ideal` takes it for every candidate
subset, so `skeleton_ideal(g, g.n - 1)` is an independent route to the
same ideal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from operator import le, mul
from typing import Iterable, Sequence

from .exact_linalg import IntMatrix, has_dominant_diagonal, parse_int
from .formulas import _check_lambda
from .multigraph import Multigraph

Monomial = tuple[int, ...]


def divides(g: Monomial, m: Monomial) -> bool:
    return all(map(le, g, m))


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    # Any divisor of g, and any copy of g, sorts lexicographically before g.
    # Divisibility is tested on exponents packed by place value, G = g . place
    # with x_1 in the top field. Every field is one bit wider than the largest
    # exponent needs, and its top bit is a guard: h divides g iff
    # ((G | guard) - H) & guard == guard. Each field of G | guard exceeds every
    # exponent of H, so the subtraction never borrows across fields, and a
    # field keeps its guard bit exactly when g's exponent is at least h's.
    gens = sorted(gens)
    width = max(chain.from_iterable(gens), default=0).bit_length() + 1
    place = [1 << width * i for i in reversed(range(len(gens[0])))] if gens else []
    guard = sum(place) << width - 1
    kept, kept_packed = [], []
    for g in gens:
        p = sum(map(mul, g, place))
        top = p | guard
        if not any((top - q) & guard == guard for q in kept_packed):
            kept.append(g)
            kept_packed.append(p)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """nvars and the minimal generators, canonically sorted.

    Equality of two MonomialIdeal values is equality of ideals, since
    minimal generating sets of monomial ideals are unique.
    """

    nvars: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError("nvars must be >= 0")
        for g in self.gens:
            if len(g) != self.nvars:
                raise ValueError(f"generator {g} has {len(g)} exponents, expected {self.nvars}")
            if not all(type(e) is int and e >= 0 for e in g):  # type, not isinstance: bool is rejected
                raise ValueError(f"exponents must be nonnegative ints, got generator {g}")
        object.__setattr__(self, "gens", _minimalize(self.gens))

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def __contains__(self, m: Monomial) -> bool:
        if len(m) != self.nvars:
            raise ValueError(f"monomial {m} has {len(m)} exponents, expected {self.nvars}")
        return any(divides(g, m) for g in self.gens)


def _boundary(g: Multigraph, members: Sequence[int]) -> Monomial:
    """m_A for the distinct non-root vertices `members` of A: edges from i
    to V - A are its degree minus its edges inside A, where the sum over A
    may include i itself, since `Multigraph` validates a zero diagonal."""
    adj, m = g.adj, [0] * g.n
    for i in members:
        row = adj[i]
        m[i - 1] = sum(row) - sum(map(row.__getitem__, members))
    return tuple(m)


def boundary_monomial(g: Multigraph, subset: Iterable[int]) -> Monomial:
    """Exponent of x_i is the number of edges from i to outside the subset
    (0 for vertices not in the subset)."""
    a = frozenset(subset)
    if not a:
        raise ValueError("subset must be nonempty")
    if not a <= frozenset(range(1, g.n + 1)):
        raise ValueError(f"subset {sorted(a)} not contained in [1..{g.n}]")
    return _boundary(g, sorted(a))


def skeleton_ideal(g: Multigraph, k: int) -> MonomialIdeal:
    """Generated by the boundary monomials of all nonempty subsets of size
    at most k+1."""
    if not 0 <= k <= g.n - 1:
        raise ValueError(f"k must lie in [0, {g.n - 1}], got {k}")
    gens = tuple(_boundary(g, a) for size in range(1, k + 2)
                 for a in combinations(range(1, g.n + 1), size))
    return MonomialIdeal(g.n, gens)


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
    m_A is a multiple of a kept one.

    The connected sets A of G - root are grown from a frontier: a set
    whose least vertex is v starts as {v} with every vertex below v
    excluded, and each frontier vertex w is either added, with its
    neighbours joining the frontier, or excluded from the sets grown
    after it. So every connected A is produced exactly once, and the work
    follows their number (O(n^2) on a cycle) rather than 2^n.
    """
    n, adj = g.n, g.adj
    # bit v stands for vertex v; bit 0 is the root
    nbr = [sum(1 << j for j in range(n + 1) if adj[v][j]) for v in range(n + 1)]
    full = (1 << (n + 1)) - 1

    def connected(mask: int) -> bool:
        reached = frontier = mask & -mask
        while frontier:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            new = nbr[v] & mask & ~reached
            reached |= new
            frontier |= new
        return reached == mask

    if not connected(full):
        return MonomialIdeal(n, ((0,) * n,))
    gens = []
    # (A, frontier, excluded): the excluded mask holds the root, A, the
    # frontier and every vertex already decided against
    stack = [(1 << v, nbr[v] & ~low, nbr[v] | low)
             for v in range(1, n + 1) for low in [(2 << v) - 1]]
    while stack:
        a, frontier, excluded = stack.pop()
        if connected(full ^ a):
            gens.append(_boundary(g, [v for v in range(1, n + 1) if a >> v & 1]))
        while frontier:
            w = frontier & -frontier
            frontier ^= w
            grown = nbr[w.bit_length() - 1]
            stack.append((a | w, frontier | grown & ~excluded, excluded | grown))
    return MonomialIdeal(n, tuple(gens))


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
    """
    if not has_dominant_diagonal(h):
        raise ValueError("matrix must be symmetric, nonnegative, with row-dominant diagonal")
    n = h.order
    gens = []
    for l in range(n):
        g = [0] * n
        g[l] = h[l][l]
        gens.append(tuple(g))
    for i in range(n):
        for j in range(i + 1, n):
            g = [0] * n
            g[i] = h[i][i] - h[i][j]
            g[j] = h[j][j] - h[i][j]
            gens.append(tuple(g))
    return MonomialIdeal(n, tuple(gens))


def colon(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Colon ideal (I : m), generated by g / gcd(g, m) over generators g."""
    if len(m) != ideal.nvars:
        raise ValueError(f"monomial {m} has {len(m)} exponents, expected {ideal.nvars}")
    if not all(type(e) is int and e >= 0 for e in m):  # type, not isinstance: bool is rejected
        raise ValueError(f"exponents must be nonnegative ints, got monomial {m}")
    gens = tuple(tuple(max(ge - me, 0) for ge, me in zip(g, m)) for g in ideal.gens)
    return MonomialIdeal(ideal.nvars, gens)


def ideal_to_text(ideal: MonomialIdeal) -> str:
    """One generator per line, space-separated exponents."""
    return "\n".join(" ".join(str(e) for e in g) for g in ideal.gens) + "\n"


def ideal_to_json(ideal: MonomialIdeal) -> str:
    return json.dumps({"nvars": ideal.nvars, "generators": [[str(e) for e in g] for g in ideal.gens]})


def ideal_from_json(text: str) -> MonomialIdeal:
    data = json.loads(text)
    if not isinstance(data, dict) or "nvars" not in data or "generators" not in data:
        raise ValueError('ideal JSON needs an object with the keys "nvars" and "generators"')
    if not isinstance(data["generators"], list) or not all(isinstance(g, list) for g in data["generators"]):
        raise ValueError("ideal JSON generators must be a list of lists")
    gens = tuple(tuple(parse_int(e, f"ideal JSON generator {k}") for e in g)
                 for k, g in enumerate(data["generators"]))
    return MonomialIdeal(parse_int(data["nvars"], "ideal JSON nvars"), gens)
