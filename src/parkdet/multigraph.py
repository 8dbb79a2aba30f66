"""Loopless multigraphs on {0, 1, ..., n} with root vertex 0.

The adjacency matrix stores edge multiplicities; Laplace-type matrices
are derived from it. Includes the edge surgeries (root-edge deletion,
merging a vertex into the root) used by the determinant-splitting
checks, seeded instance generators, and a small text/JSON file format.
Every multigraph is assembled by `from_edges` (only the JSON reader, which
must reject rather than add up an asymmetric or looped `adj`, builds one
directly), and every edge list is read off by `_edges`.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import neg
from typing import Iterable, NamedTuple

from .exact_linalg import IntMatrix, _Frozen, parse_int
from .rng import SplitMix64


class Multigraph(_Frozen):
    """Symmetric nonnegative int adjacency on n+1 vertices, zero diagonal."""

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        if n < 1:
            raise ValueError(f"need at least one non-root vertex, got n={n}")
        size = n + 1
        if len(adj) != size or any(len(row) != size for row in adj):
            raise ValueError(f"adjacency must be {size}x{size}")
        if set(map(type, chain.from_iterable(adj))) - {int}:  # type, not isinstance: bool is rejected
            raise ValueError("adjacency entries must be ints")
        for i in range(size):
            if adj[i][i] != 0:
                raise ValueError(f"loop at vertex {i}")
            for j in range(i + 1, size):
                if adj[i][j] != adj[j][i]:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")
                if adj[i][j] < 0:
                    raise ValueError(f"negative multiplicity at ({i},{j})")

    def degree(self, i: int) -> int:
        return sum(self.adj[i])

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(i) for i in range(self.n + 1))


def from_edges(n: int, edges: Iterable[tuple[int, int, int]]) -> Multigraph:
    """Multigraph from (i, j, multiplicity) triples; unlisted pairs are 0,
    and the multiplicities of a pair listed more than once add up. Each
    entry of a triple must be an int (a bool is not), and its
    multiplicity must be >= 0."""
    adj = [[0] * (n + 1) for _ in range(n + 1)]
    for i, j, m in edges:
        if type(i) is not int or type(j) is not int or type(m) is not int:
            raise ValueError(f"edge {(i, j, m)!r}: vertices and multiplicity must be ints")
        if m < 0:
            raise ValueError(f"edge {(i, j, m)!r}: negative multiplicity")
        if i == j:
            raise ValueError(f"loop edge ({i},{j})")
        if not (0 <= i <= n and 0 <= j <= n):
            raise ValueError(f"vertex out of range in edge ({i},{j})")
        adj[i][j] += m
        adj[j][i] += m
    return Multigraph(n, tuple(tuple(row) for row in adj))


def _edges(g: Multigraph) -> list[tuple[int, int, int]]:
    """The (i, j, multiplicity) triples of g with i < j and multiplicity > 0."""
    adj = g.adj
    return [(i, j, adj[i][j]) for i in range(g.n + 1) for j in range(i + 1, g.n + 1) if adj[i][j]]


def complete_multigraph(n: int, a: int, b: int) -> Multigraph:
    """Every root edge with multiplicity a, every non-root pair with b."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if a < 1 or b < 1:
        raise ValueError(f"multiplicities must be >= 1, got a={a}, b={b}")
    return from_edges(n, [(i, j, b if i else a) for i in range(n + 1) for j in range(i + 1, n + 1)])


def complete_minus_root_edges(n: int, r: int) -> Multigraph:
    """Simple complete graph on n+1 vertices minus the r root edges to the
    top-numbered vertices n-r+1, ..., n."""
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    return from_edges(n, [(i, j, 1) for i in range(n + 1) for j in range(i + 1, n + 1) if i or j <= n - r])


def _with_root_edges(g: Multigraph, mults: Iterable[int]) -> Multigraph:
    """g with the root edge of vertex i set to mults[i - 1]."""
    return from_edges(g.n, [(i, j, m) for i, j, m in _edges(g) if i]
                      + [(0, i, m) for i, m in enumerate(mults, start=1)])


class Laplacians(NamedTuple):
    l: IntMatrix
    q: IntMatrix
    ltilde: IntMatrix
    qtilde: IntMatrix


def laplacians(g: Multigraph) -> Laplacians:
    """Laplacian D - A, signless Laplacian D + A, and their truncations
    (row and column of the root removed)."""
    l, q = [list(map(neg, row)) for row in g.adj], [list(row) for row in g.adj]
    for i, row in enumerate(g.adj):  # the diagonal of adj is zero
        l[i][i] = q[i][i] = sum(row)
    l, q = tuple(map(tuple, l)), tuple(map(tuple, q))
    return Laplacians(IntMatrix(l), IntMatrix(q),
                      IntMatrix(tuple(row[1:] for row in l[1:])), IntMatrix(tuple(row[1:] for row in q[1:])))


def delete_root_edge(g: Multigraph, j: int) -> Multigraph:
    """Remove one copy of the edge between the root and j."""
    if not 1 <= j <= g.n:
        raise ValueError(f"vertex {j} out of range")
    if g.adj[0][j] == 0:
        raise ValueError(f"no root edge to vertex {j} to delete")
    return _with_root_edges(g, [m - (i == j) for i, m in enumerate(g.adj[0][1:], start=1)])


def merge_into_root(g: Multigraph, j: int) -> Multigraph:
    """Contract vertex j into the root: its edges to other non-root
    vertices are transferred to the root, its root edges vanish, and the
    remaining vertices are renumbered densely."""
    if g.n < 2:
        raise ValueError("merging needs at least two non-root vertices")
    if not 1 <= j <= g.n:
        raise ValueError(f"vertex {j} out of range")
    new = [0 if v == j else v - (v > j) for v in range(g.n + 1)]
    return from_edges(g.n - 1, [(new[u], new[v], m) for u, v, m in _edges(g) if new[u] != new[v]])


def relabel_vertices(g: Multigraph, perm: Iterable[int]) -> Multigraph:
    """Relabel non-root vertices: perm[k] is the old vertex placed at k+1."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, g.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    new = {v: k for k, v in enumerate((0,) + perm)}
    return from_edges(g.n, [(new[u], new[v], m) for u, v, m in _edges(g)])


def random_multigraph(n: int, max_multiplicity: int, seed: int) -> Multigraph:
    """Seeded multigraph: every pair gets a uniform multiplicity in
    [0, max_multiplicity]."""
    if n < 1 or max_multiplicity < 1:
        raise ValueError("need n >= 1 and max_multiplicity >= 1")
    rng = SplitMix64(seed)
    return from_edges(n, [(i, j, rng.randint(0, max_multiplicity))
                          for i in range(n + 1) for j in range(i + 1, n + 1)])


def random_root_deletion(n: int, a: int, b: int, seed: int) -> Multigraph:
    """Seeded subgraph of the complete multigraph obtained by deleting a
    uniform sub-multiset of root edges only (each root multiplicity drops
    to an independent uniform value in [0, a])."""
    rng = SplitMix64(seed)
    return _with_root_edges(complete_multigraph(n, a, b), [rng.randint(0, a) for _ in range(n)])


# --- file format ------------------------------------------------------------
#
# Text form: first significant line is n; each following line "i j m" sets
# multiplicity m on the pair {i, j} (0 <= i < j <= n, m >= 1); '#' starts a
# comment; unlisted pairs are 0. JSON form: {"n": int, "adj": [[...], ...]}.


class GraphFormatError(ValueError):
    """Malformed graph file; message names the offending line."""


def parse_graph(text: str) -> Multigraph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid graph JSON: {exc}") from exc
        if not isinstance(data, dict) or "n" not in data or "adj" not in data:
            raise GraphFormatError('graph JSON needs keys "n" and "adj"')
        if not isinstance(data["adj"], list) or not all(isinstance(row, list) for row in data["adj"]):
            raise GraphFormatError('invalid graph JSON: "adj" must be an array of rows')
        try:
            adj = tuple(tuple(parse_int(x, f"adj[{i}][{j}]") for j, x in enumerate(row))
                        for i, row in enumerate(data["adj"]))
            return Multigraph(parse_int(data["n"], "n"), adj)
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"invalid graph JSON: {exc}") from exc

    n = None
    pairs: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphFormatError(f"line {lineno}: expected the vertex count n alone")
            try:
                n = parse_int(fields[0], f"line {lineno}: n")
            except ValueError as exc:
                raise GraphFormatError(str(exc)) from None
            if n < 1:
                raise GraphFormatError(f"line {lineno}: n must be >= 1")
            continue
        if len(fields) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'i j m'")
        try:
            i, j, m = (parse_int(f, f"line {lineno}: field {k}") for k, f in enumerate(fields, start=1))
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
        if not (0 <= i < j <= n):
            raise GraphFormatError(f"line {lineno}: need 0 <= i < j <= {n}")
        if m < 1:
            raise GraphFormatError(f"line {lineno}: multiplicity must be >= 1")
        if (i, j) in pairs:
            raise GraphFormatError(f"line {lineno}: duplicate pair ({i}, {j})")
        pairs[(i, j)] = m
    if n is None:
        raise GraphFormatError("empty graph file")
    return from_edges(n, [(i, j, m) for (i, j), m in pairs.items()])


def format_graph(g: Multigraph) -> str:
    return "\n".join([str(g.n)] + [f"{i} {j} {m}" for i, j, m in _edges(g)]) + "\n"


def graph_to_json(g: Multigraph) -> str:
    return json.dumps({"n": g.n, "adj": [list(row) for row in g.adj]})
