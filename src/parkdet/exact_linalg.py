"""Exact dense integer linear algebra on small matrices.

Everything here is certified arithmetic: determinants come from
fraction-free (Bareiss) elimination over Python ints, the characteristic
polynomial from the Faddeev-LeVerrier recurrence (all divisions exact),
and positive semidefiniteness is certified by row-sum diagonal dominance
(Gershgorin) where every row has it, as on every truncated (signless)
Laplacian, and decided otherwise by fraction-free elimination on
positive diagonal pivots, never from floating-point eigenvalues. No
floats appear anywhere.

On a symmetric matrix, `det` and `psd_det` (which `is_psd` falls back on) run
the same in-place kernel, `_pivot_pair`: one pass over the trailing block
takes two Bareiss steps, on the diagonal pivots at (k, k) and
(k+1, k+1), updating every later row in its upper triangle only, then
mirroring it. The trailing block stays symmetric, and after pivoting on
the principal set S each of its entries (i, j) is the bordered minor
det A[S+i, S+j] (Sylvester's identity). A pass's quotient is exactly
what two single steps would give, so its numerator is that integer times
prev*p, the product of the two divisors of the single steps, and every
`//` is exact (Bareiss, Math. Comp. 22, 1968). The second pivot is read
before the block is touched, from the diagonal after one step,
(a_tt*p - a_kt^2) // prev, which costs O(1) for `det`'s t = k+1 and O(n)
for `psd_det`'s search over t > k. `psd_det` brings its pivots to (k, k)
and (k+1, k+1) by symmetric swaps; each conjugates by a permutation
matrix P, and det(P A P^T) = det(P)^2 det(A) = det(A). An all-zero row
gives all-zero rows under a step, so it needs no bookkeeping. `det` pivots
in place, and when either pivot is zero it hands this state to Bareiss's
row-pivoted elimination, which also runs all of non-symmetric input.
`char_poly` and `det_cofactor` share no code with `psd_det` and `det`,
so the tests use them as independent routes.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Sequence


class _Frozen:
    """Base of the package's immutable value types. Each subclass names
    its fields in `__slots__` and sets them in its own `__init__` with
    `object.__setattr__`. Values are equal when their classes are the same
    and their fields are equal, hash as the tuple of their fields, and
    print as `Name(field=value, ...)`."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle call __init__, not __setattr__
        return self.__class__, self._fields()


class IntMatrix(_Frozen):
    """Square matrix of arbitrary-precision integers, stored as row tuples."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError(f"matrix is not square: {len(row)} entries in a row of a {n}x{n} matrix")

    @property
    def order(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def is_symmetric(self) -> bool:
        return self.rows == tuple(zip(*self.rows))


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_int(value, where: str) -> int:
    """`value` as an int, if it is an int or a string of decimal digits
    with an optional sign. Anything else (bool, float, "1.5", "") raises
    ValueError naming `where` and the value."""
    if type(value) is int:
        return value
    if type(value) is str and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(f"{where}: expected an integer, got {value!r}")


def matrix(rows: Iterable[Iterable[int | str]]) -> IntMatrix:
    """Build an IntMatrix from any nested iterable of ints or decimal
    strings (see `parse_int`)."""
    return IntMatrix(tuple(tuple(x if type(x) is int else parse_int(x, f"matrix entry ({i}, {j})")
                                 for j, x in enumerate(row)) for i, row in enumerate(rows)))


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(zip(*m.rows))) if m.order else m


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.order != b.order:
        raise ValueError("order mismatch")
    bt = list(zip(*b.rows))
    return IntMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.rows))


def _swap(a: list[list[int]], k: int, s: int):
    """Swaps row and column s with row and column k, in place."""
    a[k], a[s] = a[s], a[k]
    for row in a:
        row[k], row[s] = row[s], row[k]


def _pivot_pair(a: list[list[int]], k: int, prev: int) -> int:
    """Two symmetric Bareiss steps on the trailing block a[k:, k:], in one
    pass, in place, on the pivots p = a[k][k] and q, the entry at
    (k+1, k+1) after the first step.

    Row k+1 gets the first step, b_j = (a[k+1][j]*p - a[k+1][k]*a[k][j])
    // prev for j > k, so q = b_{k+1}. Every a[i][j] with i, j > k+1 then
    becomes (a[i][j]*p*q - a[i][k]*q*a[k][j] - b_i*prev*b_j) // (prev*p),
    the second step applied to the first, written in the upper triangle
    and mirrored. Returns q, the next pass's `prev`. Later steps read only
    a[k+2:, k+2:], and row k+1 keeps b, so a[n-1][n-1] is q when k+1 is
    the last index.
    """
    n = len(a)
    r0, r1 = a[k], a[k + 1]
    p, f = r0[k], r1[k]
    for j in range(k + 1, n):
        r1[j] = (r1[j] * p - f * r0[j]) // prev
    q = r1[k + 1]
    pq, den = p * q, prev * p
    for i in range(k + 2, n):
        row = a[i]
        fi, gi = row[k] * q, r1[i] * prev
        for j in range(i, n):
            row[j] = a[j][i] = (row[j] * pq - fi * r0[j] - gi * r1[j]) // den
    return q


def det(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination. Every
    division is exact, so the result is a certificate.

    On symmetric input, `_pivot_pair` takes two diagonal pivots per pass,
    in place, while both are nonzero: a_kk, and a_{k+1,k+1} after one
    step, which is nonzero iff a_{k+1,k+1}*a_kk != a_{k+1,k}^2.
    Row-pivoted elimination finishes from the first k where either is
    zero (all of it on non-symmetric input). The handoff is exact: the
    trailing block is the Bareiss state of A, and `_pivot_pair` has
    written both of its triangles. A zero column gives 0; otherwise the
    last pivot, times the sign of the row swaps, is the determinant.
    """
    n = m.order
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
    k, prev = 0, 1
    if m.is_symmetric():
        while k < n - 1 and a[k][k] and a[k + 1][k + 1] * a[k][k] != a[k + 1][k] ** 2:
            prev = _pivot_pair(a, k, prev)
            k += 2
    sign = 1
    for k in range(k, n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * pivot_row[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


_COFACTOR_MAX_ORDER = 8


def det_cofactor(m: IntMatrix) -> int:
    """Independent determinant oracle: plain cofactor expansion.

    Exponential, deliberately naive; guarded to order <= 8. Used to
    cross-check the elimination path, so it must share no code with it.
    """
    n = m.order
    if n > _COFACTOR_MAX_ORDER:
        raise ValueError(f"cofactor oracle limited to order {_COFACTOR_MAX_ORDER}, got {n}")

    def expand(rows, cols):
        if not cols:
            return 1
        i = rows[0]
        rest = rows[1:]
        total = 0
        for pos, j in enumerate(cols):
            entry = m.rows[i][j]
            if entry == 0:
                continue
            sub = cols[:pos] + cols[pos + 1:]
            term = entry * expand(rest, sub)
            total += term if pos % 2 == 0 else -term
        return total

    idx = tuple(range(n))
    return expand(idx, idx)


class CharPoly(_Frozen):
    """det(xI - M) with exact integer coefficients, ascending by power."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)


def char_poly(m: IntMatrix) -> CharPoly:
    """Characteristic polynomial via Faddeev-LeVerrier.

    The recurrence M_k = A*M_{k-1} + c_{n-k+1}*I, c_{n-k} = -tr(A*M_k)/k
    only ever divides traces that are exact multiples of k, so the whole
    computation stays in the integers.
    """
    n = m.order
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = identity(n)
    for k in range(1, n + 1):
        am = matmul(m, mk)
        trace = sum(am[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible; non-integer input?")
        coeffs[n - k] = q
        if k < n:
            mk = IntMatrix(tuple(
                tuple(am[i][j] + (q if i == j else 0) for j in range(n))
                for i in range(n)))
    return CharPoly(tuple(coeffs))


def psd_det(m: IntMatrix) -> int | None:
    """Exact determinant of a symmetric integer matrix if it is positive
    semidefinite, and None if it is not, by fraction-free (Bareiss)
    elimination on positive diagonal pivots.

    Each single step k looks at the trailing block A = a[k:, k:]. A
    negative diagonal entry, or a zero diagonal entry with a nonzero entry
    in its row, is a negative 1x1 or 2x2 principal minor, so A is not PSD.
    If no diagonal entry is positive, A is all zero, hence PSD and
    singular. Otherwise the step pivots on the first positive diagonal
    entry p = a_ss. All-zero rows stay all zero and are never chosen as
    pivots, and they do not change PSD-ness.

    `_pivot_pair` takes two such steps per pass. The first pivot p is
    checked on the block as it stands; when k is the last index, p is
    the determinant. The second step's checks run on the diagonal after
    one step, prev * d_t = a_tt*p - a_kt^2 for t > k, which has the sign
    of d_t as prev > 0, and a zero d_t's row after one step is computed
    only then. The first positive d_t is swapped to k+1; if there is
    none, the block after one step is zero and the result is 0. So every
    None, 0 or determinant is the one single steps give.

    Every step keeps PSD-ness: the new trailing block is (p/prev) times
    the Schur complement A/a_ss, with p, prev > 0, and for a_ss > 0 the
    matrix A is PSD iff A/a_ss is. The symmetric swap conjugates by a
    permutation, which keeps PSD-ness and the determinant, so when every
    step finds a pivot the last one is det(P A P^T) = det(A).
    """
    if not m.is_symmetric():
        raise ValueError("the PSD test requires a symmetric matrix")
    a = [list(row) for row in m.rows]
    n = len(a)
    prev = 1
    for k in range(0, n, 2):
        pivot = None
        for i in range(k, n):
            row = a[i]
            d = row[i]
            if d < 0:
                return None
            if d:
                if pivot is None:
                    pivot = i
            elif any(row[k:]):
                return None
        if pivot is None:
            return 0
        if pivot != k:
            _swap(a, k, pivot)
        r0 = a[k]
        p = r0[k]
        if k == n - 1:
            return p
        pivot = None
        for t in range(k + 1, n):
            row = a[t]
            f = row[k]
            d = row[t] * p - f * f  # prev > 0 times the diagonal entry after one step
            if d < 0:
                return None
            if d:
                if pivot is None:
                    pivot = t
            elif any(x * p != f * y for x, y in zip(row[k + 1:], r0[k + 1:])):
                return None
        if pivot is None:
            return 0
        if pivot != k + 1:
            _swap(a, k + 1, pivot)
        prev = _pivot_pair(a, k, prev)
    return prev


def is_psd(m: IntMatrix) -> bool:
    """Exact positive-semidefiniteness test for symmetric integer matrices.

    First an O(n^2) certificate, row-sum diagonal dominance (Gershgorin;
    not the max-dominant class of `has_dominant_diagonal`): if every row
    has 2 a_ii >= sum_j |a_ij|, that is a_ii >= sum_{j != i} |a_ij| (which
    forces a_ii >= 0), then m is PSD, since 2|x_i x_j| <= x_i^2 + x_j^2
    and |a_ij| = |a_ji| give
    x^T A x >= sum_i a_ii x_i^2 - sum_{i != j} |a_ij| |x_i x_j|
            >= sum_i (a_ii - sum_{j != i} |a_ij|) x_i^2 >= 0.
    Every truncated (signless) Laplacian passes it: its root edges make
    up the slack. Otherwise `psd_det` decides: m is PSD iff it finds a
    determinant. `psd_det` cannot take this shortcut, as it must still
    return the determinant.
    """
    if not m.is_symmetric():
        raise ValueError("the PSD test requires a symmetric matrix")
    if all(2 * row[i] >= sum(map(abs, row)) for i, row in enumerate(m.rows)):
        return True
    return psd_det(m) is not None


def has_dominant_diagonal(m: IntMatrix) -> bool:
    """True iff m is symmetric with nonnegative entries and every diagonal
    entry is at least every off-diagonal entry of its row: the paper's
    max-dominant class of J_H, not the row-sum dominance `is_psd` tests."""
    if not m.is_symmetric():
        return False
    for i, row in enumerate(m.rows):  # max(row) takes row[i] too, which never exceeds itself
        if min(row) < 0 or max(row) > row[i]:
            return False
    return True


def principal_submatrix(m: IntMatrix, keep: Sequence[int]) -> IntMatrix:
    """Rows and columns restricted to `keep`, in the given order.

    Passing a permutation of range(order) conjugates by the corresponding
    permutation matrix.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("empty index selection")
    n = m.order
    seen = set()
    for i in keep:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for order {n}")
        if i in seen:
            raise ValueError(f"index {i} repeated")
        seen.add(i)
    return IntMatrix(tuple(tuple(m[i][j] for j in keep) for i in keep))


def matrix_from_json(text: str) -> IntMatrix:
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix JSON must be an array of rows")
    return matrix(data)
