"""Exact dense integer linear algebra on small matrices.

Everything here is certified arithmetic: determinants come from
fraction-free (Bareiss) elimination over Python ints, the characteristic
polynomial from the Faddeev-LeVerrier recurrence (all divisions exact),
and positive semidefiniteness is decided from the signs of the
characteristic coefficients rather than from floating-point eigenvalues.
No floats appear anywhere.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of arbitrary-precision integers, stored as row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"matrix is not square: {len(row)} entries in a row of a {n}x{n} matrix")

    @property
    def order(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def is_symmetric(self) -> bool:
        r = self.rows
        n = len(r)
        return all(r[i][j] == r[j][i] for i in range(n) for j in range(i + 1, n))


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


def det(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Intermediate entries stay integral (each division is exact), so the
    result is a certificate, not an approximation.
    """
    n = m.order
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
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


@dataclass(frozen=True)
class CharPoly:
    """det(xI - M) with exact integer coefficients, ascending by power."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


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


def is_psd(m: IntMatrix) -> bool:
    """Exact positive-semidefiniteness test for symmetric integer matrices.

    Writing det(xI - M) = x^n - e1 x^{n-1} + e2 x^{n-2} - ..., the matrix
    is PSD iff every e_k >= 0: a symmetric matrix has all-real spectrum,
    and with all e_k >= 0 the polynomial has no negative root (its value
    at -t for t > 0 is (-1)^n times a sum of nonnegative terms including
    t^n), while any negative e_k forces a negative elementary symmetric
    function of the eigenvalues.
    """
    if not m.is_symmetric():
        raise ValueError("is_psd requires a symmetric matrix")
    cp = char_poly(m)
    n = m.order
    for k in range(1, n + 1):
        e_k = cp.coeffs[n - k] if k % 2 == 0 else -cp.coeffs[n - k]
        if e_k < 0:
            return False
    return True


def has_dominant_diagonal(m: IntMatrix) -> bool:
    """True iff m is symmetric with nonnegative entries and every diagonal
    entry is at least every off-diagonal entry of its row."""
    if not m.is_symmetric():
        return False
    n = m.order
    for i in range(n):
        if any(x < 0 for x in m[i]):
            return False
        if any(m[i][j] > m[i][i] for j in range(n) if j != i):
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
    for i in keep:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for order {n}")
    return IntMatrix(tuple(tuple(m[i][j] for j in keep) for i in keep))


def matrix_to_json(m: IntMatrix) -> str:
    """Serialize as nested JSON arrays of decimal strings (bigint safe)."""
    return json.dumps([[str(x) for x in row] for row in m.rows])


def matrix_from_json(text: str) -> IntMatrix:
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix JSON must be an array of rows")
    return matrix(data)
