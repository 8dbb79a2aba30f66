"""Closed forms: Steck determinants and the product/alternating-sum
expressions for quotient dimensions and truncated signless Laplacian
determinants.

All evaluation is exact and stays in Python ints, with an integrality
check wherever a division is claimed to be exact.
`steck_count` is the `exact_linalg.det` of an integer rescaling of the
Steck matrix; the other closed forms stay independent of `det`, which
they are checked against. Conventions used by the degenerate parameter
edges are documented on each function. `_check_lambda`, the one check of
nonincreasing sequences, is shared by `steck_count`, `lambda_ideal` and
the tests' lambda-parking oracles.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .exact_linalg import IntMatrix, det


class FormulaDomainError(ValueError):
    """Parameter combination outside a formula's domain."""


def _check_lambda(lam: Sequence[int]) -> tuple[int, ...]:
    """lam as a tuple of ints, nonincreasing and >= 1. Entries that are
    not ints (bools included) are rejected, not coerced. The empty
    sequence passes: each caller has its own rule for it."""
    lam = tuple(lam)
    for x in lam:
        if type(x) is not int:  # type, not isinstance: bool is rejected
            raise FormulaDomainError(f"sequence entries must be ints, got {x!r} in {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or (lam and lam[-1] < 1):
        raise FormulaDomainError(f"sequence must be nonincreasing and >= 1, got {lam}")
    return lam


def steck_count(lam: Sequence[int]) -> int:
    """n! times the Steck determinant: the number of vectors whose sorted
    rearrangement stays strictly below the reversed sequence.

    The Steck matrix is upper Hessenberg, with lam[n-i]^(j-i+1) / (j-i+1)!
    at (i, j) for i <= j+1 (1-based) and 0 below. Multiplying column j by
    j! and dividing row i by (i-1)! scales the determinant by exactly n!
    and leaves the integer C(j, i-1) lam[n-i]^(j-i+1) at (i, j), so the
    count is the `det` of that integer matrix."""
    lam = _check_lambda(lam)
    if not lam:
        raise FormulaDomainError("empty sequence")
    n = len(lam)
    result = det(IntMatrix(tuple(
        tuple(comb(j, i - 1) * lam[n - i] ** (j - i + 1) if j >= i - 1 else 0
              for j in range(1, n + 1))
        for i in range(1, n + 1))))
    if result < 0:
        raise ArithmeticError(f"steck_count{lam} evaluated negative: {result}")
    return result


def flat_parking_count(l: int, x: int) -> int:
    """x^(l-1)(x+l): vectors of length l sorted strictly below
    (x+1, x, ..., x)."""
    if l < 1:
        raise FormulaDomainError("l must be >= 1")
    return x ** (l - 1) * (x + l)


def parking_dim_complete(n: int, a: int, b: int) -> int:
    """Quotient dimension of the full ideal of the complete multigraph:
    a(a+nb)^(n-1)."""
    _check_nab(n, a, b)
    return a * (a + n * b) ** (n - 1)


def skeleton1_dim_complete(n: int, a: int, b: int) -> int:
    """Quotient dimension of the 1-skeleton ideal of the complete
    multigraph: (a+(n-2)b)^(n-1) (a+(2n-2)b), which also equals the
    truncated signless Laplacian determinant."""
    _check_nab(n, a, b)
    return (a + (n - 2) * b) ** (n - 1) * (a + (2 * n - 2) * b)


def _check_nab(n: int, a: int, b: int):
    if n < 1 or a < 1 or b < 1:
        raise FormulaDomainError(f"need n, a, b >= 1, got ({n}, {a}, {b})")


def root_deleted_signless_det(n: int, r: int) -> int:
    """Determinant of the truncated signless Laplacian of the complete
    simple graph on n+1 vertices with r root edges removed:

        (n-1)^(n-r-1) * [ (2n-1)(n-2)^r + r(n-2)^(r-1) ]

    evaluated exactly in ints with the conventions 0^0 = 1 and the second
    bracket term vanishing at r = 0. At r = n the leading factor is
    (n-1)^(-1), so the bracket is divided by n - 1, and a nonzero
    remainder raises ArithmeticError. The final value is asserted to be
    nonnegative.
    """
    if n < 2:
        raise FormulaDomainError(f"n must be >= 2, got {n}")
    if not 0 <= r <= n:
        raise FormulaDomainError(f"r must lie in [0, {n}], got {r}")
    bracket = (2 * n - 1) * (n - 2) ** r
    if r > 0:
        bracket += r * (n - 2) ** (r - 1)
    if r < n:
        result = (n - 1) ** (n - r - 1) * bracket
    else:
        result, remainder = divmod(bracket, n - 1)
        if remainder:
            raise ArithmeticError(f"root_deleted_signless_det({n}, {r}) evaluated to non-integer "
                                  f"{bracket}/{n - 1}")
    if result < 0:
        raise FormulaDomainError(f"root_deleted_signless_det({n}, {r}) negative: {result}")
    return result


def _theta(l: int, x: int) -> int:
    """x^(l-1)(x+l) in the simplified rational-function form: l = 0 gives
    1 (x^(-1) * x), and 0^0 counts as 1."""
    return flat_parking_count(l, x) if l else 1


def _alternating_theta_sum(n: int, r: int, a: int) -> int:
    """sum_i (-1)^i C(r, i) theta(n-i, a-1) for i = 0..r."""
    return sum((-1) ** i * comb(r, i) * _theta(n - i, a - 1) for i in range(r + 1))


def step_weight_dim(n: int, r: int, a: int) -> int:
    """Closed form for the quotient dimension of the step-weight ideal:
    the alternating binomial sum of flat parking counts
    sum_i (-1)^i C(r, i) (a-1)^(n-i-1) (a-1+n-i)."""
    if not 0 <= r <= n:
        raise FormulaDomainError(f"r must lie in [0, {n}], got {r}")
    if a < 2:
        raise FormulaDomainError(f"a must be >= 2, got {a}")
    return _alternating_theta_sum(n, r, a)


def step_weight_identity_holds(n: int, a: int) -> bool:
    """Check the combinatorial identity
    (a-2)^(n-1)(a+n-2) = sum_i (-1)^i C(n, i) (a-1)^(n-i-1)(a+n-i-1)
    exactly in integers. a = 1 is excluded: the last summand is then the
    indeterminate 0^(-1) * 0. Both sides are evaluated in the simplified
    rational-function form (the l = 0 term is 1)."""
    if n < 0:
        raise FormulaDomainError(f"n must be >= 0, got {n}")
    if a == 1:
        raise FormulaDomainError("a = 1 is outside the rational form's domain")
    return _theta(n, a - 2) == _alternating_theta_sum(n, n, a)
