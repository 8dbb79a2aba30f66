from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkdet import formulas
from parkdet.exact_linalg import det
from parkdet.formulas import (
    FormulaDomainError,
    flat_parking_count,
    parking_dim_complete,
    root_deleted_signless_det,
    skeleton1_dim_complete,
    steck_count,
    step_weight_dim,
    step_weight_identity_holds,
)
from parkdet.monomial_ideals import lambda_ideal, step_weight_ideal
from parkdet.multigraph import complete_minus_root_edges, laplacians
from parkdet.standard_count import count_standard
from oracles import count_lambda_parking, is_lambda_parking, steck_poly_flat, steck_poly_progression


def test_steck_count_examples():
    assert steck_count((2, 1)) == 3
    assert steck_count((3, 2, 1)) == 16
    assert steck_count((3, 2, 2)) == 20


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_steck_count_matches_brute_force(raw):
    lam = tuple(sorted(raw, reverse=True))
    assert steck_count(lam) == count_lambda_parking(lam)


def test_poly_examples():
    assert flat_parking_count(1, 5) == 6
    assert flat_parking_count(3, 2) == 20
    assert factorial(3) * steck_poly_flat(3, 1, 2) == 20
    assert steck_count((3, 2, 2)) == 20


def test_flat_parking_count_at_zero_and_outside_its_domain():
    # at x = 0 only the zero vector fits below (1,) and nothing below (1, 0, ...)
    assert flat_parking_count(1, 0) == 1
    assert [flat_parking_count(l, 0) for l in range(2, 6)] == [0] * 4
    # the polynomial gives 4 and -1 here, but no vector fits below a negative entry
    for l, x in [(3, -2), (2, -1), (1, -1)]:
        with pytest.raises(FormulaDomainError, match=f"x must be >= 0, got {x}"):
            flat_parking_count(l, x)
    with pytest.raises(FormulaDomainError, match="l must be >= 1, got 0"):
        flat_parking_count(0, 3)


@pytest.mark.parametrize("n", [*range(1, 6), 12, 20])
@pytest.mark.parametrize("b", range(1, 4))
@pytest.mark.parametrize("x", range(1, 4))
def test_polys_match_steck_determinants(n, b, x):
    progression = tuple(x + k * b for k in reversed(range(n)))
    flat = (x + b,) + (x,) * (n - 1)
    assert factorial(n) * steck_poly_progression(n, b, x) == steck_count(progression)
    assert factorial(n) * steck_poly_flat(n, b, x) == steck_count(flat)


def test_dim_complete_examples():
    assert skeleton1_dim_complete(3, 1, 1) == 20
    assert skeleton1_dim_complete(2, 1, 1) == 3
    assert parking_dim_complete(3, 1, 1) == 16


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("a", range(1, 4))
@pytest.mark.parametrize("b", range(1, 4))
def test_skeleton1_dim_agrees_with_flat_poly(n, a, b):
    # the same quantity written through the Steck polynomials
    value = factorial(n) * steck_poly_flat(n, b, a + (n - 2) * b)
    assert value == skeleton1_dim_complete(n, a, b)


def test_root_deleted_signless_det_examples():
    assert root_deleted_signless_det(3, 0) == 20
    assert root_deleted_signless_det(3, 1) == 12
    assert root_deleted_signless_det(3, 3) == 4
    assert root_deleted_signless_det(2, 1) == 1
    assert root_deleted_signless_det(2, 2) == 0
    with pytest.raises(FormulaDomainError):
        root_deleted_signless_det(1, 0)
    with pytest.raises(FormulaDomainError):
        root_deleted_signless_det(3, 4)


@pytest.mark.parametrize("n", range(2, 11))
def test_root_deleted_det_matches_elimination(n):
    for r in range(n + 1):
        g = complete_minus_root_edges(n, r)
        assert root_deleted_signless_det(n, r) == det(laplacians(g).qtilde)


def root_deleted_fraction(n: int, r: int) -> Fraction:
    """The closed form of `root_deleted_signless_det` in Fractions, the
    leading factor (n-1)^(n-r-1) rational at r = n."""
    bracket = (2 * n - 1) * (n - 2) ** r + (r * (n - 2) ** (r - 1) if r else 0)
    return Fraction(n - 1) ** (n - r - 1) * bracket


def test_root_deleted_det_int_route_matches_fraction_oracle():
    for n in range(2, 41):
        for r in range(n + 1):
            assert root_deleted_signless_det(n, r) == root_deleted_fraction(n, r), (n, r)


def test_step_weight_dim_examples():
    assert step_weight_dim(3, 1, 3) == 12
    assert step_weight_dim(3, 3, 3) == 4
    for n in range(1, 5):
        for a in range(2, 5):
            assert step_weight_dim(n, 0, a) == flat_parking_count(n, a - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_step_weight_dim_matches_enumeration(n):
    for r in range(n + 1):
        for a in range(2, 6):
            assert step_weight_dim(n, r, a) == count_standard(step_weight_ideal(n, r, a))


def test_identity_examples():
    assert step_weight_identity_holds(2, 5)
    assert step_weight_identity_holds(4, 0)
    with pytest.raises(FormulaDomainError):
        step_weight_identity_holds(3, 1)


def test_identity_grid():
    for n in range(0, 9):
        for a in list(range(-5, 1)) + list(range(2, 11)):
            assert step_weight_identity_holds(n, a)


def test_lambda_validation():
    with pytest.raises(FormulaDomainError):
        steck_count((1, 2))
    with pytest.raises(FormulaDomainError):
        steck_count(())


@pytest.mark.parametrize("check", [
    steck_count,
    lambda_ideal,
    lambda lam: is_lambda_parking((0,) * len(lam), lam),
    count_lambda_parking,
], ids=["steck_count", "lambda_ideal", "is_lambda_parking", "count_lambda_parking"])
@pytest.mark.parametrize("lam", [(2.5, 1), ("3", 1), (True, 1)], ids=repr)
def test_lambda_entries_must_be_ints(check, lam):
    with pytest.raises(FormulaDomainError, match=f"sequence entries must be ints, got {lam[0]!r}"):
        check(lam)


@pytest.mark.parametrize("lam", [(0,), (-1,), (0, 0)], ids=repr)
def test_count_lambda_parking_checks_an_empty_box(lam):
    # the box [0, lam[0])^n is empty here, so no point of it checks lam
    with pytest.raises(FormulaDomainError, match="nonincreasing and >= 1"):
        count_lambda_parking(lam)


def test_closed_forms_do_not_call_det(monkeypatch):
    # keeps det an independent check on these closed forms
    def refuse(m):
        raise AssertionError("a closed form called det")

    monkeypatch.setattr(formulas, "det", refuse)
    assert parking_dim_complete(3, 1, 1) == 16
    assert skeleton1_dim_complete(3, 1, 1) == 20
    assert [root_deleted_signless_det(3, r) for r in range(4)] == [20, 12, 7, 4]
    assert step_weight_dim(3, 1, 3) == 12
