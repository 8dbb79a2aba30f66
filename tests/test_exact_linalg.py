import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkdet.exact_linalg import (
    char_poly,
    det,
    det_cofactor,
    has_dominant_diagonal,
    identity,
    is_psd,
    matmul,
    matrix,
    matrix_from_json,
    matrix_to_json,
    parse_int,
    principal_submatrix,
    transpose,
)

QT_K4 = matrix([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
LT_K4 = matrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])


def small_matrices(order_max=5, entry=6):
    return st.integers(min_value=1, max_value=order_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-entry, max_value=entry), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ).map(matrix)


def test_det_examples():
    assert det(identity(3)) == 1
    # frozen from the cofactor oracle
    assert det_cofactor(QT_K4) == 20
    assert det(QT_K4) == 20
    assert det_cofactor(LT_K4) == 16
    assert det(LT_K4) == 16


def test_det_singular_and_signs():
    assert det(matrix([[1, 2], [2, 4]])) == 0
    assert det(matrix([[0, 1], [1, 0]])) == -1
    assert det(matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1


def test_cofactor_guard():
    big = identity(9)
    with pytest.raises(ValueError):
        det_cofactor(big)


@given(small_matrices(order_max=6))
def test_det_matches_cofactor_oracle(m):
    assert det(m) == det_cofactor(m)


@given(small_matrices(), st.randoms(use_true_random=False))
def test_det_permutation_invariant(m, rnd):
    perm = list(range(m.order))
    rnd.shuffle(perm)
    assert det(principal_submatrix(m, perm)) == det(m)


def test_char_poly_examples():
    assert char_poly(matrix([[2, 1], [1, 2]])).coeffs == (3, -4, 1)
    assert char_poly(matrix([[0, 0], [0, 0]])).coeffs == (0, 0, 1)
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    assert char_poly(matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])).coeffs == (-6, 11, -6, 1)


@given(small_matrices())
def test_char_poly_constant_term_is_signed_det(m):
    cp = char_poly(m)
    assert cp.coeffs[0] == (-1) ** m.order * det(m)
    assert cp.coeffs[-1] == 1


@given(small_matrices(order_max=4, entry=4), st.integers(min_value=-6, max_value=6))
def test_char_poly_eval_matches_cofactor(m, x):
    shifted = matrix([
        [(x if i == j else 0) - m[i][j] for j in range(m.order)]
        for i in range(m.order)
    ])
    assert char_poly(m).eval(x) == det_cofactor(shifted)


def test_is_psd_examples():
    assert is_psd(matrix([[2, 1], [1, 2]]))
    assert not is_psd(matrix([[1, 2], [2, 1]]))
    assert is_psd(matrix([[0, 0], [0, 0]]))


def test_is_psd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_psd(matrix([[1, 2], [0, 1]]))


@given(small_matrices(order_max=4, entry=3))
def test_gram_matrices_are_psd(b):
    assert is_psd(matmul(transpose(b), b))


def test_dominant_class_examples():
    assert has_dominant_diagonal(QT_K4)
    assert not has_dominant_diagonal(matrix([[1, 2], [2, 3]]))
    assert has_dominant_diagonal(matrix([[0, 0], [0, 0]]))
    assert not has_dominant_diagonal(LT_K4)  # negative entries


def test_principal_submatrix():
    assert principal_submatrix(QT_K4, range(3)) == QT_K4
    assert principal_submatrix(QT_K4, [0, 1]) == matrix([[3, 1], [1, 3]])
    assert principal_submatrix(QT_K4, [2]) == matrix([[3]])
    with pytest.raises(ValueError):
        principal_submatrix(QT_K4, [])


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix([[1, 2], [3]])


def test_json_round_trip():
    text = matrix_to_json(QT_K4)
    assert json.loads(text) == [["3", "1", "1"], ["1", "3", "1"], ["1", "1", "3"]]
    assert matrix_from_json(text) == QT_K4


def test_parse_int_accepts_ints_and_decimal_strings():
    assert [parse_int(v, "x") for v in (7, -3, "12", "-4", "+5")] == [7, -3, 12, -4, 5]


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.7, "1.5", "2.0", "", "1e3", " 1", None])
def test_parse_int_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="where: expected an integer"):
        parse_int(bad, "where")


@pytest.mark.parametrize("text", ['[[true, 0], [0, 1]]', '[[1.7, 0], [0, 1]]', '[["1.5", "0"], ["0", "1"]]',
                                  '[1, 2]'])
def test_matrix_json_rejects_non_integers(text):
    with pytest.raises(ValueError):
        matrix_from_json(text)
