import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkdet import exact_linalg
from parkdet.exact_linalg import (
    CharPoly,
    IntMatrix,
    char_poly,
    det,
    det_cofactor,
    has_dominant_diagonal,
    identity,
    is_psd,
    matmul,
    matrix,
    matrix_from_json,
    parse_int,
    principal_submatrix,
    psd_det,
    transpose,
)
from parkdet.formulas import skeleton1_dim_complete
from parkdet.monomial_ideals import MonomialIdeal
from parkdet.multigraph import Multigraph, complete_multigraph, laplacians, random_multigraph
from parkdet.suites import Trial

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


@pytest.mark.parametrize("rows, value", [
    ([[0, 1], [1, 0]], -1),  # zero diagonal: row pivots from the first step
    ([[0, 2], [2, 0]], -4),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2),
    ([[0, 1, 1], [1, 1, 0], [1, 0, 2]], -3),  # a zero a_00 with nonzero a_11
    ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], -1),  # row pivots take over after a pivot
    ([[0, 2, 0, 1], [2, 0, 1, 0], [0, 1, 0, 2], [1, 0, 2, 0]], 9),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 1),
    ([[0] * 4 for _ in range(4)], 0),
])
def test_det_symmetric_zero_diagonals(rows, value):
    m = matrix(rows)
    assert m.is_symmetric()
    assert det(m) == det_cofactor(m) == value


@st.composite
def symmetric_with_zero_diagonals(draw):
    """(m, expected): a symmetric matrix, often with a zero diagonal, or a
    conjugate of diag(B, Z) with B = G^T G + I positive definite and Z
    with a zero diagonal, whose determinant is det(B) * det(Z) (None for
    the first kind). On the second kind `det` takes the order(B) pivots
    of B first, two per pass, and row pivots finish: they take the last
    pivot of B too when order(B) is odd."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=8))
        upper = draw(int_rows(n, n, 2))
        zero_diagonal = draw(st.booleans())
        return matrix([[0 if zero_diagonal and i == j else upper[min(i, j)][max(i, j)] for j in range(n)]
                       for i in range(n)]), None
    nb = draw(st.integers(min_value=1, max_value=6))
    nz = draw(st.integers(min_value=2, max_value=6))
    g = matrix(draw(int_rows(nb, nb, 2)))
    b = matrix([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(matmul(transpose(g), g).rows)])
    upper = draw(int_rows(nz, nz, 2))
    z = matrix([[upper[min(i, j)][max(i, j)] if i != j else 0 for j in range(nz)] for i in range(nz)])
    block = matrix([list(row) + [0] * nz for row in b.rows] + [[0] * nb + list(row) for row in z.rows])
    return principal_submatrix(block, draw(st.permutations(range(nb + nz)))), det(b) * det(z)


@given(symmetric_with_zero_diagonals())
@settings(max_examples=200)
def test_symmetric_det_matches_cofactor_oracle(case):
    m, expected = case
    assert m.is_symmetric()
    if expected is not None:
        assert det(m) == expected
    if m.order <= 8:
        assert det(m) == det_cofactor(m)


def test_symmetric_det_matches_row_pivoted_det_at_order_40():
    qt = laplacians(complete_multigraph(40, 3, 2)).qtilde
    # qtilde is c*I + d*J, so a row transposition P keeps it symmetric
    # (c*P + d*J); a 4-cycle, an odd permutation, does not
    rows = list(qt.rows)
    rotated = matrix(rows[1:4] + rows[:1] + rows[4:])
    assert not rotated.is_symmetric()
    d = det(qt)
    assert det(rotated) == -d
    assert d == skeleton1_dim_complete(40, 3, 2)


def spy_on_pivot_pair(monkeypatch):
    """(k, the block as the kernel got it, q) for each `_pivot_pair` call."""
    calls = []
    kernel = exact_linalg._pivot_pair

    def spy(a, k, prev):
        block = [row[:] for row in a]
        q = kernel(a, k, prev)
        calls.append((k, block, q))
        return q

    monkeypatch.setattr(exact_linalg, "_pivot_pair", spy)
    return calls


def test_det_swaps_in_a_second_pivot(monkeypatch):
    # after one step on a_00 the diagonal is (0, 2): det swaps in no
    # second pivot from further down, and row pivots finish from a_00
    m = matrix([[1, 1, 0], [1, 1, 1], [0, 1, 2]])
    calls = spy_on_pivot_pair(monkeypatch)
    assert det(m) == det_cofactor(m) == -1
    assert calls == []
    assert psd_det(m) is None and not psd_by_char_poly(m)  # its row after one step is (0, 1)


def test_det_breaks_to_row_pivots_without_a_second_pivot(monkeypatch):
    # after one step on a_00 the diagonal is (0, 0), so the row-pivoted
    # phase takes a_00 and finishes
    m = matrix([[1, 1, 1], [1, 1, 2], [1, 2, 1]])
    calls = spy_on_pivot_pair(monkeypatch)
    assert det(m) == det_cofactor(m) == -1
    assert calls == []


def test_psd_det_rejects_a_zero_diagonal_after_one_step_with_a_nonzero_row(monkeypatch):
    # after one step on a_00 the diagonal is (0, 1) and row 1 is (0, -1)
    m = matrix([[1, 1, 1], [1, 1, 0], [1, 0, 2]])
    calls = spy_on_pivot_pair(monkeypatch)
    assert psd_det(m) is None and not psd_by_char_poly(m) and not is_psd(m)
    assert calls == []
    assert det(m) == det_cofactor(m) == -1


@pytest.mark.parametrize("n", range(1, 9))
def test_pivot_pairs_at_odd_and_even_orders(monkeypatch, n):
    # positive definite, so every pivot is a diagonal one: n // 2 passes,
    # and at odd n the last entry after them is the determinant
    calls = spy_on_pivot_pair(monkeypatch)
    for s in range(10):
        qt = laplacians(random_multigraph(n, 3, s)).qtilde
        assert psd_by_char_poly(qt)
        for route in (det, psd_det):
            del calls[:]
            assert route(qt) == det_cofactor(qt)
            assert [k for k, _, _ in calls] == list(range(0, n - 1, 2))


def test_symmetric_phase_of_order_40_is_all_pivot_pairs(monkeypatch):
    # Q~(K_41): 20 passes cover all 40 indices, so no row-pivoted step
    # runs, and the last pass's second pivot is the determinant
    qt = laplacians(complete_multigraph(40, 1, 1)).qtilde
    calls = spy_on_pivot_pair(monkeypatch)
    d = det(qt)
    assert [k for k, _, _ in calls] == list(range(0, 40, 2))
    assert d == calls[-1][2] == skeleton1_dim_complete(40, 1, 1)


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
    assert sum(c * x**k for k, c in enumerate(char_poly(m).coeffs)) == det_cofactor(shifted)


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


def psd_by_char_poly(m):
    # independent oracle: with det(xI - M) = x^n - e1 x^{n-1} + e2 x^{n-2}
    # - ..., a symmetric M is PSD iff every e_k >= 0
    coeffs = char_poly(m).coeffs
    n = m.order
    return all((-1) ** k * coeffs[n - k] >= 0 for k in range(1, n + 1))


def int_rows(r, n, entry):
    return st.lists(st.lists(st.integers(min_value=-entry, max_value=entry), min_size=n, max_size=n),
                    min_size=r, max_size=r)


@st.composite
def symmetric_matrices(draw, kind):
    n = draw(st.integers(min_value=2 if kind == "zero-diagonal" else 1, max_value=7))
    if kind == "deficient-gram":
        # B^T B for an r x n matrix B with r < n: PSD and singular
        b = draw(int_rows(draw(st.integers(min_value=0, max_value=n - 1)), n, 3))
        return matrix([[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)])
    a = draw(int_rows(n, n, 4))
    if kind == "weakly-dominant":
        # mixed-sign off-diagonals, each diagonal entry its row's
        # off-diagonal absolute sum plus 0 or 1: PSD by Gershgorin, and
        # singular when the rows that get 0 make it so
        s = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        for i, row in enumerate(s):
            row[i] = sum(abs(x) for j, x in enumerate(row) if j != i) + draw(st.integers(0, 1))
        return matrix(s)
    s = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    if kind == "zero-diagonal":
        # s_ii = 0 with s_ij != 0: the principal minor on {i, j} is negative
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.sampled_from([j for j in range(n) if j != i]))
        s[i][i] = 0
        s[i][j] = s[j][i] = s[i][j] or 1
    return matrix(s)


@pytest.mark.parametrize("kind", ["deficient-gram", "symmetrized", "zero-diagonal", "weakly-dominant"])
@given(data=st.data())
def test_is_psd_matches_char_poly_oracle(kind, data):
    m = data.draw(symmetric_matrices(kind))
    assert is_psd(m) == psd_by_char_poly(m)
    if kind in ("deficient-gram", "weakly-dominant"):
        assert is_psd(m)
    if kind == "zero-diagonal":
        assert not is_psd(m)


def spy_on_psd_det(monkeypatch):
    """The matrices `is_psd` hands to `psd_det` from now on."""
    calls = []

    def spy(m):
        calls.append(m)
        return psd_det(m)

    monkeypatch.setattr(exact_linalg, "psd_det", spy)
    return calls


def test_is_psd_at_order_40(monkeypatch):
    calls = spy_on_psd_det(monkeypatch)
    lap = laplacians(complete_multigraph(40, 3, 2))
    assert lap.qtilde.order == 40 and is_psd(lap.qtilde) and is_psd(lap.ltilde)
    assert calls == []  # certified by diagonal dominance, nothing eliminated
    # as in the psd-certify benchmark: m_ij = m_ji = m_ii + m_jj + 1 makes
    # the principal minor on {i, j} negative
    rows = [list(row) for row in lap.qtilde.rows]
    rows[5][31] = rows[31][5] = rows[5][5] + rows[31][31] + 1
    assert not is_psd(matrix(rows))
    assert calls == [matrix(rows)]


def test_is_psd_edge_cases():
    assert is_psd(matrix([]))
    assert not is_psd(matrix([[-1]]))
    assert not is_psd(matrix([[0, 1], [1, 0]]))
    assert is_psd(matrix([[0] * 5 for _ in range(5)]))


def test_is_psd_does_not_call_char_poly(monkeypatch):
    # keeps char_poly an independent oracle for is_psd, and det_cofactor
    # one for det and is_psd
    def refuse(m):
        raise AssertionError("an oracle was called")

    monkeypatch.setattr(exact_linalg, "char_poly", refuse)
    monkeypatch.setattr(exact_linalg, "det_cofactor", refuse)
    calls = spy_on_psd_det(monkeypatch)
    # both branches: truncated Laplacians are diagonally dominant, so
    # is_psd certifies them without eliminating ...
    assert is_psd(QT_K4) and is_psd(LT_K4)
    assert is_psd(matrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]]))
    for seed in range(30):
        lap = laplacians(random_multigraph(1 + seed % 7, 3, seed))
        assert is_psd(lap.ltilde) and is_psd(lap.qtilde)
    assert calls == []
    # ... and elimination decides the rest, PSD or not
    assert is_psd(matrix([[1, 2], [2, 4]]))
    assert not is_psd(matrix([[1, 2], [2, 1]]))
    assert calls == [matrix([[1, 2], [2, 4]]), matrix([[1, 2], [2, 1]])]
    assert det(QT_K4) == 20
    assert det(matrix([[0, 1], [1, 0]])) == -1
    assert det(matrix([[1, 2], [3, 4]])) == -2


@pytest.mark.parametrize("kind", ["deficient-gram", "symmetrized", "zero-diagonal", "weakly-dominant"])
@given(data=st.data())
def test_psd_det_is_det_on_psd_input_and_none_otherwise(kind, data):
    m = data.draw(symmetric_matrices(kind))
    if psd_by_char_poly(m):
        assert psd_det(m) == det(m) == det_cofactor(m)
    else:
        assert psd_det(m) is None


def test_psd_det_examples():
    assert psd_det(matrix([])) == 1
    assert psd_det(QT_K4) == 20
    assert psd_det(matrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]])) == 0
    assert psd_det(matrix([[0] * 3 for _ in range(3)])) == 0
    assert psd_det(matrix([[1, 2], [2, 1]])) is None
    assert psd_det(matrix([[0, 1], [1, 0]])) is None
    assert psd_det(laplacians(complete_multigraph(40, 3, 2)).qtilde) == skeleton1_dim_complete(40, 3, 2)
    with pytest.raises(ValueError):
        psd_det(matrix([[1, 2], [0, 1]]))


def dominant_by_entries(m):
    # the per-entry definition, as the oracle of the row-wise test
    n = m.order
    return m.is_symmetric() and all(
        all(x >= 0 for x in m[i]) and not any(m[i][j] > m[i][i] for j in range(n) if j != i)
        for i in range(n))


@st.composite
def near_dominant_matrices(draw):
    # nonnegative and symmetric, with diagonals near the row maxima, so
    # that both answers are common
    n = draw(st.integers(min_value=1, max_value=5))
    a = draw(int_rows(n, n, 3))
    return matrix([[abs(a[i][j]) + (i == j) if i <= j else abs(a[j][i]) for j in range(n)]
                   for i in range(n)])


@given(st.one_of(small_matrices(entry=3), symmetric_matrices("symmetrized"), near_dominant_matrices()))
def test_dominant_diagonal_matches_per_entry_definition(m):
    assert has_dominant_diagonal(m) == dominant_by_entries(m)


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
    with pytest.raises(ValueError, match="index 0 repeated"):
        principal_submatrix(matrix([[2, 1], [1, 3]]), [0, 0])
    with pytest.raises(ValueError, match="index 2 repeated"):
        principal_submatrix(QT_K4, [2, 1, 2])


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix([[1, 2], [3]])


def test_json_round_trip():
    assert matrix_from_json('[["3", "1", "1"], ["1", "3", "1"], ["1", "1", "3"]]') == QT_K4


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


# Each frozen value type: a maker called twice for two equal values, a value
# that differs in one field, and the repr the dataclass it replaced wrote.
FROZEN = {
    "IntMatrix": (lambda: IntMatrix(((1,),)), IntMatrix(((2,),)), "IntMatrix(rows=((1,),))"),
    "CharPoly": (lambda: CharPoly((-3, 1)), CharPoly((-3, 2)), "CharPoly(coeffs=(-3, 1))"),
    "Multigraph": (lambda: Multigraph(1, ((0, 2), (2, 0))), Multigraph(1, ((0, 1), (1, 0))),
                   "Multigraph(n=1, adj=((0, 2), (2, 0)))"),
    "MonomialIdeal": (lambda: MonomialIdeal(2, ((1, 0), (2, 0), (0, 1))), MonomialIdeal(2, ((1, 0),)),
                      "MonomialIdeal(nvars=2, gens=((0, 1), (1, 0)))"),
    "Trial": (lambda: Trial(0, {"label": "x"}, 1, 2, None, "eq", False),
              Trial(0, {"label": "x"}, 1, 2, None, "eq", True),
              "Trial(id=0, instance={'label': 'x'}, dim=1, det=2, formula=None, relation='eq', passed=False)"),
}
HASHABLE = ["IntMatrix", "CharPoly", "Multigraph", "MonomialIdeal"]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_compare_by_fields(name):
    make, other, text = FROZEN[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other
    assert repr(a) == text
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_reject_assignment_and_deletion(name):
    make, _, text = FROZEN[name]
    a = make()
    for field in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


@pytest.mark.parametrize("name", HASHABLE)
def test_frozen_values_are_dict_keys(name):
    make, other, _ = FROZEN[name]
    table = {make(): "a", other: "other"}
    assert table[make()] == "a" and len(table) == 2
    assert hash(make()) == hash(make())


def test_frozen_values_equal_only_their_own_class():
    rows = ((1,),)
    assert IntMatrix(rows) != CharPoly(rows)
    assert IntMatrix(rows).__eq__(CharPoly(rows)) is NotImplemented
    assert IntMatrix(rows).__eq__((rows,)) is NotImplemented
    assert IntMatrix(rows) != (rows,)


def test_trial_is_unhashable():
    # a trial holds its instance as a dict
    make, _, _ = FROZEN["Trial"]
    with pytest.raises(TypeError):
        hash(make())
