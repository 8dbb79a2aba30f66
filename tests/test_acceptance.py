"""Acceptance criteria, one test per criterion.

Every relation here is exact (integers and ideal equalities; zero
tolerance). Each test prints a single PASS/FAIL line; run with
`pytest tests/test_acceptance.py -s` to see them.
"""

from contextlib import contextmanager
from itertools import combinations_with_replacement
from math import factorial

from parkdet.exact_linalg import det, is_psd, matrix
from parkdet.formulas import (
    root_deleted_signless_det,
    skeleton1_dim_complete,
    steck_count,
    step_weight_dim,
    step_weight_identity_holds,
)
from parkdet.monomial_ideals import (
    colon,
    lambda_ideal,
    parking_ideal,
    skeleton_ideal,
    step_weight_ideal,
)
from parkdet.multigraph import (
    complete_minus_root_edges,
    complete_multigraph,
    laplacians,
)
from parkdet.standard_count import count_standard
from parkdet.suites import (
    suite_decomp,
    suite_ineq,
    suite_mt,
    suite_properties,
    suite_rc,
)
from oracles import count_lambda_parking, steck_poly_flat, steck_poly_progression

SEED = 20250810


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def test_criterion_1_complete_graph_identities():
    with criterion(1, "complete-graph dimension identities for n = 2..5"):
        parking_expected = {2: 3, 3: 16, 4: 125, 5: 1296}
        for n in range(2, 6):
            g = complete_multigraph(n, 1, 1)
            assert count_standard(parking_ideal(g)) == (n + 1) ** (n - 1) == parking_expected[n]
            skel = count_standard(skeleton_ideal(g, 1))
            assert skel == (n - 1) ** (n - 1) * (2 * n - 1)
            assert skel == det(laplacians(g).qtilde)


def test_criterion_2_complete_multigraph_formula():
    with criterion(2, "complete-multigraph 1-skeleton dimension = closed form = det"):
        for n in range(1, 5):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    g = complete_multigraph(n, a, b)
                    dim = count_standard(skeleton_ideal(g, min(1, n - 1)))
                    assert dim == skeleton1_dim_complete(n, a, b)
                    assert dim == det(laplacians(g).qtilde)


def test_criterion_3_root_deleted_grid():
    with criterion(3, "root-deleted complete graphs: enumeration = Bareiss = closed form"):
        for n in range(2, 6):
            for r in range(n + 1):
                g = complete_minus_root_edges(n, r)
                dim = count_standard(skeleton_ideal(g, 1))
                assert dim == det(laplacians(g).qtilde)
                assert dim == root_deleted_signless_det(n, r)


def test_criterion_4_random_root_deletions():
    with criterion(4, "100 seeded root deletions: dimension = determinant"):
        report = suite_rc(n_max=5, a_max=3, b_max=3, trials=100, seed=SEED)
        randoms = [t for t in report.trials if t.formula is None]
        assert len(randoms) == 100
        assert report.exit_code == 0
        for t in report.trials:
            assert t.dim == t.det


def test_criterion_5_dimension_dominates_determinant():
    with criterion(5, "200 seeded multigraphs: dimension >= determinant, strict witness"):
        report = suite_ineq(n_max=5, mult_max=3, trials=200, seed=SEED)
        assert len(report.trials) == 201
        assert report.exit_code == 0
        witness = report.trials[0]
        assert witness.instance["label"] == "P4"
        assert (witness.dim, witness.det) == (2, 1)
        for t in report.trials:
            assert t.dim >= t.det


def test_criterion_6_psd_matrices():
    with criterion(6, "100 certified PSD dominant matrices: dimension >= determinant"):
        report = suite_mt(n_max=5, entry_max=6, trials=100, seed=SEED)
        assert len(report.trials) == 100
        assert report.exit_code == 0
        for t in report.trials:
            h = matrix(t.instance["rows"])
            assert max(max(row) for row in h.rows) <= 6
            assert is_psd(h)  # re-certify from the recorded instance
            assert t.dim >= t.det


def test_criterion_7_steck_counts():
    with criterion(7, "Steck determinant counts match brute force and ideals"):
        for n in range(1, 5):
            for raw in combinations_with_replacement(range(1, 5), n):
                lam = tuple(sorted(raw, reverse=True))
                count = steck_count(lam)
                assert count == count_lambda_parking(lam)
                assert count == count_standard(lambda_ideal(lam))
        for n in range(1, 6):
            for b in (1, 2, 3):
                for x in (1, 2, 3):
                    progression = tuple(x + k * b for k in reversed(range(n)))
                    flat = (x + b,) + (x,) * (n - 1)
                    assert factorial(n) * steck_poly_progression(n, b, x) == steck_count(progression)
                    assert factorial(n) * steck_poly_flat(n, b, x) == steck_count(flat)


def test_criterion_8_colon_identity_and_recurrence():
    with criterion(8, "colon identity, dimension recurrence and alternating sum"):
        for n in range(1, 6):
            for a in range(2, 6):
                for r in range(1, n + 1):
                    prev = step_weight_ideal(n, r - 1, a)
                    cur = step_weight_ideal(n, r, a)
                    x = tuple(1 if i == n - r else 0 for i in range(n))
                    assert colon(prev, x) == cur
                    small = step_weight_ideal(n - 1, r - 1, a)
                    assert count_standard(cur) == count_standard(prev) - count_standard(small)
                for r in range(n + 1):
                    assert step_weight_dim(n, r, a) == count_standard(step_weight_ideal(n, r, a))


def test_criterion_9_step_weight_identity():
    with criterion(9, "structural ideal identity and numeric identity grids"):
        for n in range(1, 6):
            for a in range(2, 6):
                assert step_weight_ideal(n, n, a) == step_weight_ideal(n, 0, a - 1)
        for n in range(0, 9):
            for a in list(range(-5, 1)) + list(range(2, 11)):
                assert step_weight_identity_holds(n, a)


def test_criterion_10_decomposition_identities():
    with criterion(10, "four splitting identities on 50 seeded instances each"):
        report = suite_decomp(trials=50, seed=SEED)
        assert report.exit_code == 0
        ran = {key: 0 for key in "abcd"}
        for t in report.trials:
            if "skipped" not in t.instance:
                ran[t.instance["identity"]] += 1
        # (a)/(b) draws with no root edge are skipped-and-replaced, and
        # (c)/(d) always have a pivot, so each identity gets exactly 50
        # checked instances
        for key in "abcd":
            assert ran[key] == 50, f"identity ({key}) ran {ran[key]} times"


def test_criterion_11_property_suites():
    with criterion(11, "oracle agreement, Hadamard/Fischer, permutation invariance, monotonicity"):
        report = suite_properties(seed=SEED)
        assert report.exit_code == 0
        checks = {t.instance["check"] for t in report.trials}
        assert checks == {"oracle-agreement", "hadamard-fischer",
                          "permutation-invariance", "skeleton-monotonicity"}
