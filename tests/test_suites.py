import json
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parkdet.suites as suites_mod
from parkdet.cli import render_reports
from parkdet.exact_linalg import matrix, principal_submatrix
from parkdet.suites import (
    MINIMUMS,
    SUITES,
    Report,
    Trial,
    _find_pivot_permutation,
    _suite,
    default_graph_corpus,
    suite_decomp,
    suite_ineq,
    suite_recurrence,
    suite_matrix_tree,
    suite_mt,
    suite_properties,
    suite_rc,
)


def test_all_suites_pass_with_defaults():
    for name, fn in SUITES.items():
        report = fn()
        assert report.exit_code == 0, f"{name}: {report.failed[:3]}"
        assert report.suite == name
        assert len(report.trials) > 0


def test_matrix_tree_known_counts():
    report = suite_matrix_tree()
    by_label = {t.instance["label"]: t for t in report.trials}
    assert by_label["K4"].dim == 16 and by_label["K4"].det == 16
    assert by_label["K3[a=2,b=1]"].dim == 8
    assert by_label["P4"].dim == 1
    assert by_label["C5"].dim == 5


def test_rc_grid_three_way():
    report = suite_rc(n_max=4, trials=10, seed=1)
    grid = [t for t in report.trials if t.formula is not None]
    assert len(grid) == sum(n + 1 for n in range(2, 5))
    for t in grid:
        assert t.dim == t.det == t.formula
    assert report.exit_code == 0


def test_ineq_strict_witness():
    report = suite_ineq(trials=5, seed=3)
    witness = report.trials[0]
    assert witness.instance["label"] == "P4"
    assert (witness.dim, witness.det) == (2, 1)
    assert all(t.dim >= t.det for t in report.trials if "error" not in t.instance)


def test_mt_certifies_and_holds():
    report = suite_mt(trials=30, seed=5)
    assert report.exit_code == 0
    strategies = {t.instance["strategy"] for t in report.trials}
    assert len(strategies) >= 2  # generator actually rotates


def test_recurrence_suite_values():
    report = suite_recurrence(n_max=3, a_max=3)
    rec = {(t.instance["n"], t.instance["r"], t.instance["a"]): t
           for t in report.trials if t.instance["check"] == "recurrence"}
    t = rec[(2, 1, 2)]
    assert t.dim == 1 and t.det == 3 - 2 and t.formula == 1
    assert report.exit_code == 0


def test_decomp_identities_and_skips():
    for kwargs in ({}, {"trials": 25, "seed": 7}, {"trials": 25, "seed": 20250810}):
        report = suite_decomp(**kwargs)
        assert report.exit_code == 0
        identities = [t.instance["identity"] for t in report.trials]
        assert set(identities) == {"a", "b", "c", "d"}
        for t in report.trials:
            if "skipped" in t.instance:
                assert t.passed  # skips are not failures
                assert t.instance["identity"] in "ab"  # the pivot split always exists
        assert identities.count("c") == identities.count("d") == kwargs.get("trials", 50)


def test_decomp_k4_split():
    # deleting the root edge to vertex 3 of K4 splits 20 = 12 + 8
    from parkdet.multigraph import complete_multigraph, delete_root_edge, merge_into_root, laplacians
    from parkdet.monomial_ideals import skeleton_ideal
    from parkdet.standard_count import count_standard
    from parkdet.exact_linalg import det

    g = complete_multigraph(3, 1, 1)
    g1 = delete_root_edge(g, 3)
    g2 = merge_into_root(g, 3)
    assert det(laplacians(g).qtilde) == 20
    assert det(laplacians(g1).qtilde) == 12
    assert det(laplacians(g2).qtilde) == 8
    assert count_standard(skeleton_ideal(g, 1)) == 20
    assert count_standard(skeleton_ideal(g1, 1)) == 12
    assert count_standard(skeleton_ideal(g2, 1)) == 8


def pivot_permutation_by_search(h):
    # the former n! search, as the oracle of the constructive pivot split
    n = h.order
    b = max(h[i][j] for i in range(n) for j in range(n) if i != j)
    for perm in permutations(range(n)):
        hp = principal_submatrix(h, perm)
        for r in range(n - 1):
            if all(hp[i][r] < b for i in range(r)) and all(hp[r][j] == b for j in range(r + 1, n)):
                return hp, r, b
    return None


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(min_value=0, max_value=20))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(min_value=0, max_value=3))
    return matrix(rows)


@settings(max_examples=200)
@given(symmetric_matrices())
@example(matrix([[3, 1, 1], [1, 3, 1], [1, 1, 3]]))
def test_pivot_permutation_search(h):
    found = _find_pivot_permutation(h)
    assert found == pivot_permutation_by_search(h)
    hp, r, b = found
    assert b == max(h[i][j] for i in range(h.order) for j in range(h.order) if i != j)
    assert all(hp[i][r] < b for i in range(r))
    assert all(hp[r][j] == b for j in range(r + 1, hp.order))


def test_properties_suite_sections():
    report = suite_properties()
    checks = {t.instance["check"] for t in report.trials}
    assert checks == {"oracle-agreement", "hadamard-fischer",
                      "permutation-invariance", "skeleton-monotonicity"}
    assert report.exit_code == 0


def test_properties_suite_follows_the_inclusion_exclusion_guard(monkeypatch):
    # lowering the guard drops the inclusion-exclusion trials above it
    # instead of making the oracle raise inside the suite
    import parkdet.standard_count
    import parkdet.suites

    def ie_instances(report):
        return [t.instance for t in report.trials if t.instance.get("oracle") == "inclusion-exclusion"]

    full = ie_instances(suite_properties())
    sizes = sorted(len(inst["generators"]) for inst in full)
    guard = sizes[len(sizes) // 2]
    assert sizes[0] <= guard < sizes[-1]
    monkeypatch.setattr(parkdet.standard_count, "IE_GENERATOR_GUARD", guard)
    monkeypatch.setattr(parkdet.suites, "IE_GENERATOR_GUARD", guard)
    lowered = suite_properties()
    assert lowered.exit_code == 0
    assert ie_instances(lowered) == [inst for inst in full if len(inst["generators"]) <= guard]


def test_properties_suite_follows_the_enumeration_guard(monkeypatch):
    # lowering the guard drops the enumeration trials above it instead of
    # making the enumerator raise inside the suite
    import parkdet.standard_count
    import parkdet.suites

    def enumerated(report):
        return [(t.instance, t.dim) for t in report.trials if t.instance.get("oracle") == "enumeration"]

    full = enumerated(suite_properties())
    dims = sorted(dim for _, dim in full)
    guard = dims[len(dims) // 2]
    assert dims[0] <= guard < dims[-1]
    monkeypatch.setattr(parkdet.standard_count, "ENUMERATION_GUARD", guard)
    monkeypatch.setattr(parkdet.suites, "ENUMERATION_GUARD", guard)
    lowered = suite_properties()
    assert lowered.exit_code == 0
    assert enumerated(lowered) == [(inst, dim) for inst, dim in full if dim <= guard]


def test_reports_deterministic():
    def strip(report):
        d = report.to_dict()
        d["summary"].pop("elapsed_ms")
        return json.dumps(d)

    assert strip(suite_rc(n_max=3, trials=20, seed=42)) == strip(suite_rc(n_max=3, trials=20, seed=42))
    assert strip(suite_decomp(trials=10, seed=9)) == strip(suite_decomp(trials=10, seed=9))
    assert strip(suite_mt(trials=10, seed=1)) != strip(suite_mt(trials=10, seed=2))


def test_report_schema():
    report = suite_rc(n_max=2, trials=3, seed=0)
    d = report.to_dict()
    assert set(d) == {"suite", "params", "seed", "trials", "summary"}
    assert set(d["summary"]) == {"total", "failed", "elapsed_ms"}
    for t in d["trials"]:
        assert set(t) == {"id", "instance", "dim", "det", "formula", "relation", "pass"}
        assert isinstance(t["dim"], str) and isinstance(t["det"], str)
        assert t["relation"] in ("eq", "geq")
    assert d["summary"]["total"] == len(d["trials"])
    assert d["summary"]["failed"] == sum(1 for t in d["trials"] if not t["pass"])


def test_report_projections():
    report = suite_rc(n_max=2, trials=2, seed=0)
    csv_text = render_reports([report], "csv")
    assert csv_text.splitlines()[0] == "suite,id,relation,pass,dim,det,formula,instance"
    assert len(csv_text.splitlines()) == len(report.trials) + 1
    text = render_reports([report], "text")
    assert "summary:" in text and "suite rc" in text


def test_failed_trial_flips_exit_code():
    report = Report("demo", {}, 0, [Trial(0, {}, 1, 2, None, "eq", False)], 1)
    assert report.exit_code == 2
    assert len(report.failed) == 1


def test_report_constructor_defaults_and_mutability():
    a, b = Report("demo", {"n_max": 2}, 3), Report("demo", {}, 0)
    assert (a.suite, a.params, a.seed, a.trials, a.elapsed_ms) == ("demo", {"n_max": 2}, 3, [], 0)
    a.add({"label": "x"}, 1, 1)
    assert len(a.trials) == 1 and b.trials == []  # each report gets its own list
    trials = [Trial(0, {}, 1, 2, None, "eq", False)]
    c = Report(suite="demo", params={}, seed=0, trials=trials, elapsed_ms=5)
    assert c.trials is trials and c.elapsed_ms == 5
    c.elapsed_ms = 7
    assert c.to_dict()["summary"] == {"total": 1, "failed": 1, "elapsed_ms": 7}


@pytest.fixture
def registry(monkeypatch):
    """`_suite` registering into throwaway copies of SUITES and MINIMUMS,
    so no suite a test declares reaches `verify all`; returns the copy of
    SUITES."""
    monkeypatch.setattr(suites_mod, "SUITES", dict(SUITES))
    monkeypatch.setattr(suites_mod, "MINIMUMS", dict(suites_mod.MINIMUMS))
    return suites_mod.SUITES


def test_runner_adds_each_yielded_trial(registry):
    @_suite("demo", seed=(0, 0))
    def demo(seed):
        yield {"case": "eq"}, 2, 2
        yield {"case": "eq, formula disagrees"}, 2, 2, 3
        yield {"case": "geq"}, 3, 2, None, "geq"
        yield {"case": "geq fails"}, 1, 2, None, "geq"
        yield {"case": "passed given"}, 1, 2, None, "eq", True
        yield {"case": "failed given"}, 2, 2, None, "geq", False

    report = registry["demo"](seed=4)
    assert (report.suite, report.params, report.seed, report.exit_code) == ("demo", {}, 4, 2)
    assert [t.id for t in report.trials] == list(range(6))
    assert [t.passed for t in report.trials] == [True, False, True, False, True, False]
    assert [t.relation for t in report.trials] == ["eq", "eq", "geq", "geq", "eq", "geq"]
    assert report.trials[1].formula == 3 and report.trials[0].formula is None
    assert "demo" not in SUITES and "demo" not in MINIMUMS


def test_runner_takes_returned_params(registry):
    @_suite("demo", n_max=(2, 1))
    def demo(n_max):
        yield {}, 1, 1
        if n_max > 2:
            return {"graphs": n_max}

    assert (registry["demo"]().params, registry["demo"]().seed) == ({"n_max": 2}, 0)
    assert registry["demo"](n_max=5).params == {"graphs": 5}


def test_runner_rejects_zero_trials(registry):
    @_suite("empty", trials=(0, 0))
    def empty(trials):
        for _ in range(trials):
            yield {}, 1, 1

    with pytest.raises(ValueError, match=r"^suite empty ran 0 trials$"):
        registry["empty"]()
    assert len(registry["empty"](trials=2).trials) == 2


def test_runner_propagates_suite_errors(registry):
    @_suite("broken")
    def broken():
        yield {}, 1, 1
        raise ZeroDivisionError("mid-suite")

    with pytest.raises(ZeroDivisionError, match="mid-suite"):
        registry["broken"]()


def test_corpus_is_deterministic():
    a = default_graph_corpus(3)
    b = default_graph_corpus(3)
    assert [(label, g.adj) for label, g, _ in a] == [(label, g.adj) for label, g, _ in b]
