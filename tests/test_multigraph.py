import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parkdet.exact_linalg import det, is_psd, matrix, principal_submatrix
from parkdet.multigraph import (
    GraphFormatError,
    Multigraph,
    complete_minus_root_edges,
    complete_multigraph,
    delete_root_edge,
    format_graph,
    from_edges,
    graph_to_json,
    laplacians,
    merge_into_root,
    parse_graph,
    random_multigraph,
    random_root_deletion,
    relabel_vertices,
)
from parkdet.rng import SplitMix64

K4 = complete_multigraph(3, 1, 1)


@st.composite
def multigraphs(draw, n_min=1, n_max=5, max_mult=3):
    """A multigraph filled entry by entry, without `from_edges`."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    adj = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            adj[i][j] = adj[j][i] = draw(st.integers(min_value=0, max_value=max_mult))
    return Multigraph(n, tuple(tuple(row) for row in adj))


def test_complete_multigraph_examples():
    assert all(K4.adj[i][j] == (0 if i == j else 1) for i in range(4) for j in range(4))
    g = complete_multigraph(2, 2, 3)
    assert g.adj == ((0, 2, 2), (2, 0, 3), (2, 3, 0))
    g = complete_multigraph(1, 5, 1)
    assert g.adj == ((0, 5), (5, 0))
    with pytest.raises(ValueError):
        complete_multigraph(0, 1, 1)
    with pytest.raises(ValueError):
        complete_multigraph(3, 0, 1)


def test_complete_minus_root_edges():
    assert complete_minus_root_edges(3, 0) == K4
    g = complete_minus_root_edges(3, 1)
    assert g.adj[0][3] == 0 and g.adj[3][0] == 0
    assert g.adj[0][1] == 1 and g.adj[1][2] == 1
    g = complete_minus_root_edges(2, 2)
    assert g.degree(0) == 0 and g.adj[1][2] == 1
    with pytest.raises(ValueError):
        complete_minus_root_edges(3, 4)


def test_laplacians():
    k3 = complete_multigraph(2, 1, 1)
    lap = laplacians(k3)
    assert lap.qtilde == matrix([[2, 1], [1, 2]])
    assert laplacians(K4).ltilde == matrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    for row in laplacians(K4).l.rows:
        assert sum(row) == 0
    for i, row in enumerate(laplacians(K4).q.rows):
        assert sum(row) == 2 * K4.degree(i)


@given(multigraphs(max_mult=2**70))
def test_laplacians_are_degree_minus_and_plus_adjacency(g):
    lap = laplacians(g)
    size = g.n + 1
    for i in range(size):
        for j in range(size):
            diagonal = g.degree(i) if i == j else 0
            assert lap.l[i][j] == diagonal - g.adj[i][j]
            assert lap.q[i][j] == diagonal + g.adj[i][j]
    assert lap.l.order == lap.q.order == size
    assert lap.ltilde == principal_submatrix(lap.l, range(1, size))
    assert lap.qtilde == principal_submatrix(lap.q, range(1, size))
    assert all(type(x) is int for m in lap for row in m.rows for x in row)


def test_delete_root_edge():
    g = delete_root_edge(K4, 3)
    assert g == complete_minus_root_edges(3, 1)
    g = delete_root_edge(complete_multigraph(2, 2, 1), 1)
    assert g.adj[0][1] == 1 and g.adj[0][2] == 2
    with pytest.raises(ValueError):
        delete_root_edge(complete_minus_root_edges(3, 1), 3)


def test_merge_into_root():
    merged = merge_into_root(K4, 3)
    assert merged.n == 2
    assert merged.adj == ((0, 2, 2), (2, 0, 1), (2, 1, 0))
    assert det(laplacians(merged).qtilde) == 8  # [[3,1],[1,3]]
    k3 = complete_multigraph(2, 1, 1)
    assert merge_into_root(k3, 2).adj == ((0, 2), (2, 0))
    with pytest.raises(ValueError):
        merge_into_root(complete_multigraph(1, 1, 1), 1)


def test_merge_preserves_remaining_degrees():
    g = random_multigraph(4, 3, seed=7)
    merged = merge_into_root(g, 2)
    kept = [0, 1, 3, 4]
    for new_i, old_i in enumerate(kept):
        if old_i == 0:
            continue
        assert merged.degree(new_i) == g.degree(old_i)


@given(multigraphs(n_min=2), st.data())
def test_merge_into_root_matches_entry_formula(g, data):
    j = data.draw(st.integers(min_value=1, max_value=g.n))
    kept = [0] + [v for v in range(1, g.n + 1) if v != j]
    expected = tuple(
        tuple(0 if r == s else g.adj[r][s] + (g.adj[j][s] if r == 0 else g.adj[r][j] if s == 0 else 0)
              for s in kept)
        for r in kept)
    assert merge_into_root(g, j).adj == expected


@given(multigraphs(), st.data())
def test_relabel_vertices_matches_entry_formula(g, data):
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    order = (0, *perm)
    expected = tuple(tuple(g.adj[order[i]][order[j]] for j in range(g.n + 1)) for i in range(g.n + 1))
    assert relabel_vertices(g, perm).adj == expected


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_random_multigraph_draws_pairs_in_row_major_order(n, mult, seed):
    rng = SplitMix64(seed)
    g = random_multigraph(n, mult, seed)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            m = rng.randint(0, mult)
            assert g.adj[i][j] == g.adj[j][i] == m


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**64 - 1))
def test_random_root_deletion_root_edges_are_first_draws(n, a, b, seed):
    rng = SplitMix64(seed)
    g = random_root_deletion(n, a, b, seed)
    assert list(g.adj[0][1:]) == [rng.randint(0, a) for _ in range(n)]
    assert all(g.adj[i][j] == b for i in range(1, n + 1) for j in range(i + 1, n + 1))


def test_random_generators_deterministic():
    assert random_multigraph(4, 3, seed=5) == random_multigraph(4, 3, seed=5)
    assert random_root_deletion(4, 2, 3, seed=9) == random_root_deletion(4, 2, 3, seed=9)
    assert random_multigraph(4, 3, seed=5) != random_multigraph(4, 3, seed=6)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**63))
def test_random_multigraph_simple_when_capped(n, seed):
    g = random_multigraph(n, 1, seed)
    assert all(m <= 1 for row in g.adj for m in row)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**63))
def test_random_root_deletion_only_touches_root(n, a, b, seed):
    g = random_root_deletion(n, a, b, seed)
    for i in range(1, n + 1):
        assert 0 <= g.adj[0][i] <= a
        for j in range(i + 1, n + 1):
            assert g.adj[i][j] == b


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**63))
def test_generated_graphs_valid_and_laplacians_psd(n, mult, seed):
    g = random_multigraph(n, mult, seed)
    assert all(g.adj[i][i] == 0 for i in range(n + 1))
    assert all(g.adj[i][j] == g.adj[j][i] for i in range(n + 1) for j in range(n + 1))
    lap = laplacians(g)
    assert is_psd(lap.l)
    assert is_psd(lap.q)
    assert is_psd(lap.qtilde)


def test_relabel_conjugates():
    g = random_multigraph(4, 2, seed=11)
    gp = relabel_vertices(g, (3, 1, 4, 2))
    assert det(laplacians(gp).qtilde) == det(laplacians(g).qtilde)
    assert det(laplacians(gp).ltilde) == det(laplacians(g).ltilde)
    assert sorted(gp.degrees()[1:]) == sorted(g.degrees()[1:])


def test_multigraph_validation():
    with pytest.raises(ValueError):
        Multigraph(1, ((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        Multigraph(1, ((1, 1), (1, 0)))
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="adjacency entries must be ints"):
            Multigraph(1, ((0, bad), (bad, 0)))
    with pytest.raises(ValueError):
        from_edges(2, [(1, 1, 1)])
    # each entry of a triple is an int, each multiplicity >= 0, whatever
    # other triples list the same pair, and the message names the triple
    for edges, named in [([(0, 1, 1.5)], "(0, 1, 1.5)"), ([(0, 1.0, 1)], "(0, 1.0, 1)"),
                         ([(True, 1, 1)], "(True, 1, 1)"), ([(0, 1, True)], "(0, 1, True)"),
                         ([(0, 1, "1")], "(0, 1, '1')"),
                         ([(0, 1, 2), (0, 1, -1)], "(0, 1, -1)"), ([(0, 1, -1), (0, 1, 1)], "(0, 1, -1)")]:
        with pytest.raises(ValueError, match=re.escape(f"edge {named}")):
            from_edges(2, edges)
    assert from_edges(2, [(0, 1, 0), (1, 2, 1)]).adj == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    assert from_edges(2, [(0, 1, 2), (1, 0, 1)]).adj[0][1] == 3


@given(multigraphs(max_mult=2**70))
@example(K4)
@example(random_multigraph(4, 3, seed=3))
def test_text_format_round_trip(g):
    assert parse_graph(format_graph(g)) == g
    assert parse_graph(graph_to_json(g)) == g


def test_text_format_with_comments():
    g = parse_graph("# complete graph on 3 vertices\n2\n0 1 1\n0 2 1  # root edge\n1 2 1\n")
    assert g == complete_multigraph(2, 1, 1)


@pytest.mark.parametrize("bad,fragment", [
    ("", "empty"),
    ("2\n0 1\n", "line 2"),
    ("2\n0 1 x\n", "line 2"),
    ("2\n1 0 1\n", "line 2"),
    ("2\n0 1 0\n", "line 2"),
    ("2\n0 1 1\n0 1 2\n", "line 3"),
    ("x\n", "line 1"),
])
def test_text_format_errors_name_the_line(bad, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(bad)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text, fragment", [
    ("2\n0 1 1_0\n0 2 1\n1 2 1\n", "line 2: field 3: expected an integer, got '1_0'"),
    ("2\n0 1 1\n0 2 \u0661\n1 2 1\n", "line 3: field 3: expected an integer, got '\u0661'"),
    ("\u0662\n0 1 1\n", "line 1: n: expected an integer"),
])
def test_text_format_integers_are_ascii_decimal(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text, fragment", [
    ('{"n": 1, "adj": [[0, 1.7], [1.7, 0]]}', "adj[0][1]"),
    ('{"n": 1, "adj": [[0, true], [true, 0]]}', "adj[0][1]"),
    ('{"n": 1, "adj": [[0, "1.5"], ["1.5", 0]]}', "adj[0][1]"),
    ('{"n": 1.0, "adj": [[0, 1], [1, 0]]}', "n: expected an integer"),
])
def test_graph_json_rejects_non_integers(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)
