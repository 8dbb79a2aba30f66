import json
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parkdet import monomial_ideals
from parkdet.exact_linalg import IntMatrix, matrix
from parkdet.monomial_ideals import (
    MonomialIdeal,
    _minimalize,
    colon,
    divides,
    ideal_to_json,
    ideal_to_text,
    lambda_ideal,
    matrix_skeleton_ideal,
    parking_ideal,
    skeleton_ideal,
    step_weight_ideal,
)
from parkdet.multigraph import (
    Multigraph,
    complete_minus_root_edges,
    complete_multigraph,
    from_edges,
    laplacians,
    random_multigraph,
)
from parkdet.standard_count import count_standard
from oracles import (
    boundary_monomial,
    connected_boundary_monomials,
    connected_sets,
    matrix_skeleton_ideal_all_pairs,
    skeleton_ideal_all_subsets,
)

K3 = complete_multigraph(2, 1, 1)
K4 = complete_multigraph(3, 1, 1)
P4 = from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])


def ideal(nvars, gens):
    return MonomialIdeal(nvars, tuple(tuple(g) for g in gens))


def handed_over(build, *args):
    """The generators that build(*args) hands to minimalization, sorted."""
    passed = []

    def spy(gens):
        passed.extend(gens)
        return _minimalize(gens)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monomial_ideals, "_minimalize", spy)
        build(*args)
    return sorted(passed)


def collected(build, *args):
    """The generators that build(*args) collects, sorted: the list it
    hands to minimalization, or sorts for `_trusted` when it skips that."""
    lists = []
    trusted = MonomialIdeal._trusted

    def spy_minimalize(gens):
        lists.append(sorted(gens))
        return _minimalize(gens)

    def spy_trusted(nvars, gens):
        lists.append(sorted(gens))
        return trusted(nvars, gens)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monomial_ideals, "_minimalize", spy_minimalize)
        mp.setattr(MonomialIdeal, "_trusted", staticmethod(spy_trusted))
        build(*args)
    return lists[0]


def test_skeleton_ideal_boundary_examples():
    # m_A of every connected set, one each: {1} -> (3, 0, 0) in K4
    assert collected(skeleton_ideal, K4, 0) == [(0, 0, 3), (0, 3, 0), (3, 0, 0)]
    # {1, 2} -> (2, 2, 0) in K4
    assert collected(skeleton_ideal, K4, 1) == [(0, 0, 3), (0, 2, 2), (0, 3, 0), (2, 0, 2), (2, 2, 0), (3, 0, 0)]
    # edges leaving {2,3} in K4 minus the 0-3 edge: two from 2, one from 3
    g31 = complete_minus_root_edges(3, 1)
    assert collected(skeleton_ideal, g31, 1) == [(0, 0, 2), (0, 2, 1), (0, 3, 0), (2, 0, 1), (2, 2, 0), (3, 0, 0)]
    # the ladder at n = 13 has the 969 connected sets that parking_ideal's
    # docstring counts
    handed = collected(skeleton_ideal, ladder(13), 12)
    assert len(handed) == 969 and handed == connected_boundary_monomials(ladder(13), 12)


def test_skeleton_ideal_examples():
    assert skeleton_ideal(K3, 1) == ideal(2, [(2, 0), (0, 2), (1, 1)])
    expected = ideal(3, [
        (3, 0, 0), (0, 3, 0), (0, 0, 3),
        (2, 2, 0), (2, 0, 2), (0, 2, 2),
    ])
    assert skeleton_ideal(K4, 1) == expected
    assert skeleton_ideal(P4, 1) == ideal(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        skeleton_ideal(K4, 3)


@pytest.mark.parametrize("k", [1.5, True, "1"])
def test_skeleton_ideal_rejects_non_int_k(k):
    with pytest.raises(ValueError, match=re.escape(repr(k))):
        skeleton_ideal(K4, k)


def test_parking_ideal_is_top_skeleton():
    g = random_multigraph(4, 2, seed=2)
    assert parking_ideal(g) == skeleton_ideal(g, g.n - 1)
    assert parking_ideal(g) == skeleton_ideal_all_subsets(g, g.n - 1)


@st.composite
def multigraphs(draw):
    """Multigraphs with n <= 7 and multiplicities 0..3 whose pairs are
    often absent, so that disconnected graphs occur; some have every root
    edge removed."""
    n = draw(st.integers(min_value=1, max_value=7))
    mult = st.sampled_from([0, 0, 0, 1, 2, 3])
    adj = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            adj[i][j] = adj[j][i] = draw(mult)
    if draw(st.booleans()):
        for j in range(1, n + 1):
            adj[0][j] = adj[j][0] = 0
    return Multigraph(n, tuple(tuple(row) for row in adj))


@given(multigraphs())
def test_skeleton_ideal_hands_over_each_connected_set_once(g):
    # the growth reaches every connected set of G - root of size <= k + 1
    # exactly once and carries its m_A along: the list handed over is the
    # oracle's m_A, each computed afresh, with nothing missing or repeated
    for k in range(g.n):
        assert collected(skeleton_ideal, g, k) == connected_boundary_monomials(g, k)


@given(multigraphs())
@example(complete_multigraph(4, 2, 1))
@example(K4)
def test_full_support_boundary_monomials_are_minimal(g):
    # the lemma behind skeleton_ideal's skip: when m_A has a positive
    # exponent at every vertex of A for each connected A, no m_A divides
    # another, so minimalization only sorts them
    for k in range(g.n):
        sets = connected_sets(g, k)
        gens = [boundary_monomial(g, a) for a in sets]
        if all(len(m) - m.count(0) == len(a) for a, m in zip(sets, gens)):
            assert list(_minimalize(gens)) == sorted(gens)


def test_skeleton_ideal_skips_minimalization_on_full_support():
    # every m_A of K4, and every m_A with |A| <= 2 of this dense graph, has
    # full support; P4's vertex 3 hangs off vertex 2, so m_{2,3} = x_2 has
    # no x_3 and the kept m_A are minimalized
    dense = random_multigraph(7, 3, seed=0)
    for g, k in [(K4, 0), (K4, 1), (K4, 2), (dense, 1)]:
        assert handed_over(skeleton_ideal, g, k) == []
        assert skeleton_ideal(g, k) == skeleton_ideal_all_subsets(g, k)
    assert handed_over(skeleton_ideal, P4, 1) == connected_boundary_monomials(P4, 1)
    assert skeleton_ideal(P4, 1) == skeleton_ideal_all_subsets(P4, 1)
    for g, skips in [(K4, True), (dense, True), (P4, False)]:
        qtilde = laplacians(g).qtilde
        assert (handed_over(matrix_skeleton_ideal, qtilde) == []) == skips
        assert matrix_skeleton_ideal(qtilde) == matrix_skeleton_ideal_all_pairs(qtilde)


@given(multigraphs())
def test_parking_ideal_from_connected_cuts_matches_candidates(g):
    ideal = parking_ideal(g)
    assert ideal == skeleton_ideal(g, g.n - 1)
    assert ideal == skeleton_ideal_all_subsets(g, g.n - 1)
    if not any(g.adj[0]):
        assert ideal.is_unit


@given(multigraphs())
def test_connected_cuts_are_the_minimal_generators(g):
    # Postnikov and Shapiro: the m_A of the connected cuts are exactly the
    # minimal generators, so minimalization would drop none of them, and
    # parking_ideal hands nothing to it (a disconnected G passes the unit
    # monomial alone, through the public constructor)
    ideal = parking_ideal(g)
    assert list(_minimalize(ideal.gens)) == list(ideal.gens)
    assert ideal == skeleton_ideal_all_subsets(g, g.n - 1)
    assert handed_over(parking_ideal, g) == ([(0,) * g.n] if ideal.is_unit else [])


@given(multigraphs())
def test_trusted_ideals_equal_their_validated_rebuild(g):
    # parking_ideal and skeleton_ideal skip the public constructor's checks;
    # what they store is what the checks and minimalization would give
    for built in [parking_ideal(g)] + [skeleton_ideal(g, k) for k in range(g.n)]:
        assert type(built.gens) is tuple and list(built.gens) == sorted(built.gens)
        assert all(type(m) is tuple and all(type(e) is int for e in m) for m in built.gens)
        assert built == MonomialIdeal(g.n, built.gens)


@given(multigraphs())
# G - root splits into {1, 2} and {3, 4}, joined through the root only
@example(from_edges(4, [(0, 1, 3), (1, 2, 2), (0, 3, 1), (3, 4, 3), (0, 2, 1)]))
# vertex 3 has no edge at all: m_{3} = 1
@example(from_edges(3, [(0, 1, 2), (1, 2, 3), (0, 2, 1)]))
def test_skeleton_ideals_match_all_subsets(g):
    for k in range(g.n):
        assert skeleton_ideal(g, k) == skeleton_ideal_all_subsets(g, k)
        if 0 in g.degrees()[1:]:
            assert skeleton_ideal(g, k).is_unit
    qtilde = laplacians(g).qtilde
    assert matrix_skeleton_ideal(qtilde) == matrix_skeleton_ideal_all_pairs(qtilde)


@st.composite
def dominant_matrices(draw):
    """Each diagonal entry is its row's off-diagonal sum plus a slack of
    0..3, so cross exponents of 0 occur."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=0, max_value=3)
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rows[j][i] = draw(entry)
    for i in range(n):
        rows[i][i] = sum(rows[i]) + draw(entry)
    return matrix(rows)


@given(dominant_matrices())
def test_matrix_skeleton_ideal_matches_all_pairs(h):
    assert matrix_skeleton_ideal(h) == matrix_skeleton_ideal_all_pairs(h)


@given(dominant_matrices())
def test_full_support_matrix_generators_are_minimal(h):
    # the matrix analogue of the lemma: with every h_ll > 0 and
    # h_ii > h_ij < h_jj for each pair with h_ij > 0, no generator divides
    # another
    n = h.order
    pairs = [(i, j) for i, j in combinations(range(n), 2) if h[i][j]]
    gens = [tuple(h[l][l] if m == l else 0 for m in range(n)) for l in range(n)]
    gens += [tuple(h[i][i] - h[i][j] if m == i else h[j][j] - h[i][j] if m == j else 0 for m in range(n))
             for i, j in pairs]
    if all(h[l][l] for l in range(n)) and all(h[i][i] > h[i][j] < h[j][j] for i, j in pairs):
        assert list(_minimalize(gens)) == sorted(gens)


def test_parking_ideal_of_disconnected_graph_is_unit():
    # vertex 3 is isolated; the rest is connected
    g = from_edges(3, [(0, 1, 1), (1, 2, 2)])
    assert parking_ideal(g) == ideal(3, [(0, 0, 0)])
    # no root edges at all
    assert parking_ideal(from_edges(2, [(1, 2, 1)])).is_unit


def cycle(n):
    return from_edges(n, [(i, i + 1, 1) for i in range(n)] + [(0, n, 1)])


def wheel(n):
    """Hub 0 joined to every vertex of the rim cycle 1..n."""
    rim = [(i, i + 1, 1) for i in range(1, n)] + [(1, n, 1)]
    return from_edges(n, [(0, i, 1) for i in range(1, n + 1)] + rim)


def fan(n):
    """Apex 0 joined to every vertex of the path 1..n."""
    return from_edges(n, [(0, i, 1) for i in range(1, n + 1)] + [(i, i + 1, 1) for i in range(1, n)])


def ladder(n):
    """Two paths 0..k-1 and k..2k-1 with rungs i-(k+i); n + 1 = 2k."""
    k = (n + 1) // 2
    rails = [(i, i + 1, 1) for i in range(k - 1)] + [(k + i, k + i + 1, 1) for i in range(k - 1)]
    return from_edges(n, rails + [(i, k + i, 1) for i in range(k)])


@pytest.mark.parametrize("n", [4, 11, 13, 19])
def test_parking_ideal_generator_counts(n):
    # the cycle, the fan (root as apex) and the ladder have all n + 1
    # vertices on one cycle, with chords that do not cross, so a connected
    # cut is an arc of that cycle missing the root: one for each pair of
    # its n + 1 edges. Of the wheel (root as hub), a connected cut is an
    # arc of the rim or the whole rim
    assert len(parking_ideal(cycle(n)).gens) == n * (n + 1) // 2
    assert len(parking_ideal(fan(n)).gens) == n * (n + 1) // 2
    assert len(parking_ideal(wheel(n)).gens) == n * (n - 1) + 1
    if n % 2:  # 66 at n = 11 and 91 at n = 13, the benchmark's ladders
        assert len(parking_ideal(ladder(n)).gens) == n * (n + 1) // 2


def star(n, centre):
    return from_edges(n, [(min(v, centre), max(v, centre), 1) for v in range(n + 1) if v != centre])


CUT_SHAPES = {
    # G - root is disconnected: no connected cut spans both triangles
    "root-as-cut-vertex": from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (0, 4, 1), (3, 4, 1)]),
    # the root is a leaf: every connected cut must contain the centre
    # or be a single leaf
    "star-rooted-at-leaf": star(5, 1),
    "path-rooted-at-end": from_edges(5, [(i, i + 1, 1) for i in range(5)]),
    "edge-of-multiplicity-3": from_edges(4, [(0, 1, 1), (1, 2, 3), (2, 3, 1), (0, 3, 2), (3, 4, 1), (2, 4, 1)]),
    # most connected sets have a disconnected complement (878 of the 969
    # at n = 13, against 91 cuts), so most branches are pruned
    "ladder-11": ladder(11),
    "ladder-13": ladder(13),
}


@pytest.mark.parametrize("shape", CUT_SHAPES)
def test_parking_ideal_cut_shapes(shape):
    g = CUT_SHAPES[shape]
    assert parking_ideal(g) == skeleton_ideal(g, g.n - 1)
    assert parking_ideal(g) == skeleton_ideal_all_subsets(g, g.n - 1)


def test_divides():
    assert divides((1, 2, 0), (1, 2, 0))
    assert divides((0, 2, 0), (1, 2, 3))
    assert not divides((1, 2, 3), (0, 2, 0))
    assert not divides((2, 0), (0, 2)) and not divides((0, 2), (2, 0))
    assert divides((), ())


def test_skeleton_nesting():
    for seed in range(4):
        g = random_multigraph(4, 2, seed=seed)
        for k in range(g.n - 1):
            small = skeleton_ideal(g, k)
            large = skeleton_ideal(g, k + 1)
            assert all(gen in large for gen in small.gens)


def test_lambda_ideal_examples():
    assert lambda_ideal((2, 1)) == ideal(2, [(2, 0), (0, 2), (1, 1)])
    assert lambda_ideal((1, 1)) == ideal(2, [(1, 0), (0, 1)])
    i = lambda_ideal((3, 2, 2))
    assert i == ideal(3, [
        (3, 0, 0), (0, 3, 0), (0, 0, 3),
        (2, 2, 0), (2, 0, 2), (0, 2, 2),
    ])
    assert (2, 2, 2) in i  # the full-support generator is absorbed, not lost
    with pytest.raises(ValueError):
        lambda_ideal((1, 2))


def test_step_weight_ideal_examples():
    assert step_weight_ideal(2, 0, 2) == ideal(2, [(2, 0), (0, 2), (1, 1)])
    assert step_weight_ideal(2, 1, 2) == ideal(2, [(1, 0), (0, 1)])
    assert step_weight_ideal(3, 3, 3) == step_weight_ideal(3, 0, 2)
    with pytest.raises(ValueError):
        step_weight_ideal(3, 1, 1)  # tail weight would drop to 0
    assert step_weight_ideal(0, 0, 3) == ideal(0, [])
    with pytest.raises(ValueError):
        step_weight_ideal(0, 1, 3)
    with pytest.raises(ValueError):
        step_weight_ideal(3, 4, 3)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("a", range(2, 6))
def test_step_weight_structural_identity(n, a):
    assert step_weight_ideal(n, n, a) == step_weight_ideal(n, 0, a - 1)


def test_step_weight_matches_skeleton_of_deleted_complete():
    # with top weight n the family reproduces 1-skeleton ideals
    for n in range(2, 5):
        for r in range(n + 1):
            g = complete_minus_root_edges(n, r)
            assert step_weight_ideal(n, r, n) == skeleton_ideal(g, 1)


def test_matrix_skeleton_ideal_examples():
    assert matrix_skeleton_ideal(matrix([[2, 1], [1, 2]])) == ideal(2, [(2, 0), (0, 2), (1, 1)])
    qt_p4 = laplacians(P4).qtilde
    assert qt_p4 == matrix([[2, 1, 0], [1, 2, 1], [0, 1, 1]])
    assert matrix_skeleton_ideal(qt_p4) == ideal(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert matrix_skeleton_ideal(matrix([[2, 0], [0, 3]])) == ideal(2, [(2, 0), (0, 3)])
    with pytest.raises(ValueError):
        matrix_skeleton_ideal(matrix([[1, 2], [2, 3]]))


def test_matrix_skeleton_matches_graph_skeleton():
    for seed in range(5):
        g = random_multigraph(4, 3, seed=seed)
        assert matrix_skeleton_ideal(laplacians(g).qtilde) == skeleton_ideal(g, 1)


@pytest.mark.parametrize("rows", [((True,),), ((1.5,),), ((2.0, 1), (1, 2))])
def test_matrix_skeleton_ideal_rejects_non_int_entries(rows):
    # every generator has full support, so minimalization is skipped, but
    # each one is still checked
    with pytest.raises(ValueError, match=re.escape("exponents must be nonnegative ints")):
        matrix_skeleton_ideal(IntMatrix(rows))


def test_matrix_skeleton_degenerate_unit():
    # all cross exponents vanish: the ideal is the whole ring
    h = matrix([[1, 1], [1, 1]])
    i = matrix_skeleton_ideal(h)
    assert i.is_unit


def test_colon_examples():
    assert colon(ideal(2, [(2, 0), (1, 1)]), (1, 0)) == ideal(2, [(1, 0), (0, 1)])
    assert colon(step_weight_ideal(2, 0, 2), (0, 1)) == step_weight_ideal(2, 1, 2)
    i = skeleton_ideal(K4, 1)
    assert colon(i, (0, 0, 0)) == i
    for bad in [(-1,), (True,), (0.5,)]:
        with pytest.raises(ValueError, match=r"monomial \("):
            colon(MonomialIdeal(1, ((2,),)), bad)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(min_value=0, max_value=4)] * n),
                     min_size=1, max_size=6),
            st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
            st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
        )
    )
)
def test_colon_composes(data):
    gens, m1, m2 = data
    i = ideal(len(m1), gens)
    product = tuple(a + b for a, b in zip(m1, m2))
    assert colon(i, product) == colon(colon(i, m1), m2)


def test_contains_equals_minimalize():
    assert (2, 1) in ideal(2, [(1, 1)])
    assert (2, 0) not in ideal(2, [(1, 1)])
    assert ideal(1, [(1,), (2,)]) == ideal(1, [(1,)])
    assert ideal(2, [(2, 0), (2, 1)]).gens == ((2, 0),)
    for bad in [(1, 1, 1), (1.5, 0), (True, 0), (-1, 0)]:
        with pytest.raises(ValueError, match=r"monomial \("):
            bad in ideal(2, [(1, 1)])


# exponents at and just below each field-width boundary, so that a field
# one bit short or a fixed 8-bit field shows
EDGE_EXPONENTS = sorted({e for k in (1, 7, 8, 15, 16, 63, 64) for e in (2**k - 1, 2**k)} | {10**30})


@st.composite
def generator_lists(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        # 100 to 200 generators, so that the kept list, packed into one
        # int, spans many machine words; drawn from a seeded random
        # generator, since hypothesis is slow to build lists this long
        rnd = draw(st.randoms(use_true_random=False))
        scale = rnd.choice(EDGE_EXPONENTS)
        gens = [tuple(scale * rnd.randrange(8) for _ in range(n)) for _ in range(rnd.randint(100, 200))]
    else:
        exponent = st.one_of(st.integers(min_value=0, max_value=2), st.sampled_from(EDGE_EXPONENTS))
        gens = draw(st.lists(st.tuples(*[exponent] * n), max_size=12))
    copies = draw(st.lists(st.sampled_from(gens), max_size=3)) if gens else []
    zero = [(0,) * n] if draw(st.booleans()) else []
    return draw(st.permutations(gens + copies + zero))


def antichain(degree, scale=1):
    # the 3-variable monomials of one total degree: none divides another
    return [(scale * i, scale * j, scale * (degree - i - j))
            for i in range(degree + 1) for j in range(degree + 1 - i)]


@settings(max_examples=400)  # about a quarter draw the long lists
@given(generator_lists())
@example([(2**8,), (1,)])
@example([(2**8, 0), (1, 0), (0, 2**8)])
@example([(2**64 - 1, 3), (2**63, 2), (10**30, 2**7)])
@example(antichain(18) + [(1, 1, 16), (20, 0, 0), (0, 0, 17)])
@example(antichain(18, 2**64) + [(2**64, 2**64, 2**68)])
@example(antichain(18)[::-1] + antichain(18) + [(0, 0, 0)])
def test_minimalize_matches_pairwise_divides(gens):
    distinct = set(gens)
    oracle = sorted(g for g in distinct if not any(h != g and divides(h, g) for h in distinct))
    assert list(_minimalize(gens)) == oracle


def test_unit_ideal_representation():
    u = ideal(2, [(0, 0), (1, 0)])
    assert u.is_unit
    assert u.gens == ((0, 0),)
    assert (0, 0) in u


def test_zero_variable_ring():
    zero_ideal = MonomialIdeal(0, ())
    assert not zero_ideal.is_unit
    unit = MonomialIdeal(0, ((),))
    assert unit.is_unit


def test_validation():
    with pytest.raises(ValueError):
        ideal(2, [(1,)])
    with pytest.raises(ValueError):
        ideal(2, [(-1, 0)])


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
def test_non_integer_exponents_rejected(bad):
    gen = (bad, 0, 0)
    with pytest.raises(ValueError) as err:
        MonomialIdeal(3, (gen, (0, 2, 0), (0, 0, 2)))
    assert str(gen) in str(err.value)


def test_list_generators_are_stored_as_tuples():
    gens = ([2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 0], [0, 1, 1], [1, 0, 1])
    listed, tupled = MonomialIdeal(3, gens), MonomialIdeal(3, tuple(map(tuple, gens)))
    assert all(type(m) is tuple for m in listed.gens)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert count_standard(listed) == 4  # 1, x, y, z


def test_dump_formats():
    i = skeleton_ideal(K3, 1)
    assert ideal_to_text(i) == "0 2\n1 1\n2 0\n"
    assert json.loads(ideal_to_json(i)) == {"nvars": 2, "generators": [["0", "2"], ["1", "1"], ["2", "0"]]}
