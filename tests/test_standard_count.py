import random
import tracemalloc
from contextlib import contextmanager
from itertools import combinations, combinations_with_replacement, product
from math import prod
from operator import lt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import parkdet.standard_count as standard_count
from parkdet.monomial_ideals import (
    MonomialIdeal,
    _minimalize,
    lambda_ideal,
    matrix_skeleton_ideal,
    parking_ideal,
    skeleton_ideal,
    step_weight_ideal,
)
from parkdet.multigraph import (
    complete_minus_root_edges,
    complete_multigraph,
    from_edges,
    laplacians,
    random_multigraph,
)
from parkdet.exact_linalg import det, matrix
from parkdet.formulas import parking_dim_complete, skeleton1_dim_complete, steck_count
from parkdet.standard_count import (
    IE_GENERATOR_GUARD,
    NonArtinianError,
    artinian_bounds,
    count_standard,
    count_standard_ie,
    enumerate_standard,
)
from oracles import count_lambda_parking, is_g_parking, is_lambda_parking
from test_monomial_ideals import cycle, fan, ladder, wheel

K3 = complete_multigraph(2, 1, 1)
K4 = complete_multigraph(3, 1, 1)
P4 = from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])


def ideal(nvars, gens):
    return MonomialIdeal(nvars, tuple(tuple(g) for g in gens))


def unpack(p, n, k):
    # the exponents of a monomial the counter packed, k bytes a field,
    # x_1 in the top field
    b = p.to_bytes(n * k, "big")
    return tuple(int.from_bytes(b[i:i + k], "big") for i in range(0, n * k, k))


def decode(box, corners, n, k):
    # the sorted exponent tuples of a slice the counter handed over: one
    # pure power for each field of the box, and the corners
    powers = [tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(unpack(box, n, k))]
    return sorted(powers + [unpack(p, n, k) for p in corners])


@contextmanager
def every_slice(check):
    # the counting loop looks up the module's _slices and _corners, so
    # check(box, corners, n, k) sees the top ideal, handed to one of them,
    # and every slice _slices yields: a leaf, a memo hit or a miss alike.
    # The memo outlives a count, so it is emptied first: on a warm one the
    # top ideal could be a hit, and nothing would be sliced
    standard_count._MEMO.clear()
    slices, corners = standard_count._slices, standard_count._corners

    def checked_slices(box, gens, n, k):
        check(box, gens, n, k)
        for c, b, s in slices(box, gens, n, k):
            check(b, s, n - 1, k)
            yield c, b, s

    def checked_corners(box, gens, n, k):
        check(box, gens, n, k)
        return corners(box, gens, n, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(standard_count, "_slices", checked_slices)
        mp.setattr(standard_count, "_corners", checked_corners)
        yield


def test_count_examples():
    assert count_standard(ideal(2, [(1, 0), (0, 1)])) == 1
    assert count_standard(parking_ideal(K4)) == 16
    assert count_standard(skeleton_ideal(K4, 1)) == 20
    assert count_standard(ideal(2, [(0, 0)])) == 0  # unit ideal


def test_count_ie_examples():
    assert count_standard_ie(ideal(2, [(2, 0), (0, 2), (1, 1)])) == 3
    assert count_standard_ie(skeleton_ideal(complete_minus_root_edges(3, 1), 1)) == 12
    assert count_standard_ie(ideal(2, [(0, 0)])) == 0


def test_count_routes_agree_above_eight_bit_exponents():
    # artinian_ideals keeps exponents at 5 or below
    i = ideal(3, [(256, 0, 0), (0, 300, 0), (0, 0, 257), (255, 256, 1), (1, 299, 256),
                  (255, 1, 255), (2, 2, 2), (257, 1, 0), (3, 301, 3)])
    assert len(i.gens) == 7
    assert count_standard(i) == count_standard_ie(i) == 436093


@pytest.mark.parametrize("top, width", [(127, 1), (128, 2), (255, 2), (256, 2), (32767, 2), (32768, 3)])
def test_count_routes_agree_at_field_width_boundaries(top, width):
    # the largest exponent sets the bytes per field, the fewest whose top
    # bit, the guard, no exponent reaches. A two-corner leaf with box
    # fields of top, counted as it stands; and a sliced ideal whose
    # filter tests projections with exponents top - 1 against top, the
    # guard bit right above top's field when top is 127 or 32767
    leaf = ideal(3, [(top, 0, 0), (0, top, 0), (0, 0, 3), (top - 1, 1, 0), (1, top - 1, 2)])
    sliced = ideal(3, [(3, 0, 0), (0, top, 0), (0, 0, top), (1, top - 1, 1), (1, 1, top - 1),
                       (2, top - 1, 0), (2, 0, top - 1)])
    assert len(leaf.gens) == 5 and len(sliced.gens) == 7
    widths = []
    with every_slice(lambda box, corners, n, k: widths.append(k)):
        for i in (leaf, sliced):
            assert count_standard(i) == count_standard_ie(i)
    assert set(widths) == {width}
    assert len(widths) > 2  # the sliced ideal went below its top


@pytest.mark.parametrize("i, cut_box", [
    (ideal(4, [(2, 0, 0, 0), (0, 127, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6), (0, 126, 1, 0), (0, 100, 0, 3),
               (0, 0, 5, 5), (0, 20, 1, 2), (0, 3, 3, 0), (1, 50, 0, 0), (1, 0, 4, 0), (1, 10, 0, 1)]),
     (50, 4, 6)),
    (ideal(4, [(2, 0, 0, 0), (0, 300, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6), (0, 299, 1, 0), (0, 200, 0, 3),
               (0, 0, 5, 5), (0, 20, 1, 2), (0, 3, 3, 0), (1, 5, 0, 0), (1, 0, 4, 0), (1, 1, 0, 1)]),
     (5, 4, 6)),
], ids=["k1-127", "k2-300-to-5"])
def test_one_cut_brings_pure_powers_and_a_corner(i, cut_box):
    # the cut x_1 = 1 projects two generators to pure powers of x_2 and
    # x_3 and one to a corner. The powers replace their fields of the box,
    # 127 or 300 (all two bytes of its field) dropping to 50 or 5; they
    # and the new corner drop four of the five corners of x_1 = 0, and
    # x_2^3 x_3^3 stays
    assert len(i.gens) == 12
    boxes = []
    with every_slice(lambda box, corners, n, k: boxes.append(unpack(box, n, k))):
        count = count_standard(i)
    assert cut_box in boxes
    assert count == count_standard_ie(i) == len(enumerate_standard(i))


def ie_by_subsets(i):
    # inclusion-exclusion one generator subset at a time, as the oracle of
    # count_standard_ie's grouping by lcm: each subset S adds (-1)^|S|
    # times the box monomials divisible by lcm(S), and a subset whose lcm
    # escapes the box is pruned with all its supersets
    bounds = standard_count.artinian_bounds(i)
    gens = i.gens
    total = prod(bounds)

    def rec(start, lcm, sign):
        nonlocal total
        for k in range(start, len(gens)):
            merged = tuple(max(a, b) for a, b in zip(lcm, gens[k]))
            if all(e < b for e, b in zip(merged, bounds)):
                total += sign * prod(b - e for b, e in zip(bounds, merged))
                rec(k + 1, merged, -sign)

    rec(0, (0,) * i.nvars, -1)
    return total


def test_ie_cancelling_lcm_class():
    # lcm(xy^3, x^3y) = x^3y^3 = lcm(xy^3, x^2y^2, x^3y): the two subsets
    # have opposite signs, so the class x^3y^3 sums to 0
    i = ideal(2, [(5, 0), (0, 5), (1, 3), (2, 2), (3, 1)])
    assert count_standard_ie(i) == ie_by_subsets(i) == brute_count(i.gens, 2) == 12


def test_ie_guard():
    gens = [tuple(1 if i == j else 0 for i in range(23)) for j in range(23)]
    big = ideal(23, gens)
    with pytest.raises(ValueError):
        count_standard_ie(big)


def test_non_artinian_error_names_variable():
    with pytest.raises(NonArtinianError) as err:
        count_standard(ideal(2, [(1, 0)]))
    assert "x_2" in str(err.value)


def test_enumerate_examples():
    assert enumerate_standard(parking_ideal(K3)) == [(0, 0), (0, 1), (1, 0)]
    assert enumerate_standard(ideal(1, [(1,)])) == [(0,)]
    assert enumerate_standard(skeleton_ideal(P4, 1)) == [(0, 0, 0), (1, 0, 0)]


def test_enumeration_is_sorted_and_complete():
    i = skeleton_ideal(K4, 1)
    monomials = enumerate_standard(i)
    assert monomials == sorted(monomials)
    assert len(monomials) == count_standard(i)
    assert all(m not in i for m in monomials)


def test_zero_variable_quotients():
    assert count_standard(MonomialIdeal(0, ())) == 1
    assert count_standard(MonomialIdeal(0, ((),))) == 0


def brute_count(gens, nvars):
    # independent third route: scan the pure-power box directly
    if any(not any(g) for g in gens):
        return 0  # 1 is a generator
    bounds = []
    for i in range(nvars):
        powers = [g[i] for g in gens if g[i] > 0 and all(e == 0 for k, e in enumerate(g) if k != i)]
        bounds.append(min(powers))
    total = 0
    for p in product(*[range(b) for b in bounds]):
        if not any(all(g[i] <= p[i] for i in range(nvars)) for g in gens):
            total += 1
    return total


@st.composite
def artinian_ideals(draw):
    # above four variables the exponents stay below 4, so the box stays
    # small for brute_count. Random extras mostly divide one another or
    # lie outside the box, so nearly every draw ends at a leaf of the
    # counter; sparse_ideals reaches its slicing loop and its memo
    n = draw(st.integers(min_value=1, max_value=6))
    top = 5 if n <= 4 else 3
    pure = [draw(st.integers(min_value=1, max_value=top)) for _ in range(n)]
    gens = [tuple(pure[i] if j == i else 0 for j in range(n)) for i in range(n)]
    extra = draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=top)] * n),
        min_size=0, max_size=6))
    return MonomialIdeal(n, tuple(gens) + tuple(extra))


@st.composite
def sparse_ideals(draw):
    # shaped like J_H: pure powers and generators with exactly two nonzero
    # exponents, each below its pure power, as in 1-skeleton and sparse
    # parking ideals. A generator joining the slicing variable to another
    # projects to a single nonzero exponent, so the slice filter's
    # one-comparison test runs; artinian_ideals' dense extras do not reach
    # it. The box stays at 729 points or fewer for brute_count
    n = draw(st.integers(min_value=3, max_value=9))
    top = 4 if n <= 4 else 3 if n <= 6 else 2
    box = [draw(st.integers(min_value=2, max_value=top)) for _ in range(n)]
    gens = [tuple(box[i] if j == i else 0 for j in range(n)) for i in range(n)]
    pairs = draw(st.lists(st.lists(st.integers(min_value=0, max_value=n - 1),
                                   min_size=2, max_size=2, unique=True),
                          max_size=22 - n))  # count_standard_ie's guard
    for pair in pairs:
        gens.append(tuple(draw(st.integers(min_value=1, max_value=box[j] - 1)) if j in pair else 0
                          for j in range(n)))
    return MonomialIdeal(n, tuple(gens))


@st.composite
def graph_ideals(draw):
    # parking and 2-skeleton ideals of multigraphs on four or five non-root
    # vertices, each joined to the root, so the boundary monomial of a set
    # A has support A. The slice filter's multi-exponent test then runs on
    # projections with three or more variables, where a candidate h >= g
    # can reach g's last nonzero exponent and still miss an earlier one;
    # the strategies above rarely get there. Within count_standard_ie's
    # guard, and the box within 2000 points for brute_count
    n = draw(st.integers(min_value=4, max_value=5))
    top = 2 if n == 4 else 1
    edges = [(0, v, draw(st.integers(min_value=1, max_value=top))) for v in range(1, n + 1)]
    edges += [(u, v, draw(st.integers(min_value=0, max_value=top))) for u, v in combinations(range(1, n + 1), 2)]
    g = from_edges(n, edges)
    i = parking_ideal(g) if draw(st.booleans()) else skeleton_ideal(g, 2)
    assume(len(i.gens) <= IE_GENERATOR_GUARD and prod(artinian_bounds(i)) <= 2000)
    return i


counted_ideals = artinian_ideals() | sparse_ideals() | graph_ideals()


@settings(max_examples=90)  # the profile's 30 for each strategy
@given(counted_ideals)
# two-variable staircases with 3 to 20 corners, cut like any other slice
@example(ideal(2, [(0, 300), (1, 200), (2, 100), (3, 1), (257, 0)]))
@example(ideal(2, [(0, 260), (4, 259), (9, 256), (40, 255), (100, 30), (255, 2), (256, 1), (270, 0)]))
@example(ideal(2, [(k, 21 - k) for k in range(22)]))
@example(ideal(2, [(13 * k, 13 * (21 - k)) for k in range(22)]))
# the entry cases in one and no variables
@example(MonomialIdeal(1, ((7,),)))
@example(MonomialIdeal(0, ()))
@example(MonomialIdeal(0, ((),)))
def test_three_counting_routes_agree(i):
    walk = count_standard(i)
    assert walk == count_standard_ie(i)
    assert walk == brute_count(i.gens, i.nvars)
    assert walk == len(enumerate_standard(i))


@st.composite
def cornered_ideals(draw):
    # minimal Artinian ideals with exactly one or two generators that are
    # not pure powers (corners), whose supports may be disjoint or overlap;
    # each corner exponent is often at box - 1, the largest a corner can have
    n = draw(st.integers(min_value=2, max_value=6))
    top = 5 if n <= 4 else 3
    box = [draw(st.integers(min_value=2, max_value=top)) for _ in range(n)]
    gens = [tuple(box[i] if j == i else 0 for j in range(n)) for i in range(n)]
    corners = draw(st.integers(min_value=1, max_value=2))
    for _ in range(corners):
        support = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2))
        gens.append(tuple(draw(st.just(box[i] - 1) | st.integers(min_value=1, max_value=box[i] - 1))
                          if i in support else 0 for i in range(n)))
    i = MonomialIdeal(n, tuple(gens))
    assume(len(i.gens) == n + corners)  # two corners, neither dividing the other
    return i


@given(cornered_ideals())
@example(ideal(2, [(3, 0), (0, 3), (2, 1)]))
@example(ideal(2, [(3, 0), (0, 3), (2, 1), (1, 2)]))
@example(ideal(4, [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 4), (2, 2, 0, 0), (0, 0, 1, 3)]))
@example(ideal(3, [(4, 0, 0), (0, 2, 0), (0, 0, 5), (3, 1, 0), (1, 1, 4)]))
@example(ideal(6, [(3,) + (0,) * 5, (0, 3, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0), (0, 0, 0, 3, 0, 0),
                   (0, 0, 0, 0, 3, 0), (0,) * 5 + (3,), (2,) * 6]))
def test_corner_leaves_match_the_oracles(i):
    # the top of the count is a leaf: _corners counts it, and nothing
    # below it is sliced; it gets the ideal itself, packed
    corners = []

    def spy(box, gens, n, k):
        corners.append(len(gens))
        assert decode(box, gens, n, k) == list(i.gens)
        return original(box, gens, n, k)

    original = standard_count._corners
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(standard_count, "_corners", spy)
        count = count_standard(i)
    assert corners == [len(i.gens) - i.nvars]
    assert count == count_standard_ie(i)
    assert count == len(enumerate_standard(i))


@given(artinian_ideals())
def test_ie_grouped_by_lcm_matches_subset_sum(i):
    assert count_standard_ie(i) == ie_by_subsets(i)


@settings(max_examples=90)
@given(counted_ideals)
def test_every_slice_is_minimally_generated(i):
    # the counter keeps a slice minimal only by filtering the previous
    # one, and every_slice hands each slice, and the top ideal, to check.
    # Its corners must also arrive sorted: they are in its memo key and
    # are cut in order of their first exponent. A slice arrives packed, so
    # it is decoded at the call's field width; the ints must sort as their
    # exponent tuples do, and no exponent may reach a field's top bit, the
    # guard. The box holds one positive exponent per variable, the pure
    # powers, and each corner has two or more nonzero exponents, each
    # below the box's, as no pure power divides it
    def check(box, gens, n, k):
        tuples = [unpack(p, n, k) for p in gens]
        ideal = decode(box, gens, n, k)
        assert ideal == list(_minimalize(ideal))
        assert tuples == sorted(tuples)
        assert [unpack(p, n, k) for p in sorted(gens)] == sorted(tuples)
        assert max(map(max, ideal)) < 1 << 8 * k - 1
        bounds = unpack(box, n, k)
        assert min(bounds) > 0
        assert all(g.count(0) <= n - 2 and all(map(lt, g, bounds)) for g in tuples)

    with every_slice(check):
        assert count_standard(i) == count_standard_ie(i)


def chain(n):
    # J_H of the tridiagonal matrix of order n, diagonal 3, off-diagonal 1
    return matrix_skeleton_ideal(matrix([[3 if i == j else int(abs(i - j) == 1) for j in range(n)]
                                         for i in range(n)]))


def test_chain_count_stays_small_in_memory():
    # a chain's slices gain only pure powers, each landing in a box of
    # one int, and the slice at x_1 = 0 shares its corners' ints with the
    # sliced ideal, so the memo of the order-400 chain peaks near 2 MB;
    # keyed by whole packed slices, it peaked near 29 MB, growing as the
    # cube of the order. The memo outlives a count, so it starts empty
    i = chain(400)
    standard_count._MEMO.clear()
    tracemalloc.start()
    try:
        count_standard(i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def cold_count(i):
    # the count of i from an empty memo
    standard_count._MEMO.clear()
    return count_standard(i)


@pytest.mark.parametrize("ideals, total, leaves, hits, misses", [
    ([skeleton_ideal(random_multigraph(7, 3, s), 1) for s in range(6)], 73040917, 86, 2, 45),
    ([parking_ideal(random_multigraph(6, 3, s)) for s in range(6)], 1194691, 1993, 339, 773),
    ([parking_ideal(wheel(8))], 2205, 11, 20, 24),
    ([parking_ideal(complete_multigraph(7, 1, 1))], 8 ** 6, 105, 196, 99),
    ([chain(30)], 13397386067968, 3, 25, 52),
], ids=["skeleton-7", "parking-6", "wheel-8", "K_8", "chain-30"])
def test_the_loop_visits_the_nodes_the_recursion_did(ideals, total, leaves, hits, misses):
    # the counter was a recursion, one call per slice, with this slicing
    # order and memo key; these are the leaves, memo hits and misses it
    # visited, and its total, each ideal counted from an empty memo, as the
    # recursion's memo lived for one call. _corners counts the leaves and
    # _slices cuts the misses, the top ideal among them, which misses the
    # empty memo; every other slice yielded is a hit
    seen = {"corners": 0, "slices": 0, "yielded": 0}
    slices, corners = standard_count._slices, standard_count._corners

    def counted_slices(box, gens, n, k):
        seen["slices"] += 1
        for c, b, s in slices(box, gens, n, k):
            seen["yielded"] += 1
            yield c, b, s

    def counted_corners(box, gens, n, k):
        seen["corners"] += 1
        return corners(box, gens, n, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(standard_count, "_slices", counted_slices)
        mp.setattr(standard_count, "_corners", counted_corners)
        assert sum(map(cold_count, ideals)) == total
    yielded_hits = seen["yielded"] + len(ideals) - seen["corners"] - seen["slices"]
    assert (seen["corners"], yielded_hits, seen["slices"]) == (leaves, hits, misses)


@st.composite
def wide_ideals(draw):
    # a sparse_ideals shape with the nonzero exponents of some variables
    # raised so that their pure powers reach 127, 128, 32767 or 32768,
    # packed at k = 1, 2, 2 and 3 bytes a field, or left as it is (k = 1).
    # Raising one variable's nonzero exponents by one amount keeps every
    # divisibility, so the ideal stays minimal and Artinian
    i = draw(sparse_ideals())
    top = draw(st.sampled_from([None, 127, 128, 32767, 32768]))
    if top is None:
        return i
    raised = draw(st.sets(st.integers(min_value=0, max_value=i.nvars - 1), min_size=1))
    shift = [top - b if j in raised else 0 for j, b in enumerate(artinian_bounds(i))]
    return MonomialIdeal(i.nvars, tuple(tuple(e and e + d for e, d in zip(g, shift)) for g in i.gens))


# packed at their own widths, these two are the same (box, corners): 4
# variables at k = 1 with the box (1, 5, 1, 5), and 2 at k = 2 with the
# box (261, 261), each field a byte pair of the other's. Their counts, 15
# and 527, may share no memo entry
ONE_BYTE_TWIN = ideal(4, [(1, 0, 0, 0), (0, 5, 0, 0), (0, 0, 1, 0), (0, 0, 0, 5),
                          (0, 1, 0, 4), (0, 2, 0, 3), (0, 3, 0, 2), (0, 4, 0, 1)])
TWO_BYTE_TWIN = ideal(2, [(261, 0), (0, 261), (1, 4), (2, 3), (3, 2), (4, 1)])


@settings(max_examples=60)
@given(st.lists(wide_ideals(), min_size=2, max_size=6))
@example([ONE_BYTE_TWIN, TWO_BYTE_TWIN])
@example([TWO_BYTE_TWIN, ONE_BYTE_TWIN])
def test_a_warm_memo_counts_as_a_cold_one(stream):
    # the memo outlives a count, so each count of the stream runs on the
    # entries its predecessors left, at its own width and at others
    standard_count._MEMO.clear()
    warm = [count_standard(i) for i in stream]
    assert warm == [cold_count(i) for i in stream]
    assert warm == [count_standard_ie(i) for i in stream]


def test_family_sweeps_on_one_memo_match_the_matrix_tree_theorem():
    # members of one family share slices across n, so a sweep hits the
    # memo a smaller member left, or a larger one, in a shuffled order
    graphs = [family(n) for family in (cycle, fan, wheel) for n in range(3, 14)]
    graphs += [ladder(n) for n in range(3, 14, 2)]
    random.Random(0).shuffle(graphs)
    standard_count._MEMO.clear()
    for g in graphs:
        assert count_standard(parking_ideal(g)) == det(laplacians(g).ltilde)


def slices_calls(i):
    # the misses of one count: the slices _slices cut
    calls = 0
    slices = standard_count._slices

    def counted_slices(box, gens, n, k):
        nonlocal calls
        calls += 1
        return slices(box, gens, n, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(standard_count, "_slices", counted_slices)
        count_standard(i)
    return calls


def test_a_count_reuses_the_slices_of_an_earlier_one():
    # the 12-wheel's parking ideal is cut in 44 slices from an empty memo,
    # and in none after the 13-wheel's count, which met them all
    w12, w13 = parking_ideal(wheel(12)), parking_ideal(wheel(13))
    standard_count._MEMO.clear()
    cold = slices_calls(w12)
    standard_count._MEMO.clear()
    count_standard(w13)
    assert slices_calls(w12) < cold


def test_the_memo_keeps_at_most_its_cap(monkeypatch):
    # K_8's parking ideal makes 99 misses at k = 1; a count that leaves a
    # width's dict above the cap empties it, and leaves other widths be
    k8 = parking_ideal(complete_multigraph(7, 1, 1))
    memo = standard_count._MEMO
    memo.clear()
    assert count_standard(TWO_BYTE_TWIN) == 527
    monkeypatch.setattr(standard_count, "MEMO_CAP", 99)
    assert count_standard(k8) == 8 ** 6
    assert len(memo[1]) == 99 and len(memo[2]) == 1
    memo[1].clear()
    monkeypatch.setattr(standard_count, "MEMO_CAP", 98)
    assert count_standard(k8) == 8 ** 6
    assert memo[1] == {} and len(memo[2]) == 1

    # a count that raises part-way, once 60 slices are finished, clears an
    # overfull dict too, and leaves in one under the cap only the totals
    # of finished slices, which a recount then meets
    slices = standard_count._slices

    def failing_slices(box, gens, n, k):
        if len(memo[1]) >= 60:
            raise KeyboardInterrupt
        return slices(box, gens, n, k)

    for cap, kept in [(50, False), (99, True)]:
        memo[1].clear()
        monkeypatch.setattr(standard_count, "MEMO_CAP", cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(standard_count, "_slices", failing_slices)
            with pytest.raises(KeyboardInterrupt):
                count_standard(k8)
        assert bool(memo[1]) == kept
        assert count_standard(k8) == 8 ** 6


@settings(max_examples=90)
@given(counted_ideals, st.data())
def test_count_is_invariant_under_permuting_variables(i, data):
    # the memo key is the ideal in its own variable order, so a permuted
    # ideal is sliced on another variable, down another tree of slices
    perm = data.draw(st.permutations(range(i.nvars)))
    permuted = MonomialIdeal(i.nvars, tuple(tuple(g[k] for k in perm) for g in i.gens))
    assert count_standard(permuted) == count_standard(i)
    assert count_standard(permuted) == count_standard_ie(i)


@pytest.mark.parametrize("n, a, b", [(8, 1, 1), (8, 2, 3), (9, 2, 1)])
def test_count_complete_multigraph_skeleton(n, a, b):
    # 10^7 to 10^10 standard monomials, far past any point-by-point
    # route; the closed form is an independent one
    g = complete_multigraph(n, a, b)
    assert count_standard(skeleton_ideal(g, 1)) == skeleton1_dim_complete(n, a, b)


def test_count_parking_ideal_of_k8():
    # 9^7 spanning trees of the complete graph on 9 vertices (Cayley)
    assert count_standard(parking_ideal(complete_multigraph(8, 1, 1))) == 9 ** 7


def test_count_parking_ideal_of_k10():
    # 10^8 (Cayley), from 1023 generators in 9 variables
    assert count_standard(parking_ideal(complete_multigraph(9, 1, 1))) == 10 ** 8


# The figures of merit: each count finishes in under a minute in a fresh
# interpreter. The wheel and the fan are relabeled, so the counter meets
# their ideals in another variable order than the natural one.
FIGURE_OF_MERIT = """
from parkdet.monomial_ideals import parking_ideal, skeleton_ideal
from parkdet.multigraph import complete_multigraph, from_edges, random_multigraph, relabel_vertices
from parkdet.standard_count import count_standard
spokes = [(0, i, 1) for i in range(1, 14)]
path = [(i, i + 1, 1) for i in range(1, 13)]
perm = [5 * k % 13 + 1 for k in range(13)]
wheel = relabel_vertices(from_edges(13, spokes + path + [(1, 13, 1)]), perm)
fan = relabel_vertices(from_edges(13, spokes + path), perm)
print(count_standard({ideal}))
"""


@pytest.mark.parametrize("ideal, count", [
    ("parking_ideal(complete_multigraph(10, 1, 1))", 11 ** 9),  # Cayley
    ("parking_ideal(complete_multigraph(11, 1, 1))", 12 ** 10),
    ("skeleton_ideal(random_multigraph(26, 3, 7), 1)", 781371338484904243896648617407733383987200),
    ("skeleton_ideal(random_multigraph(30, 3, 7), 1)", 124043776578098633721157992553786923308291712000000),
    ("parking_ideal(wheel)", 271441),  # the spanning trees of the 13-wheel
    ("parking_ideal(fan)", 121393),  # and of the 13-fan
], ids=["K_11", "K_12", "skeleton-26", "skeleton-30", "wheel-13", "fan-13"])
def test_figure_of_merit_counts_in_under_a_minute(fresh_python, ideal, count):
    done = fresh_python(FIGURE_OF_MERIT.format(ideal=ideal))
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{count}\n"


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_count_dense_parking_ideal_matches_closed_form(n, a, b):
    # every cut of the complete multigraph is a generator, so the slice
    # filter sees many multiples per cut; a(a + nb)^(n-1) is independent
    g = complete_multigraph(n, a, b)
    assert count_standard(parking_ideal(g)) == parking_dim_complete(n, a, b)


def test_count_parking_ideal_of_the_19_cycle():
    # 190 generators, one per arc of the path 1..19; past the reach of
    # skeleton_ideal, which takes 2^19 - 1 subsets
    g = from_edges(19, [(i, i + 1, 1) for i in range(19)] + [(0, 19, 1)])
    cycle_ideal = parking_ideal(g)
    assert len(cycle_ideal.gens) == 190
    assert count_standard(cycle_ideal) == 20


def test_lambda_parking_examples():
    assert is_lambda_parking((1, 0), (2, 1))
    assert not is_lambda_parking((1, 1), (2, 1))
    assert count_lambda_parking((2, 1)) == 3
    with pytest.raises(ValueError):
        is_lambda_parking((1, 0, 0), (2, 1))


def test_g_parking_examples():
    assert is_g_parking(K3, (0, 1))
    assert not is_g_parking(K3, (1, 1))
    assert is_g_parking(K4, (0, 0, 0))
    with pytest.raises(ValueError):
        is_g_parking(K3, (0, 1, 2))


def g_parking_by_subsets(g, p):
    # the definition, as an oracle for Dhar's burning algorithm: every
    # nonempty set A of non-root vertices holds an i with p_i below its
    # number of edges leaving A
    verts = range(1, g.n + 1)
    for size in range(1, g.n + 1):
        for a in combinations(verts, size):
            if all(p[i - 1] >= sum(g.adj[i][j] for j in range(g.n + 1) if j not in a) for i in a):
                return False
    return True


BURNING_GRAPHS = [
    *(random_multigraph(n, 1, seed) for n in range(1, 6) for seed in range(3)),
    *(random_multigraph(n, 2, seed) for n in range(1, 5) for seed in range(2)),
    P4,
    from_edges(4, [(0, 1, 2), (1, 2, 1), (3, 4, 1)]),  # {3, 4} never burns
]


@pytest.mark.parametrize("g", BURNING_GRAPHS)
def test_burning_matches_subset_scan(g):
    degs = g.degrees()
    box = product(*(range(degs[i] + 1) for i in range(1, g.n + 1)))
    assert all(is_g_parking(g, p) == g_parking_by_subsets(g, p) for p in box)


@pytest.mark.parametrize("seed", range(4))
def test_parking_equivalence(seed):
    g = random_multigraph(3, 2, seed=seed)
    standard = set(enumerate_standard(parking_ideal(g)))
    degs = g.degrees()
    box = [range(max(degs[i], 1)) for i in range(1, g.n + 1)]
    brute = {p for p in product(*box) if is_g_parking(g, p)}
    assert standard == brute


@pytest.mark.parametrize("lam", [(1,), (2, 1), (2, 2), (3, 1, 1), (3, 2, 2), (4, 3, 2, 1)])
def test_lambda_equivalence(lam):
    assert count_lambda_parking(lam) == count_standard(lambda_ideal(lam))


def test_lambda_parking_set_equivalence():
    # the standard monomials of the lambda ideal are the lambda-parking
    # vectors themselves, for all 69 sequences of length and entries <= 4
    lams = [tuple(sorted(raw, reverse=True)) for n in range(1, 5)
            for raw in combinations_with_replacement(range(1, 5), n)]
    assert len(lams) == 69
    for lam in lams:
        standard = set(enumerate_standard(lambda_ideal(lam)))
        box = product(range(lam[0]), repeat=len(lam))
        assert standard == {p for p in box if is_lambda_parking(p, lam)}, lam
        assert len(standard) == steck_count(lam), lam


def test_matrix_tree_cross_check():
    for seed in range(4):
        g = random_multigraph(4, 2, seed=seed)
        assert count_standard(parking_ideal(g)) == det(laplacians(g).ltilde)


@pytest.mark.parametrize("seed", range(6))
def test_matrix_tree_at_six_vertices(seed):
    # each count meets the same slice again, 14 to 167 times, so the memo
    # is hit; a memo key that merged slices whose generators are equal up
    # to reordering each one's exponents gives wrong counts here (seeds 2
    # and 4)
    g = random_multigraph(6, 3, seed=seed)
    assert count_standard(parking_ideal(g)) == det(laplacians(g).ltilde)


def test_skeleton_monotonicity():
    for seed in range(4):
        g = random_multigraph(4, 2, seed=seed)
        counts = [count_standard(skeleton_ideal(g, k)) for k in range(g.n)]
        assert all(counts[k] >= counts[k + 1] for k in range(g.n - 1))


def test_step_weight_counts():
    # two-variable family has the closed product form (a1+b)(a2+b) - b^2
    i = skeleton_ideal(complete_multigraph(2, 2, 1), 1)
    assert count_standard(i) == (2 + 1) * (2 + 1) - 1
    assert count_standard(step_weight_ideal(3, 1, 3)) == 12
