"""Differential tests of the point-ratio distance against the every-pair
histogram and the brute-force rank and gcd scans of ``oracles.py``, of the
union scan's orbit sizes against the linearity-field oracle, and of the orbit
size and the walked orbit against the projective scan of the orbit, over
q in {2, 3, 4}."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    gcd_scan,
    histogram_scan,
    linearity_field,
    orbit_by_scan,
    rank_scan,
    shift_intersection_dims,
    shifted_intersection_dim,
    span_by_enumeration,
    subspace_polynomial,
)
from strategies import TOWERS, orbit_generators, subfield_unions

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import DimensionMismatch, Infeasible
from cyclic_cdc.field_tower import LOG_TABLE_LIMIT, batch_inverse, build_tower

BUDGET = 1 << 26


def _shift_dims(u, v):
    return sl.shift_dims(u, v, batch_inverse(v.tower.top, v.projective_reps()))


def _check_shift_dims(u, v):
    dims = _shift_dims(u, v)
    assert dims == shift_intersection_dims(u, v)
    for alpha in u.tower.projective_reps("top"):
        assert dims.get(alpha, 0) == shifted_intersection_dim(u, v, alpha), alpha


def _inverses(gens):
    """Each generator's point inverses, in ``projective_reps`` order."""
    return [batch_inverse(g.tower.top, g.projective_reps()) for g in gens]


def _shared_pairs(gens):
    """Pairs i <= j with a shift of dimension >= 2, the identity of a self
    pair aside, each with its oracle histogram."""
    return [
        (i, j, dims)
        for i in range(len(gens)) for j in range(i, len(gens))
        for dims in [shift_intersection_dims(gens[i], gens[j])]
        if any(d >= 2 and (i != j or alpha != 1) for alpha, d in dims.items())]


KINDS = pytest.mark.parametrize(
    "q, subfield_linear", [(q, sub) for q in sorted(TOWERS) for sub in (False, True)]
)


@KINDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_union_distance_matches_rank_scan(q, subfield_linear, data):
    gens = data.draw(orbit_generators(q, subfield_linear))
    tw, k = gens[0].tower, gens[0].dim
    scan = sl.union_distance(gens, BUDGET)
    assert (scan.distance, scan.collisions) == rank_scan(gens) == histogram_scan(gens)
    points = (tw.q ** k - 1) // (tw.q - 1)
    assert scan.point_ratios == len(gens) * points * (points - 1)
    # the filter keeps exactly the pairs that meet some shift in a line, each
    # with its histogram
    assert scan.shared_pairs == (_shared_pairs(gens) if k > 1 else [])
    assert scan.inverses == _inverses(gens)
    # one generator per orbit, the first of each: j repeats an earlier orbit
    # exactly when it meets a shift of one in all k dimensions
    assert scan.distinct == [j for j in range(len(gens)) if not any(
        k in shift_intersection_dims(gens[i], gens[j]).values() for i in range(j))]
    # each orbit is sized, and the union's size counts each distinct one once
    orbits = [orbit_by_scan(g) for g in gens]
    assert scan.orbit_sizes == [len(o) for o in orbits]
    assert scan.size == len(set().union(*orbits))
    _check_shift_dims(gens[0], gens[-1])


def test_union_distance_matches_rank_scan_on_even_2_2_8(even_code_2_2_8):
    gens = list(even_code_2_2_8.generators)
    scan = sl.union_distance(gens, BUDGET)
    assert (scan.distance, scan.collisions, scan.point_ratios, scan.shared_pairs) == (
        2, [], 4 * 3 * 2, [])
    assert scan.inverses == _inverses(gens) and scan.distinct == [0, 1, 2, 3]
    assert rank_scan(gens) == histogram_scan(gens) == (2, [])
    # g^77 * U_2 repeats the orbit of U_2: the later member is the one dropped
    with_copy = gens + [sl.cyclic_shift(gens[2], 77)]
    scan = sl.union_distance(with_copy, BUDGET)
    assert (scan.distance, scan.collisions, scan.point_ratios, scan.shared_pairs) == (
        2, [(2, 4)], 5 * 3 * 2, _shared_pairs(with_copy))
    assert scan.inverses == _inverses(with_copy) and scan.distinct == [0, 1, 2, 3]
    assert [(i, j) for i, j, _ in _shared_pairs(with_copy)] == [(2, 4)]
    assert rank_scan(with_copy) == histogram_scan(with_copy) == (2, [(2, 4)])
    with pytest.raises(Infeasible):
        sl.union_distance(gens, 4 * 3 * 2 - 1)


# -- one seeded case per branch of union_distance ----------------------------------

def _all_routes(gens):
    """union_distance, checked against both oracles, its histograms against
    the oracle's and its point inverses against ``batch_inverse``; returns its
    distance, collisions, ratio count and each shared pair's (i, j) alone."""
    scan = sl.union_distance(gens, BUDGET)
    assert (scan.distance, scan.collisions) == rank_scan(gens) == histogram_scan(gens)
    assert all(dims == shift_intersection_dims(gens[i], gens[j])
               for i, j, dims in scan.shared_pairs)
    assert scan.inverses == _inverses(gens)
    return (scan.distance, scan.collisions, scan.point_ratios,
            [(i, j) for i, j, _ in scan.shared_pairs])


def test_union_distance_of_points():
    # k = 1: no internal ratios, and every two points are shifts of each other
    tw = build_tower(*TOWERS[3])
    points = [sl.span(tw, [x]) for x in (1, 5, 17)]
    assert _all_routes(points) == (2, [(0, 1), (0, 2), (1, 2)], 0, [])
    assert _all_routes(points[:1]) == (2, [], 0, [])
    assert sl.union_distance(points, BUDGET).distinct == [0]


def test_union_distance_from_a_pair_that_shares_no_ratio():
    # GF(4) in GF(2^6) repeats each of its ratios 3 times (its stabilizer is
    # GF(4)*), so its self pair is the one shared pair, and every non-identity
    # shift of it meets it in 0 or 2 dimensions; the distance 2 comes from the
    # unshared pairs with the line span(1, 4), each at depth 1
    tw = build_tower(*TOWERS[2])
    gf4, line = sl.span(tw, [1, 2]), sl.span(tw, [1, 4])
    assert linearity_field(gf4) == 2 and linearity_field(line) == 1
    assert set(_shift_dims(gf4, gf4).values()) == {2}
    assert _all_routes([gf4]) == (4, [], 6, [(0, 0)])
    assert _all_routes([gf4, line]) == (2, [], 12, [(0, 0)])


def test_union_distance_of_a_shared_pair_meeting_in_a_plane():
    # two 3-spaces of GF(2^6) through the plane GF(4) = span(1, 2): the shift
    # 1 meets in 2 dimensions, so the pair shares ratios and sets distance
    # 6 - 4 = 2; each self pair is shared too, as the shifts by GF(4)* keep
    # the plane
    tw = build_tower(*TOWERS[2])
    u, v = sl.span(tw, [1, 2, 8]), sl.span(tw, [1, 2, 16])
    assert _shift_dims(u, v)[1] == 2 and _shift_dims(u, u)[2] == 2
    assert _all_routes([u, v]) == (2, [], 2 * 7 * 6, [(0, 0), (0, 1), (1, 1)])


def test_union_distance_of_a_ratio_repeated_inside_one_generator():
    # GF(9) in GF(3^4): its 4 points give 12 ordered ratios, each of the 3
    # non-identity points of the projective line GF(9)*/GF(3)* 4 times
    tw = build_tower(*TOWERS[3])
    gf9 = sl.span(tw, [1, 3])
    assert linearity_field(gf9) == 2
    assert _all_routes([gf9]) == (4, [], 12, [(0, 0)])


def test_union_distance_budget_checks_ratios_then_histograms(even_code_2_2_8):
    # a shifted copy of generator 2 shares its ratios: 5 x 3 x 2 = 30 ratios,
    # then one shared pair of 3^2 point pairs
    gens = list(even_code_2_2_8.generators)
    gens.append(sl.cyclic_shift(gens[2], 77))
    with pytest.raises(Infeasible, match="point ratios exceeds"):
        sl.union_distance(gens, 29)
    for budget in (30, 30 + 9 - 1):
        with pytest.raises(Infeasible, match="shared pairs"):
            sl.union_distance(gens, budget)
    scan = sl.union_distance(gens, 30 + 9)
    assert (scan.distance, scan.collisions, scan.point_ratios) == (2, [(2, 4)], 30)
    assert [(i, j) for i, j, _ in scan.shared_pairs] == [(2, 4)]


def test_union_distance_rejects_empty_mixed_and_zero_dimensional_lists():
    tw = build_tower(*TOWERS[2])
    line, plane, zero = sl.span(tw, [1]), sl.span(tw, [1, 2]), sl.span(tw, [])
    for gens in ([], [line, plane], [zero], [zero, zero]):
        with pytest.raises(DimensionMismatch):
            sl.union_distance(gens, BUDGET)


@KINDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_projective_reps_match_span_enumeration(q, subfield_linear, data):
    for u in data.draw(orbit_generators(q, subfield_linear)):
        tw = u.tower
        reps = u.projective_reps()
        elements = span_by_enumeration(tw, u.rows)
        assert len(reps) == (tw.q ** u.dim - 1) // (tw.q - 1)
        assert set(reps) <= elements
        # no two reps are proportional, and their multiples cover the span
        multiples = {tw.top.mul(c, p) for p in reps for c in range(1, tw.q)}
        assert len(multiples) == len(reps) * (tw.q - 1)
        assert multiples == elements - {0}


@KINDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_poly_code_distance_matches_gcd_scan(q, subfield_linear, data):
    polys = [subspace_polynomial(u) for u in data.draw(orbit_generators(q, subfield_linear))]
    rep = lp.poly_code_distance(polys)
    assert (rep.scan.distance, rep.scan.collisions) == gcd_scan(polys)


@KINDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_orbit_size_matches_enumeration(q, subfield_linear, data):
    for u in data.draw(orbit_generators(q, subfield_linear)):
        orbit, scan = sl.enumerate_orbit(u), orbit_by_scan(u)
        assert sl.orbit_size(u) == len(scan) == len(set(orbit)) == len(orbit)
        assert set(orbit) == scan


@pytest.mark.parametrize("q, k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_union_scan_orbit_sizes_match_the_linearity_field(q, k, data):
    # each orbit size is read off the generator's self pair, and a generator
    # whose self pair is not shared has the full orbit: both must agree with
    # (q^m - 1)/(q^d - 1) for the largest subfield GF(q^d) that U is linear
    # over (GF(q^2) at k = 2, and GF(8) at q = 2, k = 3)
    gens = data.draw(subfield_unions(q, k))
    tw = gens[0].tower
    sizes = [(tw.q ** tw.m - 1) // (tw.q ** linearity_field(u) - 1) for u in gens]
    assert sl.union_distance(gens, BUDGET).orbit_sizes == sizes
    assert [sl.orbit_size(u) for u in gens] == sizes


@pytest.mark.parametrize("spec, d", [((2, 1, 2, 3), 3), ((2, 1, 2, 4), 4)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_orbit_size_of_a_subfield_shift(spec, d, data):
    # x * GF(2^d) in GF(2^m): d-dimensional and linear over GF(2^d), so the
    # orbit has (2^m - 1)/(2^d - 1) members.  In GF(2^8), x * GF(2^4) is also
    # linear over GF(2^2): the largest subfield must win.
    tw = build_tower(*spec)
    top = tw.top
    x = data.draw(st.integers(1, top.order - 1))
    subfield = [y for y in range(1, top.order) if top.pow(y, 2 ** d) == y]
    u = sl.span(tw, [top.mul(x, y) for y in subfield])
    assert u.dim == d and len(subfield) == 2 ** d - 1
    assert linearity_field(u) == d
    orbit, scan = sl.enumerate_orbit(u), orbit_by_scan(u)
    assert sl.orbit_size(u) == len(scan) == (top.order - 1) // len(subfield)
    assert len(set(orbit)) == len(orbit) == len(scan)
    assert set(orbit) == scan


# -- a field without log tables ---------------------------------------------------

@pytest.fixture(scope="module")
def gf3_15_shift_dims():
    """Two Sidon generators u, v over GF(3^15), the field's primitive
    element, and the shift dims of (u, u) and of (u, v)."""
    tw = build_tower(3, 1, 3, 5)
    assert tw.top.order > LOG_TABLE_LIMIT
    params = sc.enumerate_family(tw)
    u, v = (sc.make_subspace(next(params), tw) for _ in range(2))
    dims = {(a, b): _shift_dims(a, b) for a, b in ((u, u), (u, v))}
    return tw.top.primitive, dims


def test_shift_dims_above_table_limit(gf3_15_shift_dims):
    _, dims_by_pair = gf3_15_shift_dims
    for (a, b), dims in dims_by_pair.items():
        assert len(dims) == 13 * 13 - (12 if a is b else 0)  # Sidon: single points
        for alpha, d in dims.items():
            assert shifted_intersection_dim(a, b, alpha) == d


@settings(max_examples=20, deadline=None)
@given(st.integers(0, (3 ** 15 - 1) // 2 - 1))
def test_sampled_shift_dims_above_table_limit(gf3_15_shift_dims, c):
    g, dims_by_pair = gf3_15_shift_dims
    for (a, b), dims in dims_by_pair.items():
        alpha = a.tower.canon_projective(a.tower.top.pow(g, c))
        assert dims.get(alpha, 0) == shifted_intersection_dim(a, b, alpha)
