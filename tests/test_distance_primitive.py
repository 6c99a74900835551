"""Differential tests of the projective log-difference distance against the
brute-force rank and gcd scans of ``oracles.py``, and of the orbit size against
listing the orbit, over q in {2, 3, 4}."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    gcd_scan,
    rank_scan,
    shift_intersection_dims,
    shifted_intersection_dim,
    subspace_polynomial,
)

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import Infeasible
from cyclic_cdc.field_tower import LOG_TABLE_LIMIT, build_tower

# q -> tower (p, a, k, t) of GF(q^4) or GF(q^6), both with the subfield GF(q^2)
TOWERS = {2: (2, 1, 2, 3), 3: (3, 1, 2, 2), 4: (2, 2, 2, 2)}
BUDGET = 1 << 26


@st.composite
def orbit_generators(draw, q, subfield_linear):
    """1-3 subspaces of one dimension k, and sometimes a shifted copy of one
    of them (an orbit collision).  With ``subfield_linear`` k = 2, the first
    generator is a shift of GF(q^2), whose orbit is short, and each other
    generator may be one too."""
    tw = build_tower(*TOWERS[q])
    top = tw.top
    element = st.integers(1, top.order - 1)
    k = 2 if subfield_linear else draw(st.integers(1, min(3, tw.m - 1)))
    gens = []
    for i in range(draw(st.integers(1, 3))):
        if subfield_linear and (i == 0 or draw(st.booleans())):
            x = draw(element)
            vecs = [top.mul(x, b) for b in range(1, q ** 2)]
        else:
            vecs = draw(st.lists(element, min_size=k, max_size=k))
        u = sl.span(tw, vecs)
        assume(u.dim == k)
        gens.append(u)
    if draw(st.booleans()):
        source = gens[draw(st.integers(0, len(gens) - 1))]
        gens.append(sl.cyclic_shift(source, draw(element)))
    return gens


def _check_shift_dims(u, v):
    top = u.tower.top
    n = (top.order - 1) // (u.tower.q - 1)
    dims = shift_intersection_dims(u, v)
    for alpha in u.tower.projective_reps("top"):
        got = dims.get(top.discrete_log(alpha) % n, 0)
        assert got == shifted_intersection_dim(u, v, alpha), alpha


KINDS = pytest.mark.parametrize(
    "q, subfield_linear", [(q, sub) for q in sorted(TOWERS) for sub in (False, True)]
)


@KINDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_union_distance_matches_rank_scan(q, subfield_linear, data):
    gens = data.draw(orbit_generators(q, subfield_linear))
    tw, k = gens[0].tower, gens[0].dim
    distance, collisions, differences = sl.union_distance(gens, BUDGET)
    assert (distance, collisions) == rank_scan(gens)
    points = (tw.q ** k - 1) // (tw.q - 1)
    assert differences == len(gens) * (len(gens) + 1) // 2 * points ** 2
    _check_shift_dims(gens[0], gens[-1])


def test_union_distance_matches_rank_scan_on_even_2_2_8(even_code_2_2_8):
    gens = list(even_code_2_2_8.generators)
    assert sl.union_distance(gens, BUDGET)[:2] == rank_scan(gens) == (2, [])
    with_copy = gens + [sl.cyclic_shift(gens[2], 77)]
    assert sl.union_distance(with_copy, BUDGET)[:2] == rank_scan(with_copy) == (2, [(2, 4)])
    with pytest.raises(Infeasible):
        sl.union_distance(gens, 10 * 9 - 1)


@KINDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_poly_code_distance_matches_gcd_scan(q, subfield_linear, data):
    polys = [subspace_polynomial(u) for u in data.draw(orbit_generators(q, subfield_linear))]
    rep = lp.poly_code_distance(polys)
    assert (rep.distance, rep.collisions) == gcd_scan(polys)


@KINDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_orbit_size_matches_enumeration(q, subfield_linear, data):
    for u in data.draw(orbit_generators(q, subfield_linear)):
        assert sl.orbit_size(u) == len(sl.enumerate_orbit(u))


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
    assert sl.linearity_field(u) == d
    assert sl.orbit_size(u) == len(sl.enumerate_orbit(u)) == (top.order - 1) // len(subfield)


# -- a field without log tables ---------------------------------------------------

@pytest.fixture(scope="module")
def gf3_15_shift_dims():
    """Two Sidon generators u, v over GF(3^15), the field's primitive
    element, and the shift dims of (u, u) and of (u, v)."""
    tw = build_tower(3, 1, 3, 5)
    assert tw.top.order > LOG_TABLE_LIMIT
    params = sc.enumerate_family(tw)
    u, v = (sc.make_subspace(next(params), tw) for _ in range(2))
    dims = {(a, b): shift_intersection_dims(a, b) for a, b in ((u, u), (u, v))}
    return tw.top.primitive, dims


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3 ** 15 - 1))
def test_discrete_log_above_table_limit(gf3_15_shift_dims, x):
    g, _ = gf3_15_shift_dims
    top = build_tower(3, 1, 3, 5).top
    assert top.pow(g, top.discrete_log(x)) == x


def test_shift_dims_above_table_limit(gf3_15_shift_dims):
    g, dims_by_pair = gf3_15_shift_dims
    for (a, b), dims in dims_by_pair.items():
        for c, d in dims.items():
            assert shifted_intersection_dim(a, b, a.tower.top.pow(g, c)) == d


@settings(max_examples=20, deadline=None)
@given(st.integers(0, (3 ** 15 - 1) // 2 - 1))
def test_sampled_shift_dims_above_table_limit(gf3_15_shift_dims, c):
    g, dims_by_pair = gf3_15_shift_dims
    for (a, b), dims in dims_by_pair.items():
        assert dims.get(c, 0) == shifted_intersection_dim(a, b, a.tower.top.pow(g, c))
