"""Differential tests of the two elimination kernels behind ``rank_rows``,
``rref_rows``, ``map_kernel`` and ``field_matrix_rank``, against oracles
that enumerate spans and maps instead of eliminating."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    field_matrix_rank_division_free,
    kernel_by_enumeration,
    rref_by_enumeration,
    span_by_enumeration,
)

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.field_tower import build_tower

# q = 2, 3, 4 with m = 10, 6, 6 for spans and m = 8, 6, 6 for maps: at most
# 4096 vectors to evaluate per map
SPAN_TOWERS = [(2, 1, 2, 5), (3, 1, 2, 3), (2, 2, 2, 3)]
MAP_TOWERS = [(2, 1, 2, 4), (3, 1, 2, 3), (2, 2, 2, 3)]
# GF(3^6) and GF(4^6), above 2^8, without dense tables; GF(2^8) and GF(3^4),
# whose dense tables _echelon indexes
MATRIX_FIELDS = [(3, 1, 2, 3), (2, 2, 2, 3), (2, 1, 2, 4), (3, 1, 2, 2)]


@st.composite
def row_lists(draw, tower):
    """Up to six element encodings: random rows, then zero rows, duplicates
    and GF(q)-combinations of two earlier rows."""
    top = tower.top
    rows = draw(st.lists(st.integers(0, top.order - 1), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("zero", "duplicate", "combination")))
        if kind == "zero" or not rows:
            rows.append(0)
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.integers(1, tower.q - 1))
            rows.append(top.add(a, top.mul(c, b)))
    return draw(st.permutations(rows))


@st.composite
def low_rank_maps(draw, tower):
    """Images of the m basis vectors, each a GF(q)-combination of at most m
    random elements, so that kernels of every dimension occur."""
    top = tower.top
    basis = draw(st.lists(st.integers(1, top.order - 1), max_size=tower.m))
    images = []
    for _ in range(tower.m):
        img = 0
        for b in basis:
            img = top.add(img, top.mul(draw(st.integers(0, tower.q - 1)), b))
        images.append(img)
    return images


@st.composite
def low_rank_matrices(draw, top):
    """Up to 5 x 4 matrices whose rows combine at most ``rank`` random rows."""
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 5))
    elem = st.integers(0, top.order - 1)
    rank = draw(st.integers(0, min(nrows, ncols)))
    base = draw(st.lists(st.lists(elem, min_size=ncols, max_size=ncols),
                         min_size=rank, max_size=rank))
    rows = []
    for _ in range(nrows):
        v = [0] * ncols
        for b in base:
            c = draw(elem)
            v = [top.add(x, top.mul(c, y)) for x, y in zip(v, b)]
        rows.append(v)
    return rows, rank


@pytest.mark.parametrize("params", SPAN_TOWERS, ids=lambda p: f"q{p[0] ** p[1]}")
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rref_and_rank_match_span_enumeration(params, data):
    tw = build_tower(*params)
    rows = data.draw(row_lists(tw))
    rref = sl.rref_rows(tw, rows)
    assert rref == rref_by_enumeration(tw, rows)
    rank = sl.rank_rows(tw, rows)
    assert rank == len(rref)
    assert tw.q ** rank == len(span_by_enumeration(tw, rows))


@pytest.mark.parametrize("params", SPAN_TOWERS, ids=lambda p: f"q{p[0] ** p[1]}")
def test_rref_and_rank_of_no_rows(params):
    tw = build_tower(*params)
    assert sl.rref_rows(tw, []) == rref_by_enumeration(tw, []) == ()
    assert sl.rank_rows(tw, []) == sl.rank_rows(tw, [0, 0]) == 0


@pytest.mark.parametrize("params", MAP_TOWERS, ids=lambda p: f"q{p[0] ** p[1]}")
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_map_kernel_matches_evaluation_on_every_vector(params, data):
    tw = build_tower(*params)
    images = data.draw(low_rank_maps(tw))
    ker = sl.map_kernel(tw, images)
    assert span_by_enumeration(tw, ker.rows) == kernel_by_enumeration(tw, images)
    assert sl.rref_rows(tw, ker.rows) == ker.rows


@pytest.mark.parametrize("params", MATRIX_FIELDS, ids=lambda p: f"GF({p[0] ** p[1]}^{p[2] * p[3]})")
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_field_matrix_rank_matches_division_free_on_rank_deficient_matrices(params, data):
    top = build_tower(*params).top
    rows, rank = data.draw(low_rank_matrices(top))
    got = lp.field_matrix_rank(top, rows)
    assert got == field_matrix_rank_division_free(top, rows)
    assert got <= rank


def test_matrix_fields_reach_both_row_operations():
    tables = [build_tower(*params).top._mul_table is not None for params in MATRIX_FIELDS]
    assert tables == [False, False, True, True]
