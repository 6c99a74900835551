import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import shifted_intersection_dim, span_by_enumeration

from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import AmbientMismatch, ZeroShift
from cyclic_cdc.field_tower import build_tower


def subfield_subspace(tower):
    return sl.span(tower, range(1, tower.mid.order))


def random_subspace(tower, dim, rng):
    while True:
        s = sl.span(tower, [rng.randrange(1, tower.top.order) for _ in range(dim)])
        if s.dim == dim:
            return s


def first_generator(tower):
    params = next(iter(sc.enumerate_family(tower)))
    return sc.make_subspace(params, tower)


def test_span_examples():
    tw = build_tower(2, 1, 2, 5)
    two = sl.span(tw, [1, tw.xi])
    assert two.dim == 2
    assert subfield_subspace(tw).dim == tw.k
    # scalar multiples collapse
    tw3 = build_tower(3, 1, 3, 5)
    u = 12345
    assert sl.span(tw3, [u, tw3.scalar_mul(2, u)]).dim == 1
    assert sl.span(tw, [0, 0]).rows == ()


def test_rref_canonical_under_row_mixing():
    tw = build_tower(3, 1, 3, 5)
    rng = random.Random(0)
    s = random_subspace(tw, 3, rng)
    for _ in range(20):
        rows = list(s.rows)
        rng.shuffle(rows)
        # replace rows by random nonzero scalar multiples and row sums
        rows[0] = tw.scalar_mul(rng.randrange(1, 3), rows[0])
        rows[1] = tw.top.add(rows[1], rows[2])
        assert sl.span(tw, rows).rows == s.rows


def test_intersection_examples():
    tw = build_tower(2, 1, 2, 5)
    F4 = subfield_subspace(tw)
    # dim(U ∩ V) = (dim U + dim V - distance) / 2
    assert sl.subspace_distance(F4, F4) == 0
    shifted = sl.cyclic_shift(F4, tw.gamma)
    assert sl.subspace_distance(F4, shifted) == 2 * tw.k
    with pytest.raises(AmbientMismatch):
        sl.subspace_distance(F4, subfield_subspace(build_tower(2, 1, 2, 4)))


def test_max_shift_intersection_of_construction_generator_is_one():
    # exhaustive alpha scan; the generator's proper shifts never meet it in
    # more than a line
    tw = build_tower(2, 1, 2, 5)
    u = first_generator(tw)
    dims = []
    for alpha in tw.projective_reps("top"):
        d = shifted_intersection_dim(u, u, alpha)
        if d < u.dim:  # alpha outside the stabilizer
            dims.append(d)
    assert max(dims) == 1


def test_metric_axioms_on_random_triples():
    tw = build_tower(2, 1, 2, 4)
    rng = random.Random(1)
    for _ in range(60):
        a = random_subspace(tw, rng.randrange(1, 4), rng)
        b = random_subspace(tw, rng.randrange(1, 4), rng)
        c = random_subspace(tw, rng.randrange(1, 4), rng)
        dab, dba = sl.subspace_distance(a, b), sl.subspace_distance(b, a)
        assert dab == dba >= 0
        assert (dab == 0) == (a.rows == b.rows)
        assert dab <= sl.subspace_distance(a, c) + sl.subspace_distance(c, b)


def test_cyclic_shift_group_action():
    tw = build_tower(3, 1, 3, 5)
    rng = random.Random(2)
    u = random_subspace(tw, 3, rng)
    assert sl.cyclic_shift(u, 1).rows == u.rows
    lam = 2  # a GF(q)* scalar
    assert sl.cyclic_shift(u, lam).rows == u.rows
    alpha = rng.randrange(2, tw.top.order)
    back = sl.cyclic_shift(sl.cyclic_shift(u, alpha), tw.top.inv(alpha))
    assert back.rows == u.rows
    with pytest.raises(ZeroShift):
        sl.cyclic_shift(u, 0)


def test_shift_intersection_invariant_under_scalar():
    tw = build_tower(3, 1, 3, 5)
    rng = random.Random(3)
    u = random_subspace(tw, 3, rng)
    v = random_subspace(tw, 3, rng)
    for _ in range(20):
        alpha = rng.randrange(1, tw.top.order)
        lam_alpha = tw.scalar_mul(2, alpha)
        assert shifted_intersection_dim(u, v, alpha) == shifted_intersection_dim(u, v, lam_alpha)


def test_linearity_field_and_orbit_size():
    tw = build_tower(2, 1, 2, 5)
    F4 = subfield_subspace(tw)
    assert sl.linearity_field(F4) == tw.k
    assert sl.orbit_size(F4) == (2 ** 10 - 1) // (2 ** 2 - 1)
    u = first_generator(tw)
    assert sl.linearity_field(u) == 1
    assert sl.orbit_size(u) == 2 ** 10 - 1
    one = sl.span(tw, [37])
    assert sl.linearity_field(one) == 1


def test_orbit_size_matches_direct_enumeration():
    tw = build_tower(2, 1, 2, 5)
    for s in (subfield_subspace(tw), first_generator(tw)):
        assert sl.orbit_size(s) == len(sl.enumerate_orbit(s))


def test_projective_reps_counts():
    assert len(list(build_tower(2, 1, 2, 5).projective_reps("mid"))) == 3  # GF(4)
    assert len(list(build_tower(3, 1, 2, 4).projective_reps("mid"))) == 4  # GF(9)
    assert len(list(build_tower(2, 1, 2, 5).projective_reps("top"))) == 1023
    # representatives are pairwise inequivalent: scaling classes partition
    tw = build_tower(3, 1, 2, 4)
    reps = list(tw.projective_reps("mid"))
    classes = {frozenset(tw.mid.mul(c, r) for c in (1, 2)) for r in reps}
    assert len(classes) == len(reps) == (tw.mid.order - 1) // 2


def test_subspace_json_roundtrip_and_rref_enforcement():
    tw = build_tower(3, 1, 3, 5)
    u = random_subspace(tw, 3, random.Random(4))
    assert sl.subspace_from_json(tw, u.to_json()).rows == u.rows
    bad = u.to_json()
    bad["basis"][0], bad["basis"][1] = bad["basis"][1], bad["basis"][0]
    with pytest.raises(ValueError):
        sl.subspace_from_json(tw, bad)


def test_contains_and_elements():
    tw = build_tower(2, 1, 2, 5)
    u = first_generator(tw)
    els = span_by_enumeration(tw, u.rows)
    assert len(els) == 2 ** u.dim
    assert all(u.contains(e) for e in els)
    outside = next(x for x in range(1, 2 ** 10) if x not in els)
    assert not u.contains(outside)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 10 - 1), max_size=6))
def test_rank_never_exceeds_input_count(rows):
    tw = build_tower(2, 1, 2, 5)
    r = sl.rank_rows(tw, rows)
    assert 0 <= r <= len(rows)
    assert r == len(sl.rref_rows(tw, rows))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3 ** 10 - 1), min_size=1, max_size=4))
def test_rref_idempotent_general_q(rows):
    tw = build_tower(3, 1, 2, 5)
    first = sl.rref_rows(tw, rows)
    assert sl.rref_rows(tw, first) == first
