import json
import random
from pathlib import Path

import pytest
from oracles import (
    field_matrix_rank_division_free,
    find_splitting_N,
    intersection_dim_via_gcd,
    shifted_intersection_dim,
    span_by_enumeration,
    subspace_polynomial,
)

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import (
    BadSupport,
    Infeasible,
    WrongCharacteristic,
    ZeroShift,
)
from cyclic_cdc.field_tower import build_tower

DATA = Path(__file__).resolve().parent.parent / "data" / "polys_gf4_k3.json"


def test_eval_zero_and_linearity():
    tw = build_tower(3, 1, 2, 3)
    P = lp.linpoly(tw, {2: 5, 1: 3, 0: 7})
    assert P.evaluate(0) == 0
    rng = random.Random(0)
    top = tw.top
    for _ in range(100):
        x, y = rng.randrange(top.order), rng.randrange(top.order)
        assert P.evaluate(top.add(x, y)) == top.add(P.evaluate(x), P.evaluate(y))
        c = rng.randrange(tw.q)
        assert P.evaluate(tw.scalar_mul(c, x)) == tw.scalar_mul(c, P.evaluate(x))


def test_kernel_of_subfield_polynomial():
    tw = build_tower(2, 1, 2, 4)  # k = 2 divides N = 8
    P = lp.linpoly(tw, {2: 1, 0: 1})  # x^(q^2) - x in characteristic 2
    ker = lp.kernel_subspace(P)
    assert ker.rows == sl.span(tw, range(1, 4)).rows
    assert ker.dim == 2


def test_kernel_of_prime_subfield():
    tw = build_tower(3, 1, 2, 3)
    P = lp.linpoly(tw, {1: 1, 0: tw.top.neg(1)})  # x^q - x
    ker = lp.kernel_subspace(P)
    assert ker.dim == 1
    assert span_by_enumeration(tw, ker.rows) == {0, 1, 2}


def test_kernels_of_bundled_family(gf4_poly_family):
    _, polys = gf4_poly_family
    assert [lp.kernel_subspace(P).dim for P in polys] == [3, 3, 3]


def test_find_splitting_N():
    # subfield polynomial: the first multiple is the subfield degree itself
    assert find_splitting_N(2, 1, 1, {2: 1, 0: 1}, 8) == 2
    assert find_splitting_N(2, 1, 1, {3: 1, 0: 1}, 8) == 3
    # the bundled quadrinomial needs the seventh multiple of 2
    tw = build_tower(2, 1, 2, 7)
    coeffs = {3: 1, 2: tw.xi, 1: 1, 0: 1}
    assert find_splitting_N(2, 1, 2, coeffs, 8) == 14
    assert find_splitting_N(2, 1, 2, coeffs, 6) is None


def test_shift_transform_identity_cases():
    tw = build_tower(3, 1, 2, 3)
    P = lp.linpoly(tw, {2: 1, 1: 4, 0: 7})
    assert lp.shift_transform(P, 1).coeffs == P.coeffs
    # GF(q)* scalars act trivially: q^k - q^j is divisible by q - 1
    assert lp.shift_transform(P, 2).coeffs == P.coeffs
    with pytest.raises(ZeroShift):
        lp.shift_transform(P, 0)


def test_shift_transform_matches_cyclic_shift_exhaustively(gf4_poly_family):
    # every shifted kernel is annihilated by the transformed polynomial;
    # with matching q-degree that forces kernel equality
    tw, polys = gf4_poly_family
    P = polys[0]
    V = lp.kernel_subspace(P)
    members = span_by_enumeration(tw, V.rows)
    for alpha in range(1, tw.top.order):
        Q = lp.shift_transform(P, alpha)
        mul = tw.top.mul
        assert all(Q.evaluate(mul(alpha, v)) == 0 for v in members)


def test_subspace_polynomial_roundtrip_char2(gf4_poly_family):
    tw, polys = gf4_poly_family
    for P in polys:
        assert subspace_polynomial(lp.kernel_subspace(P)).coeffs == P.coeffs
    rng = random.Random(1)
    small = build_tower(2, 1, 2, 3)
    for dim in (1, 2, 3):
        while True:
            V = sl.span(small, [rng.randrange(1, small.top.order) for _ in range(dim)])
            if V.dim == dim:
                break
        Q = subspace_polynomial(V)
        assert Q.q_degree == dim and Q.is_monic()
        assert lp.kernel_subspace(Q).rows == V.rows


def test_subspace_polynomial_roundtrip_odd_q():
    tw = build_tower(3, 1, 1, 4)  # GF(81) over GF(3)
    rng = random.Random(2)
    for dim in (1, 2):
        while True:
            V = sl.span(tw, [rng.randrange(1, tw.top.order) for _ in range(dim)])
            if V.dim == dim:
                break
        Q = subspace_polynomial(V)
        assert lp.kernel_subspace(Q).rows == V.rows


def test_gcd_intersection_self():
    tw = build_tower(2, 1, 2, 7)
    P = lp.linpoly(tw, {3: 1, 2: tw.xi, 1: 1, 0: 1})
    assert intersection_dim_via_gcd(P, P) == 3


def test_gcd_agrees_with_linear_algebra(gf4_poly_family):
    tw, polys = gf4_poly_family
    kernels = [lp.kernel_subspace(P) for P in polys]
    rng = random.Random(3)
    for _ in range(25):
        i, j = rng.randrange(3), rng.randrange(3)
        alpha = rng.randrange(1, tw.top.order)
        via_gcd = intersection_dim_via_gcd(polys[i], lp.shift_transform(polys[j], alpha))
        via_rank = shifted_intersection_dim(kernels[i], kernels[j], alpha)
        assert via_gcd == via_rank


def test_rank_matrix_matches_handwritten_entries(gf4_poly_family):
    tw, polys = gf4_poly_family
    top = tw.top
    xi = tw.xi
    rng = random.Random(4)
    one = 1
    for _ in range(10):
        alpha = rng.randrange(2, tw.top.order)
        a4 = top.pow(alpha, 4)
        a6 = top.pow(alpha, 6)
        a7 = top.pow(alpha, 7)
        sq = lambda x: top.mul(x, x)
        # same-polynomial matrix for the first family member
        r2 = top.mul(xi, top.sub_(one, a4))
        r1 = top.sub_(one, a6)
        r0 = top.sub_(one, a7)
        want = (
            (sq(r2), 0, 1),
            (sq(r1), r2, xi),
            (sq(r0), r1, 1),
            (0, r0, 1),
        )
        got = lp.build_rank_matrix(polys[0], polys[0], alpha, 1)
        assert got.entries == want
        # cross matrix of the first against the second
        r2b = top.sub_(xi, top.mul(xi, a4))
        r1b = top.sub_(one, top.mul(xi, a6))
        r0b = top.sub_(one, top.mul(xi, a7))
        wantb = (
            (sq(r2b), 0, 1),
            (sq(r1b), r2b, xi),
            (sq(r0b), r1b, 1),
            (0, r0b, 1),
        )
        gotb = lp.build_rank_matrix(polys[0], polys[1], alpha, 1)
        assert gotb.entries == wantb


def test_rank_matrix_alpha_one_degenerates(gf4_poly_family):
    tw, polys = gf4_poly_family
    M = lp.build_rank_matrix(polys[0], polys[0], 1, 1)
    assert all(row[0] == 0 and row[1] == 0 for row in M.entries)
    assert lp.field_matrix_rank(tw.top, M.entries) == 1


def test_rank_agrees_with_division_free_oracle():
    for params, size in (((2, 1, 2, 7), (4, 3)), ((3, 1, 3, 1), (3, 3))):
        tw = build_tower(*params)
        top = tw.top
        rng = random.Random(5)
        for _ in range(100):
            rows = [
                [rng.randrange(top.order) for _ in range(size[1])]
                for _ in range(size[0])
            ]
            assert lp.field_matrix_rank(top, rows) == field_matrix_rank_division_free(top, rows)


def test_single_polynomial_passes_at_small_field():
    # one quadrinomial whose kernel orbit is optimal already at the third
    # multiple of the coefficient degree
    tw = build_tower(2, 1, 2, 3)  # GF(2^6)
    P = lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 2})
    assert lp.kernel_subspace(P).dim == 3
    verdict = lp.check_union_distance_criteria([P], s=1)
    assert verdict.passed and verdict.rank_ok
    assert verdict.coeff_witnesses == []  # vacuous for e = 1
    rep = lp.poly_code_distance([P])
    assert rep.distance == 4 and rep.size == 2 ** 6 - 1


def test_single_polynomial_rank_failure_witness():
    # a valid quadrinomial input whose rank condition fails: its orbit has a
    # proper shift meeting the kernel in a plane
    tw = build_tower(2, 1, 2, 3)
    P = lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 3})
    assert lp.kernel_subspace(P).dim == 3
    verdict = lp.check_union_distance_criteria([P], s=1)
    assert not verdict.rank_ok
    i, j, alpha, rank = verdict.rank_witness
    assert (i, j) == (0, 0) and rank < 3
    assert lp.poly_code_distance([P]).distance == 2  # criterion failure is real


def test_pair_rank_failure_at_small_field():
    tw = build_tower(2, 1, 2, 3)
    A = lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 2})
    B = lp.linpoly(tw, {3: 1, 2: 1, 1: 3, 0: 3})
    verdict = lp.check_union_distance_criteria_gf2([A, B], s=1)
    assert not verdict.rank_ok
    rep = lp.poly_code_distance([A, B])
    assert rep.distance == 2 and rep.size == 2 * 63


def test_rank_condition_ranks_once_for_both_criteria(monkeypatch):
    tw = build_tower(2, 1, 2, 3)
    polys = [lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 2}), lp.linpoly(tw, {3: 1, 2: 1, 1: 3, 0: 3})]
    calls = []
    rank = lp.field_matrix_rank
    monkeypatch.setattr(lp, "field_matrix_rank", lambda top, rows: calls.append(1) or rank(top, rows))
    lp._rank_verdict.cache_clear()
    general = lp.check_union_distance_criteria(polys, s=1)
    ranked = len(calls)
    gf2 = lp.check_union_distance_criteria_gf2(polys, s=1)
    assert ranked > 0 and len(calls) == ranked
    assert (gf2.rank_ok, gf2.rank_witness) == (general.rank_ok, general.rank_witness)
    # the budget still applies to a family whose verdict is known
    with pytest.raises(Infeasible):
        lp.check_union_distance_criteria_gf2(polys, s=1, budget=general.alphas_checked)


def test_duplicate_polynomials_fail_coefficient_condition():
    tw = build_tower(2, 1, 2, 3)
    P = lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 2})
    dup = lp.linpoly(tw, dict(P.coeffs))
    verdict = lp.check_union_distance_criteria([P, dup], s=1)
    assert verdict.coeff_witnesses == [(0, 1)]
    assert not verdict.passed
    # the gf2 form rejects a shared constant coefficient the same way
    v2 = lp.check_union_distance_criteria_gf2([P, dup], s=1)
    assert v2.coeff_witnesses == [(0, 1)]


def test_gf2_checker_requires_characteristic_two():
    tw = build_tower(3, 1, 2, 3)
    P = lp.linpoly(tw, {3: 1, 2: 1, 1: 1, 0: 1})
    with pytest.raises(WrongCharacteristic):
        lp.check_union_distance_criteria_gf2([P], s=1)


def test_support_validation():
    tw = build_tower(2, 1, 2, 7)
    with pytest.raises(BadSupport):  # missing coefficient at exponent s
        lp.validate_support(lp.linpoly(tw, {3: 1, 2: 1, 0: 1}), 1)
    with pytest.raises(BadSupport):  # stray exponent outside the window
        lp.validate_support(lp.linpoly(tw, {3: 1, 2: 1, 1: 1, 0: 1, 4: 1}), 1)
    with pytest.raises(BadSupport):  # not monic
        lp.validate_support(lp.linpoly(tw, {3: tw.xi, 2: 1, 1: 1, 0: 1}), 1)
    with pytest.raises(BadSupport):  # s outside [1, k-2]
        lp.check_union_distance_criteria([lp.linpoly(tw, {3: 1, 2: 1, 1: 1, 0: 1})], s=2)


def test_subfield_orbit_distance():
    # single subfield kernel: distance 2k, orbit (q^N-1)/(q^k-1)
    tw = build_tower(2, 1, 1, 4)
    P = lp.linpoly(tw, {2: 1, 0: 1})
    rep = lp.poly_code_distance([P])
    assert rep.distance == 4
    assert rep.size == (2 ** 4 - 1) // (2 ** 2 - 1)


def test_family_file_roundtrip(gf4_poly_family):
    tower, polys = gf4_poly_family
    obj = json.loads(DATA.read_text())
    tw2, loaded, k, s = lp.poly_family_from_json(obj, N=14)
    assert tw2 == tower and (k, s) == (3, 1)
    assert [P.coeffs for P in loaded] == [P.coeffs for P in polys]
    with pytest.raises(BadSupport):
        lp.poly_family_from_json(obj, N=13)  # not a multiple of the degree
