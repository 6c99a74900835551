import inspect
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    admissible_alphas,
    field_matrix_rank_division_free,
    find_splitting_N,
    intersection_dim_via_gcd,
    rank_verdict_by_full_scan,
    shift_intersection_dims,
    shifted_intersection_dim,
    span_by_enumeration,
    subspace_polynomial,
)
from strategies import TOWERS, criteria_families, split_families, split_space

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import (
    BadSupport,
    InvalidParams,
    WrongCharacteristic,
    ZeroShift,
)
from cyclic_cdc.field_tower import build_tower

DATA = Path(__file__).resolve().parent.parent / "data" / "polys_gf4_k3.json"


def criteria(polys, s, check=lp.check_union_distance_criteria):
    """``check`` on the report of the family's exact distance, as ``poly``
    runs them."""
    return check(lp.poly_code_distance(polys), s)


def unscanned(polys):
    """A report of the family with no scan, for the checks that the criteria
    make before they read one."""
    return lp.PolyCodeReport(tuple(polys), None)


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
        assert P.evaluate(tw.top.mul(c, x)) == tw.top.mul(c, P.evaluate(x))


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
    rep = lp.poly_code_distance([P])
    verdict = lp.check_union_distance_criteria(rep, 1)
    assert verdict.passed and verdict.rank_ok
    assert verdict.coeff_witnesses == []  # vacuous for e = 1
    assert rep.scan.distance == 4 and rep.scan.size == 2 ** 6 - 1
    # two shifted copies repeat the orbit: the union is that one orbit, and
    # its size counts it once
    top = tw.top
    copies = [P, lp.shift_transform(P, top.primitive), lp.shift_transform(P, top.inv(7))]
    rep = lp.poly_code_distance(copies)
    assert rep.scan.collisions == [(0, 1), (0, 2), (1, 2)] and rep.scan.orbit_sizes == [63] * 3
    assert rep.scan.distinct == [0] and rep.polys == tuple(copies)
    assert (rep.scan.distance, rep.scan.size) == (4, 2 ** 6 - 1)


def test_single_polynomial_rank_failure_witness():
    # a valid quadrinomial input whose rank condition fails: its orbit has a
    # proper shift meeting the kernel in a plane
    tw = build_tower(2, 1, 2, 3)
    P = lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 3})
    assert lp.kernel_subspace(P).dim == 3
    verdict = criteria([P], 1)
    assert not verdict.rank_ok
    i, j, alpha, rank = verdict.rank_witness
    assert (i, j) == (0, 0) and rank < 3
    assert lp.poly_code_distance([P]).scan.distance == 2  # criterion failure is real


def test_pair_rank_failure_at_small_field():
    tw = build_tower(2, 1, 2, 3)
    A = lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 2})
    B = lp.linpoly(tw, {3: 1, 2: 1, 1: 3, 0: 3})
    verdict = criteria([A, B], 1, lp.check_union_distance_criteria_gf2)
    assert not verdict.rank_ok
    assert verdict.rank_witness == (0, 1, 2, 2)
    rep = lp.poly_code_distance([A, B])
    assert rep.scan.distance == 2 and rep.scan.size == 2 * 63


@pytest.mark.parametrize("params, k, s, d, alone_ok", [
    ((2, 1, 2, 3), 3, 1, 3, True),  # GF(2^6) excludes GF(8) = GF(q^gcd(k, m))
    ((2, 1, 2, 4), 5, 2, 2, False),  # GF(2^8) excludes GF(4) = GF(q^gcd(k - s - 1, m))
])
def test_a_duplicate_shifted_inside_an_excluded_subfield_is_no_witness(params, k, s, d, alone_ok):
    # a kernel V meets its shift beta*V in all of V at the shift 1/beta,
    # which lies in GF(q^d) with beta: a duplicate shifted from inside GF(q^d)
    # leaves the rank verdict of V alone, and one shifted from outside fails
    # it (at a matrix of rank 1 when V alone passes)
    tw = build_tower(*params)
    top = tw.top
    rng = random.Random(12)
    while True:
        V = split_space(tw, k, s, rng)
        if criteria([subspace_polynomial(V)], s).rank_ok == alone_ok:
            break
    inside = [beta for beta in range(2, top.order) if top.pow(beta, tw.q ** d) == beta]
    outside = rng.sample(sorted(set(range(2, top.order)) - set(inside)), 5)
    for beta in inside + outside:
        polys = [subspace_polynomial(V), subspace_polynomial(sl.cyclic_shift(V, beta))]
        verdict = criteria(polys, s)
        assert (verdict.rank_ok, verdict.rank_witness) == rank_verdict_by_full_scan(polys, s)
        if beta in inside:
            assert verdict.rank_ok == alone_ok
        elif alone_ok:
            assert verdict.rank_witness[3] == 1
        else:
            assert not verdict.rank_ok


def test_criteria_refuse_a_family_that_does_not_split():
    # over GF(2^6) the kernel of x^8 + x^4 + x^2 + x is GF(4) only: the rank
    # condition is read off the report of the exact distance, whose kernels
    # must have dimension k, so that report refuses a short one
    tw = build_tower(2, 1, 2, 3)
    P = lp.linpoly(tw, {3: 1, 2: 1, 1: 1, 0: 1})
    assert lp.kernel_subspace(P).rows == sl.span(tw, range(1, 4)).rows
    for check in (lp.check_union_distance_criteria, lp.check_union_distance_criteria_gf2):
        with pytest.raises(BadSupport, match="kernel dimension 2 below the q-degree 3"):
            criteria([P], 1, check)


def test_criteria_read_the_family_off_its_report():
    # a criterion takes the report alone, which carries the family its scan
    # was made of: over GF(2^6), x^8 + x^4 + xi x^2 + xi x passes, and with
    # xi^2 x it fails at the witness (0, 0, 2, 2) of its own scan.  Handed
    # the scan of the first, it once answered (0, 0, 2, 3), a full-rank matrix.
    tw = build_tower(2, 1, 2, 3)
    xi = tw.xi
    for c0, want in ((xi, (True, None)), (tw.mid.mul(xi, xi), (False, (0, 0, 2, 2)))):
        rep = lp.poly_code_distance([lp.linpoly(tw, {3: 1, 2: 1, 1: xi, 0: c0})])
        assert want == rank_verdict_by_full_scan(list(rep.polys), 1)
        for check in (lp.check_union_distance_criteria, lp.check_union_distance_criteria_gf2):
            assert list(inspect.signature(check).parameters) == ["report", "s"]
            verdict = check(rep, 1)
            assert (verdict.rank_ok, verdict.rank_witness) == want


Q_VALUES = pytest.mark.parametrize("q", sorted(TOWERS))


@Q_VALUES
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_rank_verdict_matches_full_scan(q, data):
    # the verdict read off the kernels' point-ratio histograms against one
    # rank per ordered pair at every admissible alpha
    polys = data.draw(split_families(q))
    verdict = criteria(polys, 1)
    assert (verdict.rank_ok, verdict.rank_witness) == rank_verdict_by_full_scan(polys, 1)


def test_orbit_rank_verdict_matches_full_scan_on_random_gf2_6_families():
    # random split families over GF(2^6), a third of them with a shifted
    # duplicate: some pass the rank condition, and some fail it at a self
    # pair and some at a cross pair
    tw = build_tower(2, 1, 2, 3)
    rng = random.Random(9)
    outcomes = set()
    for trial in range(60):
        spaces = [split_space(tw, 3, 1, rng) for _ in range(rng.randint(1, 2))]
        if trial % 3 == 0:
            spaces.append(sl.cyclic_shift(rng.choice(spaces), rng.randrange(1, tw.top.order)))
        polys = [subspace_polynomial(V) for V in spaces]
        verdict = criteria(polys, 1)
        assert (verdict.rank_ok, verdict.rank_witness) == rank_verdict_by_full_scan(polys, 1)
        outcomes.add(verdict.rank_ok and "passed" or verdict.rank_witness[0] == verdict.rank_witness[1])
    assert outcomes == {"passed", True, False}


# (tower, family size, (k, s) pairs): the larger k need m >= 6, whose fields
# have 728 shifts per pair or more at q >= 3, so they run at q = 2 only
EXHAUSTIVE = {
    "q2": ((2, 1, 2, 4), 3, [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)]),
    "q3": ((3, 1, 1, 5), 2, [(3, 1), (4, 2)]),
    "q4": ((2, 2, 1, 5), 2, [(3, 1), (4, 2)]),
}


@pytest.mark.parametrize("params, n, shapes", EXHAUSTIVE.values(), ids=EXHAUSTIVE)
def test_rank_matrix_loses_rank_exactly_where_kernels_meet_in_more_than_s(params, n, shapes):
    # every alpha and every ordered pair of a split family (n - 1 random
    # kernels and a shift of the first): M_ij(alpha) has full column rank
    # k - s + 1 iff dim(V_i ∩ alpha*V_j) <= s; otherwise its rank is 1 where
    # V_i = alpha*V_j and k - s elsewhere
    tw = build_tower(*params)
    top = tw.top
    rng = random.Random(11)
    seen = set()
    for k, s in shapes:
        spaces = [split_space(tw, k, s, rng) for _ in range(n - 1)]
        spaces.append(sl.cyclic_shift(spaces[0], rng.randrange(2, top.order)))
        polys = [subspace_polynomial(V) for V in spaces]
        for (i, Vi), (j, Vj) in itertools.product(enumerate(spaces), repeat=2):
            dims = shift_intersection_dims(Vi, Vj)
            for alpha in range(1, top.order):
                dim = dims.get(tw.canon_projective(alpha), 0)
                case = "full" if dim <= s else "equal" if dim == k else "meet"
                want = {"full": k - s + 1, "equal": 1, "meet": k - s}[case]
                M = lp.build_rank_matrix(polys[i], polys[j], alpha, s).entries
                assert lp.field_matrix_rank(top, M) == want, (k, s, i, j, alpha, dim)
                seen.add(case)
    assert seen == {"full", "equal", "meet"}


@pytest.mark.parametrize("q, m, k, s", [
    (2, 6, 3, 1), (2, 8, 4, 1), (2, 12, 4, 1), (2, 12, 5, 1), (2, 12, 6, 2),
    (2, 14, 3, 1), (3, 4, 3, 1), (3, 6, 3, 1), (4, 4, 3, 1), (4, 6, 4, 1),
])
def test_alphas_checked_is_the_admissible_count(q, m, k, s):
    p, a = (q, 1) if q != 4 else (2, 2)
    tw = build_tower(p, a, 2, m // 2)
    assert lp._admissible_count(q, m, k, s) == len(admissible_alphas(tw, k, s))


@Q_VALUES
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rank_is_constant_on_frobenius_orbits(q, data):
    # phi: x -> x^(q^d), d the smallest divisor of m for which phi fixes
    # every coefficient of the family, maps M_ij(alpha) to M_ij(phi(alpha))
    # entry by entry
    polys = data.draw(criteria_families(q))
    tw = polys[0].tower
    top = tw.top
    coeffs = {c for P in polys for _, c in P.coeffs}
    d = next(d for d in range(1, tw.m + 1)
             if tw.m % d == 0 and all(top.pow(c, tw.q ** d) == c for c in coeffs))

    def phi(x):
        return top.pow(x, tw.q ** d)

    i = data.draw(st.integers(0, len(polys) - 1))
    j = data.draw(st.integers(0, len(polys) - 1))
    alpha = data.draw(st.integers(1, top.order - 1))
    M = lp.build_rank_matrix(polys[i], polys[j], alpha, 1).entries
    M_phi = lp.build_rank_matrix(polys[i], polys[j], phi(alpha), 1).entries
    assert M_phi == tuple(tuple(phi(x) for x in row) for row in M)
    assert lp.field_matrix_rank(top, M_phi) == lp.field_matrix_rank(top, M)


def test_duplicate_polynomials_fail_coefficient_condition():
    tw = build_tower(2, 1, 2, 3)
    P = lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 2})
    dup = lp.linpoly(tw, dict(P.coeffs))
    verdict = criteria([P, dup], 1)
    assert verdict.coeff_witnesses == [(0, 1)]
    assert not verdict.passed
    # the gf2 form rejects a shared constant coefficient the same way
    v2 = criteria([P, dup], 1, lp.check_union_distance_criteria_gf2)
    assert v2.coeff_witnesses == [(0, 1)]


def test_gf2_checker_requires_characteristic_two():
    tw = build_tower(3, 1, 2, 3)
    P = lp.linpoly(tw, {3: 1, 2: 1, 1: 1, 0: 1})
    with pytest.raises(WrongCharacteristic):  # before the scan is read
        lp.check_union_distance_criteria_gf2(unscanned([P]), 1)


def test_support_validation():
    tw = build_tower(2, 1, 2, 7)
    with pytest.raises(BadSupport):  # missing coefficient at exponent s
        lp.validate_support(lp.linpoly(tw, {3: 1, 2: 1, 0: 1}), 1)
    with pytest.raises(BadSupport):  # stray exponent outside the window
        lp.validate_support(lp.linpoly(tw, {3: 1, 2: 1, 1: 1, 0: 1, 4: 1}), 1)
    with pytest.raises(BadSupport):  # not monic
        lp.validate_support(lp.linpoly(tw, {3: tw.xi, 2: 1, 1: 1, 0: 1}), 1)
    with pytest.raises(BadSupport):  # s outside [1, k-2], before the scan is read
        lp.check_union_distance_criteria(unscanned([lp.linpoly(tw, {3: 1, 2: 1, 1: 1, 0: 1})]), 2)


# the criteria check the family before they read the scan, so none is given
@pytest.mark.parametrize("check", [
    lambda polys, s: lp.check_union_distance_criteria(unscanned(polys), s),
    lambda polys, s: lp.check_union_distance_criteria_gf2(unscanned(polys), s),
    lambda polys, s: lp.build_rank_matrix(*polys, 1, s),
], ids=["criteria", "criteria_gf2", "build_rank_matrix"])
def test_family_check_is_shared(check):
    tw = build_tower(2, 1, 2, 4)
    A = lp.linpoly(tw, {3: 1, 2: 1, 1: 2, 0: 2})
    B = lp.linpoly(tw, {4: 1, 2: 1, 1: 3, 0: 3})  # a valid support at s = 1, but k = 4
    no_s = lp.linpoly(tw, {3: 1, 2: 1, 0: 1})  # zero coefficient at exponent s = 1
    for polys, s in (([A, B], 1), ([B, A], 1), ([A, A], 0), ([A, A], 2), ([A, no_s], 1)):
        with pytest.raises(BadSupport):
            check(polys, s)


def test_empty_family_is_invalid():
    for check in (lp.check_union_distance_criteria, lp.check_union_distance_criteria_gf2):
        with pytest.raises(InvalidParams):
            check(unscanned([]), 1)
    with pytest.raises(InvalidParams):
        lp.poly_code_distance([])


def test_subfield_orbit_distance():
    # single subfield kernel: distance 2k, orbit (q^N-1)/(q^k-1)
    tw = build_tower(2, 1, 1, 4)
    P = lp.linpoly(tw, {2: 1, 0: 1})
    rep = lp.poly_code_distance([P])
    assert rep.scan.distance == 4
    assert rep.scan.size == (2 ** 4 - 1) // (2 ** 2 - 1)


def test_family_file_roundtrip(gf4_poly_family):
    tower, polys = gf4_poly_family
    obj = json.loads(DATA.read_text())
    tw2, loaded, k, s = lp.poly_family_from_json(obj, N=14)
    assert tw2 == tower and (k, s) == (3, 1)
    assert [P.coeffs for P in loaded] == [P.coeffs for P in polys]
    with pytest.raises(BadSupport):
        lp.poly_family_from_json(obj, N=13)  # not a multiple of the degree
