import itertools
import random

import pytest
from oracles import cross_pair_ok, shifted_intersection_dim

from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import BadShape, InvalidParams
from cyclic_cdc.field_tower import build_tower


def test_max_rep_index_values():
    assert sc.max_rep_index(2, "odd") == 2
    assert sc.max_rep_index(8, "even") == 2
    assert sc.max_rep_index(2, "even") == 1
    # the odd set always contains i = r, so the max is r itself
    assert all(sc.max_rep_index(r, "odd") == r for r in range(2, 10))
    assert sc.max_rep_index(3, "even") == 1
    assert sc.max_rep_index(5, "even") == 2
    assert sc.max_rep_index(7, "even") == 3
    assert sc.max_rep_index(9, "even") == 4


def test_tower_shape():
    assert sc.tower_shape(build_tower(2, 1, 2, 5)) == ("odd", 2)
    assert sc.tower_shape(build_tower(2, 1, 2, 4)) == ("even", 2)
    with pytest.raises(BadShape):
        sc.tower_shape(build_tower(2, 1, 2, 3))  # r = 1
    with pytest.raises(BadShape):
        sc.tower_shape(build_tower(2, 1, 1, 5))  # k = 1


def test_avoiding_set_small():
    tw = build_tower(2, 1, 2, 4)
    pool = sc.build_avoiding_set(tw)
    assert len(pool) == (4 - 2) // 2 == 1
    # defining property, replayed
    f0 = tw.def_poly_top[0]
    for i in pool:
        for j in pool:
            assert tw.mid.mul(f0, tw.mid.pow(tw.xi, i + j)) != 1


def test_avoiding_set_q5_k3():
    tw = build_tower(5, 1, 3, 4)
    pool = sc.build_avoiding_set(tw)
    assert len(pool) == (5 ** 3 - 2) // 2 == 61
    f0 = tw.def_poly_top[0]
    mid = tw.mid
    for i in pool:
        for j in pool:
            assert mid.mul(f0, mid.pow(tw.xi, i + j)) != 1


def test_avoiding_set_rejected_on_odd_tower():
    with pytest.raises(BadShape):
        sc.build_avoiding_set(build_tower(2, 1, 2, 5))


def family_count(tower):
    return sum(1 for _ in sc.enumerate_family(tower))


def test_enumeration_counts():
    assert family_count(build_tower(2, 1, 2, 5)) == 33
    assert family_count(build_tower(2, 1, 2, 4)) == 4
    # 3*(q^k-1)^2*(q-1) + 2*(q^k-1) at q=3, k=3, r=2
    assert family_count(build_tower(3, 1, 3, 5)) == 3 * 26 * 26 * 2 + 2 * 26


def test_enumerated_tuples_are_admissible_and_unique():
    tw = build_tower(2, 1, 2, 5)
    seen = set()
    for p in sc.enumerate_family(tw):
        sc.validate_params(p, tw)
        assert p not in seen
        seen.add(p)


def test_all_subspaces_dimension_k_and_distinct():
    for params in ((2, 1, 2, 5), (2, 1, 2, 4)):
        tw = build_tower(*params)
        subs = [sc.make_subspace(p, tw) for p in sc.enumerate_family(tw)]
        assert all(s.dim == tw.k for s in subs)
        assert len({s.rows for s in subs}) == len(subs)


def test_u_family_structure_matches_direct_formula():
    # at rep=2, l=1 the image is u + (theta*u^q + u)(d1*g + d2*g^2)
    tw = build_tower(3, 1, 3, 5)
    p = sc.ConstructionParams("u-odd", 2, 2, 1, (5, 7), 1)
    s = sc.make_subspace(p, tw)
    mid, top, q = tw.mid, tw.top, tw.q
    d1, d2 = mid.pow(tw.xi, 5), mid.pow(tw.xi, 7)
    theta = tw.xi
    for u in range(mid.order):
        w = mid.add(mid.mul(theta, mid.pow(u, q)), u)
        img = top.from_digits([u, mid.mul(w, d1), mid.mul(w, d2), 0, 0])
        assert s.contains(img)


def test_v_family_structure_matches_direct_formula():
    tw = build_tower(3, 1, 3, 5)
    p = sc.ConstructionParams("v-odd", 2, 1, 1, (0, 9), None)
    s = sc.make_subspace(p, tw)
    mid, top, q = tw.mid, tw.top, tw.q
    d2 = mid.pow(tw.xi, 9)
    for v in range(mid.order):
        img = top.from_digits([v, mid.pow(v, q), mid.mul(v, d2), 0, 0])
        assert s.contains(img)


def test_validate_params_errors():
    tw = build_tower(2, 1, 2, 5)
    with pytest.raises(InvalidParams):  # parity mismatch
        sc.validate_params(sc.ConstructionParams("u-even", 2, 1, 1, (0, 0), 0), tw)
    with pytest.raises(InvalidParams):  # l out of range for rep=2
        sc.validate_params(sc.ConstructionParams("u-odd", 2, 2, 2, (0, 0), 0), tw)
    with pytest.raises(InvalidParams):  # v-family with theta
        sc.validate_params(sc.ConstructionParams("v-odd", 2, 1, 1, (0, 0), 0), tw)
    with pytest.raises(InvalidParams):  # delta exponent out of range
        sc.validate_params(sc.ConstructionParams("u-odd", 2, 1, 1, (0, 3), 0), tw)
    twE = build_tower(2, 1, 2, 4)
    pool = sc.build_avoiding_set(twE)
    bad = next(e for e in range(3) if e not in pool)
    with pytest.raises(InvalidParams):  # last delta outside the avoiding set
        sc.validate_params(sc.ConstructionParams("u-even", 2, 1, 1, (0, bad), 0), twE)


def test_is_sidon_basics():
    tw = build_tower(2, 1, 2, 5)
    assert sc.is_sidon(sl.span(tw, [37]))
    # a subfield of dimension >= 2 is never Sidon
    assert not sc.is_sidon(sl.span(tw, range(1, 4)))


def test_all_construction_outputs_are_sidon():
    for params in ((2, 1, 2, 5), (2, 1, 2, 4)):
        tw = build_tower(*params)
        for p in sc.enumerate_family(tw):
            assert sc.is_sidon(sc.make_subspace(p, tw))


def test_sidon_iff_orbit_and_shift_profile():
    # both directions of the orbit-size/intersection characterization,
    # exhaustively over the even tower's generators plus the subfield
    tw = build_tower(2, 1, 2, 4)
    full = 2 ** 8 - 1
    cases = [sc.make_subspace(p, tw) for p in sc.enumerate_family(tw)]
    cases.append(sl.span(tw, range(1, 4)))
    for u in cases:
        proper = [
            shifted_intersection_dim(u, u, a)
            for a in tw.projective_reps("top")
            if shifted_intersection_dim(u, u, a) < u.dim
        ]
        characterized = sl.orbit_size(u) == full and max(proper) == 1
        assert sc.is_sidon(u) == characterized


def test_cross_pair_all_pairs_desk_scale(odd_code_2_2_10):
    gens = odd_code_2_2_10.generators
    for a, b in itertools.combinations(gens, 2):
        assert cross_pair_ok(a, b)


def test_cross_pair_counterexample_and_errors():
    tw = build_tower(2, 1, 2, 5)
    F4 = sl.span(tw, range(1, 4))
    shifted = sl.cyclic_shift(F4, tw.gamma)
    assert not cross_pair_ok(F4, shifted)
    with pytest.raises(ValueError):
        cross_pair_ok(F4, F4)


def test_cross_pair_agrees_with_alpha_scan_oracle():
    # sampled pairs; the full-pair equivalence runs in the acceptance suite
    tw = build_tower(2, 1, 2, 5)
    gens = [sc.make_subspace(p, tw) for p in sc.enumerate_family(tw)]
    rng = random.Random(9)
    pairs = [rng.sample(range(len(gens)), 2) for _ in range(15)]
    alphas = list(tw.projective_reps("top"))
    for i, j in pairs:
        scan_ok = all(
            shifted_intersection_dim(gens[i], gens[j], a) <= 1 for a in alphas
        )
        assert cross_pair_ok(gens[i], gens[j]) == scan_ok


def test_orbits_disjoint_across_distinct_tuples(odd_code_2_2_10):
    # cross-ok pairs can never collide as orbits: no shift of one generator
    # equals another
    gens = odd_code_2_2_10.generators
    tw = odd_code_2_2_10.tower
    rng = random.Random(10)
    for _ in range(10):
        i, j = rng.sample(range(len(gens)), 2)
        assert all(
            shifted_intersection_dim(gens[i], gens[j], a) < gens[i].dim
            for a in tw.projective_reps("top")
        )



@pytest.mark.parametrize("order", [4, 8, 16, 32, 64, 9, 27, 81, 25, 49])
def test_avoiding_greedy_reaches_target_for_every_forbidden_residue(order):
    o1, target = order - 1, (order - 2) // 2
    for forbidden in range(o1):
        chosen = sc.avoiding_exponents(o1, forbidden, target)
        assert len(chosen) == target, forbidden
        assert chosen == sorted(set(chosen))
        assert all((i + j) % o1 != forbidden for i in chosen for j in chosen)


@pytest.mark.parametrize("spec", [(2, 1, 2, 4), (2, 1, 3, 4), (2, 1, 4, 4), (2, 1, 5, 4),
                                  (3, 1, 2, 4), (3, 1, 3, 4), (5, 1, 2, 4)])
def test_avoiding_set_size_on_even_towers(spec):
    # build_avoiding_set raises GreedyFellShort if its own check fails
    tw = build_tower(*spec)
    pool = sc.build_avoiding_set(tw)
    assert len(pool) == (tw.mid.order - 2) // 2
    f0 = tw.def_poly_top[0]
    assert all(tw.mid.mul(f0, tw.mid.pow(tw.xi, i + j)) != 1 for i in pool for j in pool)
