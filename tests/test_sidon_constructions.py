import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    avoiding_greedy,
    cross_pair_ok,
    shifted_intersection_dim,
    sidon_by_products,
    subfield_generator,
)
from strategies import FROBENIUS_TOWERS, frobenius_space, sidon_subjects

from cyclic_cdc import orbit_codes as oc
from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import BadShape, BrokenInvariant, Infeasible, InvalidParams
from cyclic_cdc.field_tower import build_tower, prime_power


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


def test_tower_degree():
    assert sc.tower_degree(2, "odd") == 5 and sc.tower_degree(2, "even") == 4
    assert sc.tower_degree(7, "odd") == 15 and sc.tower_degree(7, "even") == 14
    for r in (-1, 0, 1):
        with pytest.raises(InvalidParams, match="r must be >= 2"):
            sc.tower_degree(r, "odd")
    with pytest.raises(InvalidParams, match="unknown parity 'both'"):
        sc.tower_degree(2, "both")


def test_tower_shape():
    assert sc.tower_shape(build_tower(2, 1, 2, 5)) == ("odd", 2)
    assert sc.tower_shape(build_tower(2, 1, 2, 4)) == ("even", 2)
    # the inverse of tower_degree
    for r, parity in itertools.product(range(2, 6), ("odd", "even")):
        assert sc.tower_shape(build_tower(2, 1, 2, sc.tower_degree(r, parity))) == (parity, r)
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


def test_avoiding_set_needs_log_tables():
    # construct refuses the (17,4,2) even family by its count first, so this
    # guard is reached only by a direct call
    with pytest.raises(Infeasible, match="q\\^k = 83521 exceeds LOG_TABLE_LIMIT = 65536"):
        sc.build_avoiding_set(build_tower(17, 1, 4, 4))


def test_avoiding_set_check_catches_a_partner(monkeypatch):
    # an added exponent whose sum with the first one is the forbidden residue
    rule = sc.avoiding_exponents

    def with_partner(o1, forbidden, target):
        chosen = rule(o1, forbidden, target)
        return chosen + [(forbidden - chosen[0]) % o1]

    monkeypatch.setattr(sc, "avoiding_exponents", with_partner)
    with pytest.raises(BrokenInvariant, match="avoiding set verification failed"):
        sc.build_avoiding_set(build_tower(2, 1, 3, 4))


def family_count(tower):
    return sum(1 for _ in sc.enumerate_family(tower))


def test_enumeration_counts():
    assert family_count(build_tower(2, 1, 2, 5)) == 33
    assert family_count(build_tower(2, 1, 2, 4)) == 4
    # 3*(q^k-1)^2*(q-1) + 2*(q^k-1) at q=3, k=3, r=2
    assert family_count(build_tower(3, 1, 3, 5)) == 3 * 26 * 26 * 2 + 2 * 26


@pytest.mark.parametrize("q, k, r, parity, count", [
    (2, 2, 2, "odd", 33), (3, 2, 2, "even", 51), (2, 3, 3, "odd", 1519),
    (2, 2, 5, "even", 513), (4, 2, 2, "odd", 2055),
    (3, 2, 2, "odd", 400), (2, 2, 3, "odd", 135), (2, 2, 4, "odd", 594),
    (2, 2, 2, "even", 4), (2, 2, 3, "even", 24), (2, 2, 4, "even", 108), (4, 2, 2, "even", 322),
])
def test_family_size_counts_the_enumeration(q, k, r, parity, count):
    # even (2,2,5) is the first row where the even inner sum is nonzero
    tower = build_tower(*prime_power(q), k, sc.tower_degree(r, parity))
    assert oc.generator_count(q, k, r, parity) == family_count(tower) == count
    # each closed-form part counts its rows of the enumeration: u-families
    # with rep = 1, with rep >= 2, and v-families
    tuples = list(sc.enumerate_family(tower))
    parts = (sum(p.family[0] == "u" and p.rep == 1 for p in tuples),
             sum(p.family[0] == "u" and p.rep >= 2 for p in tuples),
             sum(p.family[0] == "v" for p in tuples))
    assert oc._family_parts(q, k, r, parity) == parts
    # the best known size is one full orbit per tuple of a sub-family: the
    # u-families with rep = 1, and the v-families on odd towers
    sub = parts[0] + parts[2] if parity == "odd" else parts[0]
    assert oc.best_known_size(q, k, r, parity) == sub * (q ** tower.m - 1) // (q - 1)


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
        assert sl.rank_rows(tw, s.rows + (img,)) == s.dim


def test_v_family_structure_matches_direct_formula():
    tw = build_tower(3, 1, 3, 5)
    p = sc.ConstructionParams("v-odd", 2, 1, 1, (0, 9), None)
    s = sc.make_subspace(p, tw)
    mid, top, q = tw.mid, tw.top, tw.q
    d2 = mid.pow(tw.xi, 9)
    for v in range(mid.order):
        img = top.from_digits([v, mid.pow(v, q), mid.mul(v, d2), 0, 0])
        assert sl.rank_rows(tw, s.rows + (img,)) == s.dim


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


@pytest.mark.parametrize("q, k, t", [(2, 2, 5), (2, 2, 4), (3, 2, 5), (3, 2, 4)])
def test_validate_params_accepts_exactly_the_enumerated_tuples(q, k, t):
    # a box around the parameter space: every family name, r - 1..r + 1,
    # rep 0..p0 + 1, l 0..r + 1, theta None or -1..q - 1 and r delta
    # entries in -1..q^k - 1 (a v-family's Frobenius slot among them)
    tw = build_tower(q, 1, k, t)
    parity, r = sc.tower_shape(tw)
    p0 = sc.max_rep_index(r, parity)
    accepted = set()
    for family, rr, rep, l, theta in itertools.product(
            ("u-odd", "v-odd", "u-even", "v-even"), range(r - 1, r + 2),
            range(p0 + 2), range(r + 2), (None, *range(-1, q))):
        for deltas in itertools.product(range(-1, q ** k), repeat=r):
            params = sc.ConstructionParams(family, rr, rep, l, deltas, theta)
            try:
                sc.validate_params(params, tw)
            except InvalidParams:
                continue
            accepted.add(params)
    family = set(sc.enumerate_family(tw))
    assert accepted == family
    # a delta tuple of the wrong length is rejected too
    for p in family:
        for deltas in (p.delta_exps[:-1], p.delta_exps + (0,)):
            with pytest.raises(InvalidParams):
                sc.validate_params(sc.ConstructionParams(
                    p.family, p.r, p.rep, p.l, deltas, p.theta_exp), tw)


def test_is_sidon_basics():
    tw = build_tower(2, 1, 2, 5)
    assert sc.is_sidon(sl.span(tw, [37]))
    # a subfield of dimension >= 2 is never Sidon
    assert not sc.is_sidon(sl.span(tw, range(1, 4)))


@pytest.mark.parametrize("q", [2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_sidon_matches_product_scan(q, data):
    u = data.draw(sidon_subjects(q))
    assert sc.is_sidon(u) == sidon_by_products(u)


def test_is_sidon_takes_both_routes():
    # seeded random 3-dimensional subspaces of GF(2^6) and GF(3^6), where
    # k(k+1)/2 = m, and frobenius spaces of GF(3^8) and GF(4^8), which are
    # never max-span
    rng = random.Random(20)
    subjects = []
    for spec in ((2, 1, 2, 3), (3, 1, 2, 3)):
        tw = build_tower(*spec)
        subjects += [sl.span(tw, [rng.randrange(1, tw.top.order) for _ in range(3)])
                     for _ in range(20)]
    for q in (3, 4):
        tw = build_tower(*FROBENIUS_TOWERS[q])
        subjects += [frobenius_space(tw, rng.randrange(1, tw.top.order)) for _ in range(10)]
    counts = Counter()
    scanned_sidon = 0
    for u in subjects:
        scanned = counts["scanned"]
        verdict = sc.is_sidon(u, counts=counts)
        assert verdict == sidon_by_products(u)
        scanned_sidon += verdict and counts["scanned"] > scanned
    assert counts["certified"] + counts["scanned"] == len(subjects)
    assert counts["certified"] > 0 and scanned_sidon > 0


@pytest.mark.parametrize("spec", [(2, 1, 2, 4), (3, 1, 2, 3)])
def test_is_sidon_rejects_a_subspace_that_is_not_max_span(spec):
    # four seeded random elements of GF(2^8) or GF(3^6): 10 basis products
    # exceed m, so the point-ratio filter decides, and a repeated ratio rejects
    tw = build_tower(*spec)
    rng = random.Random(12)
    u = sl.span(tw, [rng.randrange(1, tw.top.order) for _ in range(4)])
    points = (tw.q ** 4 - 1) // (tw.q - 1)
    assert u.dim == 4 and not sidon_by_products(u)
    counts = Counter()
    assert not sc.is_sidon(u, counts=counts)
    assert counts == {"scanned": 1, "point_ratios": points * (points - 1)}


@pytest.mark.parametrize("spec", [(2, 1, 2, 4), (3, 1, 2, 3)])
def test_is_sidon_rejects_a_shifted_subfield_from_its_ratios_alone(spec, monkeypatch):
    # gamma*GF(q^2) repeats every internal ratio and is not max-span, so the
    # point-ratio scan rejects it; the shared self pair is answer enough, and
    # no shift_dims histogram is formed
    tw = build_tower(*spec)
    w = subfield_generator(tw, 2)
    gamma = random.Random(3).randrange(2, tw.top.order)
    u = sl.span(tw, [gamma, tw.top.mul(gamma, w)])

    def no_histogram(*args):
        raise AssertionError("shift_dims in the Sidon scan")

    monkeypatch.setattr(sl, "shift_dims", no_histogram)
    counts = Counter()
    assert not sc.is_sidon(u, counts=counts)
    assert counts == {"scanned": 1, "products": 3, "point_ratios": (tw.q + 1) * tw.q}


def test_is_sidon_counts_basis_products_only_when_certified(odd_code_2_2_10):
    counts = Counter()
    assert all(sc.is_sidon(g, counts=counts) for g in odd_code_2_2_10.generators)
    assert counts == {"certified": 33, "products": 33 * 3}


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
    shifted = sl.cyclic_shift(F4, tw.mid.order)  # by gamma
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
        assert chosen == avoiding_greedy(o1, forbidden, target), forbidden
        assert len(chosen) == target, forbidden
        assert chosen == sorted(set(chosen))
        assert all((i + j) % o1 != forbidden for i in chosen for j in chosen)


@pytest.mark.parametrize("spec", [(2, 1, 2, 4), (2, 1, 3, 4), (2, 1, 4, 4), (2, 1, 5, 4),
                                  (3, 1, 2, 4), (3, 1, 3, 4), (5, 1, 2, 4)])
def test_avoiding_set_size_on_even_towers(spec):
    # build_avoiding_set raises BrokenInvariant if its own check fails
    tw = build_tower(*spec)
    pool = sc.build_avoiding_set(tw)
    assert len(pool) == (tw.mid.order - 2) // 2
    f0 = tw.def_poly_top[0]
    assert all(tw.mid.mul(f0, tw.mid.pow(tw.xi, i + j)) != 1 for i in pool for j in pool)
