import itertools
import json
from fractions import Fraction

import pytest
from oracles import (
    common_bound_4k,
    gaussian_binomial,
    size_difference,
    size_difference_5k,
    sphere_packing_bound,
)

from cyclic_cdc import orbit_codes as oc
from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import BrokenInvariant, DimensionMismatch, Infeasible, InvalidParams
from cyclic_cdc.field_tower import build_tower


# -- closed-form sizes ---------------------------------------------------------

def test_odd_size_matches_display_q3_k3():
    got = oc.construction_size(3, 3, 2, "odd")
    want = 3 * (3 ** 3 - 1) ** 2 * (3 ** 15 - 1) + 2 * (3 ** 3 - 1) * (3 ** 15 - 1) // 2
    assert got == want


def test_even_size_matches_display_q5_k3():
    got = oc.construction_size(5, 3, 8, "even")
    want = (32 * (5 ** 3 - 1) + 7) * (5 ** 3 - 1) ** 6 * ((5 ** 3 - 2) // 2) * (5 ** 48 - 1) // 4
    assert got == want


def test_desk_scale_sizes():
    assert oc.construction_size(2, 2, 2, "odd") == 33759
    assert oc.construction_size(2, 2, 2, "even") == 4 * 255


GRID_Q = (2, 3, 4, 5, 7)
GRID_K = range(2, 6)


def test_difference_identities():
    # the paper's closed forms of the gap equal the table's ours - known
    for q, k, r, parity in itertools.product(GRID_Q, GRID_K, range(2, 7), ("odd", "even")):
        row = oc.compare_sizes(q, k, r, parity)
        assert row["ours"] - row["best_known"] == row["difference"]
        assert row["difference"] == size_difference(q, k, r, parity) > 0


def test_difference_identity_5k():
    for q, k in itertools.product(GRID_Q, GRID_K):
        row = oc.compare_sizes(q, k, 2, "odd")
        assert row["ours"] - row["known_5k"] == row["difference_5k"]
        assert row["difference_5k"] == size_difference_5k(q, k)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_best_known_size_refuses_r_below_2(r, parity):
    # the even closed form gave -0.0 at r = 0 and 252 at r = 1 for (2, 2)
    with pytest.raises(InvalidParams, match="r must be >= 2"):
        oc.best_known_size(2, 2, r, parity)


def test_construct_code_claims_the_closed_form():
    code = oc.construct_code(4, 2, 2, "odd")
    assert len(code.generators) == 2055
    assert code.claimed_size == oc.construction_size(4, 2, 2, "odd")
    assert code.provenance == "odd(q=4,k=2,r=2)"


@pytest.mark.parametrize("q, k, r, parity", [
    (2, 2, 2, "odd"), (2, 2, 2, "even"), (2, 2, 3, "odd"), (2, 2, 3, "even"),
    (2, 2, 4, "even"), (2, 2, 5, "even"), (2, 3, 2, "odd"), (2, 3, 2, "even"),
    (3, 2, 2, "odd"), (3, 2, 2, "even"), (4, 2, 2, "odd"), (4, 2, 2, "even"),
])
def test_construct_code_sizes_no_orbit(q, k, r, parity, monkeypatch):
    # the claim is the closed form, whose count construct_code has checked
    # against the enumeration, so verify checks the paper's formula itself;
    # (2, 2, 5) even is the first row whose even rep >= 2 part is nonzero
    def no_orbit_size(u):
        raise AssertionError("an orbit sized while constructing")

    for module in (sl, oc):
        monkeypatch.setattr(module, "orbit_size", no_orbit_size)
    code = oc.construct_code(q, k, r, parity)
    assert len(code.generators) == oc.generator_count(q, k, r, parity)
    assert code.claimed_size == oc.construction_size(q, k, r, parity)
    assert code.claimed_min_distance == 2 * k - 2


def test_construct_code_checks_the_enumeration_against_the_count(monkeypatch):
    enumerate_family = sc.enumerate_family

    def one_dropped(tower):
        tuples = enumerate_family(tower)
        next(tuples)
        return tuples

    monkeypatch.setattr(sc, "enumerate_family", one_dropped)
    with pytest.raises(BrokenInvariant, match="enumerated 32 tuples, the closed form counts 33"):
        oc.construct_code(2, 2, 2, "odd")


def test_compare_sizes_row():
    row = oc.compare_sizes(3, 3, 2, "odd")
    assert row["ours"] == oc.construction_size(3, 3, 2, "odd")
    assert "known_5k" in row
    assert abs(row["rate_ours"] - 0.488) < 1e-3
    assert abs(row["rate_best_known"] - 0.480) < 1e-3
    assert abs(row["rate_known_5k"] - 0.474) < 1e-3


def test_enumeration_count_times_orbit_equals_formula_small():
    for p, a, k, t, parity in ((2, 1, 2, 5, "odd"), (2, 1, 2, 4, "even"), (3, 1, 3, 5, "odd")):
        tw = build_tower(p, a, k, t)
        r = (t - 1) // 2 if parity == "odd" else t // 2
        q = tw.q
        n = tw.m
        count = sum(1 for _ in sc.enumerate_family(tw))
        assert count * (q ** n - 1) // (q - 1) == oc.construction_size(q, k, r, parity)


# -- union building and verification ---------------------------------------------

def test_build_union_subfield_orbit():
    tw = build_tower(2, 1, 2, 5)
    F4 = sl.span(tw, range(1, 4))
    code = oc.build_union(tw, [F4], provenance="subfield")
    assert code.claimed_size == (2 ** 10 - 1) // 3
    assert sl.union_distance(code.generators, oc.DEFAULT_SCAN_BUDGET).distance == 2 * tw.k


def test_union_sizes(odd_code_2_2_10, even_code_2_2_8):
    assert odd_code_2_2_10.claimed_size == 33759
    assert even_code_2_2_8.claimed_size == 1020


def test_exact_distance_even(even_code_2_2_8):
    assert oc.verify_code(even_code_2_2_8)["verified_min_distance"] == 2


def test_exact_scan_budget():
    # GF(4) in GF(2^10): 3 x 2 point ratios, each repeated (the stabilizer
    # is GF(4)*), so the self pair is shared and its histogram takes 3^2
    tw = build_tower(2, 1, 2, 5)
    code = oc.build_union(tw, [sl.span(tw, range(1, 4))])
    with pytest.raises(Infeasible):
        oc.verify_code(code, budget=6 + 9 - 1)
    rep = oc.verify_code(code, budget=6 + 9)
    assert rep["verified_min_distance"] == 4
    assert rep["counters"] == {"pairs": 1, "point_ratios": 6, "shared_pairs": 1, "budget": 15}


def test_verify_code_report(even_code_2_2_8):
    rep = oc.verify_code(even_code_2_2_8)
    assert rep["ok"] and rep["size_claim_ok"] and rep["distance_claim_ok"]
    assert rep["verified_size"] == "1020"


def test_verify_code_flags_bad_claims(even_code_2_2_8):
    forged = oc.UnionCode(
        even_code_2_2_8.tower,
        even_code_2_2_8.generators,
        even_code_2_2_8.claimed_size + 1,
        even_code_2_2_8.claimed_min_distance,
    )
    rep = oc.verify_code(forged)
    assert not rep["ok"] and not rep["size_claim_ok"]


def test_build_union_dimension_mismatch():
    tw = build_tower(2, 1, 2, 5)
    with pytest.raises(DimensionMismatch):
        oc.build_union(tw, [sl.span(tw, [1]), sl.span(tw, range(1, 4))])
    with pytest.raises(DimensionMismatch):
        oc.build_union(tw, [])


def test_code_json_roundtrip(even_code_2_2_8):
    blob = json.dumps(even_code_2_2_8.to_json())
    code = oc.code_from_json(json.loads(blob))
    assert code.generators == even_code_2_2_8.generators
    assert code.claimed_size == 1020


# -- bounds, rates, ratios ---------------------------------------------------------

def brute_subspace_count(n, k, q=2):
    """Independent oracle: count distinct k-dim row spaces of GF(2)^n."""
    assert q == 2
    tw = build_tower(2, 1, 1, n)  # GF(2^n) as a plain GF(2)-space
    seen = set()
    for vecs in itertools.combinations(range(1, 2 ** n), k):
        s = sl.span(tw, vecs)
        if s.dim == k:
            seen.add(s.rows)
    return len(seen)


def test_gaussian_binomial_against_brute_count():
    assert gaussian_binomial(4, 2, 2) == brute_subspace_count(4, 2)
    assert gaussian_binomial(5, 2, 2) == brute_subspace_count(5, 2)
    assert gaussian_binomial(4, 1, 2) == brute_subspace_count(4, 1)


def test_gaussian_binomial_edges():
    for q in (2, 3, 5):
        assert gaussian_binomial(3, 3, q) == 1
        assert gaussian_binomial(2, 1, q) == q + 1
        assert gaussian_binomial(7, 0, q) == 1


def test_bounds_coincide_at_n_4k():
    for q in (2, 3):
        for k in range(2, 6):
            sp = sphere_packing_bound(q, 4 * k, k, 2 * k - 2)
            jo = oc.johnson_bound(q, 4 * k, k, 2 * k - 2)
            assert sp == jo == common_bound_4k(q, k)


def test_johnson_bound_equals_the_gaussian_binomial_route():
    # [n, m]_q / [k, m]_q with m = k - d/2 + 1 telescopes to Johnson's
    # product; the grid takes in k = n and every d > 2k up to 2k + 4
    cases = [
        (q, n, k, d)
        for q in (2, 3, 4, 5, 7, 8, 9)
        for n in range(1, 13)
        for k in range(1, n + 1)
        for d in range(2, 2 * k + 5, 2)
    ]
    assert len(cases) == 3640
    assert [c for c in cases if oc.johnson_bound(*c) != sphere_packing_bound(*c)] == []
    assert oc.johnson_bound(3, 12, 12, 24) == oc.johnson_bound(2, 8, 2, 6) == 1
    assert oc.johnson_bound(2, 8, 8, 2) == 1  # k = n: GF(2)^8 is the only word


def test_bounds_floor_a_non_integral_product():
    # at (q, n, k, d) = (2, 20, 4, 6) the Johnson product is 549754241025 / 105
    assert oc.johnson_bound(2, 20, 4, 6) == 549754241025 // 105
    num = (2 ** 24 - 1) * (2 ** 23 - 1)
    den = (2 ** 6 - 1) * (2 ** 5 - 1)
    assert num % den and common_bound_4k(2, 6) == num // den
    for q, k in ((2, 6), (3, 7)):
        n = 4 * k
        assert sphere_packing_bound(q, n, k, 2 * k - 2) == common_bound_4k(q, k)
        assert oc.johnson_bound(q, n, k, 2 * k - 2) == common_bound_4k(q, k)
    # integral products keep their values
    assert oc.johnson_bound(2, 8, 2, 2) == sphere_packing_bound(2, 8, 2, 2) == 10795


def test_bounds_input_validation():
    with pytest.raises(InvalidParams):
        oc.johnson_bound(2, 8, 2, 3)  # odd distance


def test_rate_examples():
    assert abs(oc.rate(oc.construction_size(3, 3, 2, "odd"), 3, 15, 3) - 0.488) < 1e-3
    assert abs(oc.rate(oc.known_size_5k(3, 3), 3, 15, 3) - 0.474) < 1e-3
    assert abs(oc.rate(oc.best_known_size(3, 3, 2, "odd"), 3, 15, 3) - 0.480) < 1e-3
    assert abs(oc.rate(oc.construction_size(5, 3, 8, "even"), 5, 48, 3) - 0.506) < 1e-3
    assert abs(oc.rate(oc.best_known_size(5, 3, 8, "even"), 5, 48, 3) - 0.505) < 1e-3
    assert oc.rate(2 ** (8 * 2), 2, 8, 2) == 1.0


def test_ratio_to_bound_pinned_fractions():
    # frozen from an exact-rational evaluation of the two closed forms
    assert oc.ratio_to_bound(2, 2) == Fraction(12, 127)
    assert oc.ratio_to_bound(2, 3) == Fraction(504, 2047)
    assert oc.ratio_to_bound(2, 4) == Fraction(1680, 4681)
    assert oc.ratio_to_bound(2, 5) == Fraction(223200, 524287)


def test_constructed_sizes_never_exceed_johnson():
    for q, k, r, parity in ((2, 2, 2, "odd"), (2, 2, 2, "even"), (3, 3, 2, "odd")):
        n = (2 * r + 1) * k if parity == "odd" else 2 * r * k
        assert oc.construction_size(q, k, r, parity) <= oc.johnson_bound(q, n, k, 2 * k - 2)


def test_ratio_to_bound_increases_toward_half():
    vals = [oc.ratio_to_bound(2, k) for k in range(2, 9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < Fraction(1, 2) for v in vals)
    # approaches 1/2: by k = 8 the gap is already below 2 percent
    assert Fraction(1, 2) - vals[-1] < Fraction(1, 50)


def test_rate_and_ratio_refuse_out_of_range_arguments():
    # typed, so the CLI maps them to exit 4 like every other input error
    with pytest.raises(InvalidParams):
        oc.rate(0, 2, 8, 2)
    with pytest.raises(InvalidParams):
        oc.ratio_to_bound(2, 1)
