"""The package's value types are immutable tuples of their fields: equal and
hashed alike exactly when their fields are."""

import pytest

from cyclic_cdc import channel_sim as ch
from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.field_tower import build_tower

# one subspace polynomial over GF(4), hosted in GF(2^6): x^8 + x^4 + xi x^2 + xi^2 x, s = 1
FAMILY = {"q": 2, "coeff_field_degree": 2, "k": 3, "s": 1,
          "polys": [{"3": 0, "2": 0, "1": 1, "0": 2}]}


def test_every_value_type_refuses_field_assignment(even_code_2_2_8):
    tower, polys, k, s = lp.poly_family_from_json(FAMILY, 6)
    P = polys[0]
    values = [
        even_code_2_2_8.generators[0],
        even_code_2_2_8,
        next(iter(sc.enumerate_family(even_code_2_2_8.tower))),
        P,
        lp.build_rank_matrix(P, P, tower.top.primitive, s),
        lp.check_union_distance_criteria(lp.poly_code_distance(polys), s),
        lp.poly_code_distance(polys),
        sl.union_distance(even_code_2_2_8.generators, sl.DEFAULT_SCAN_BUDGET),
        ch.ChannelConfig(erasures=1, insertions=0, trials=3, seed=5),
    ]
    assert [type(v).__name__ for v in values] == [
        "Subspace", "UnionCode", "ConstructionParams", "LinearizedPolynomial", "RankMatrix",
        "CriteriaVerdict", "PolyCodeReport", "UnionScan", "ChannelConfig"]
    for value in values:
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            assert getattr(value, name) is value[value._fields.index(name)]


def test_subspaces_are_equal_exactly_when_tower_and_rows_agree():
    tower = build_tower(2, 1, 2, 4)
    a, b = 0b10, 0b1100
    u = sl.span(tower, [a, b])
    same = sl.span(tower, [b, a ^ b])
    assert u == same and hash(u) == hash(same)
    assert len({u, same}) == 1
    other = sl.span(tower, [a, b ^ 1])
    assert u != other
    # GF(2^8) again, from GF(16) over GF(2^2): the same rows are another
    # subspace, since the coordinates mean other elements
    elsewhere = sl.Subspace(build_tower(2, 1, 4, 2), u.rows)
    assert elsewhere.tower.m == tower.m and elsewhere.tower != tower
    assert u != elsewhere
    assert len({u, elsewhere}) == 2


def test_construction_params_default_theta_is_none():
    params = sc.ConstructionParams(family="v", r=2, rep=1, l=1, delta_exps=(0,))
    assert params.theta_exp is None
    assert params == sc.ConstructionParams("v", 2, 1, 1, (0,), None)
