import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import element_order

from cyclic_cdc.errors import (
    DivisionByZero,
    NotPrime,
)
from cyclic_cdc.field_tower import (
    build_tower,
    enc_from_nested,
    nested_from_enc,
    poly_is_irreducible,
    tower_from_spec,
)

TOWERS = [(2, 1, 2, 5), (3, 1, 3, 5), (2, 1, 2, 4), (2, 1, 2, 7), (2, 2, 2, 3)]


def test_minimal_odd_tower_parameters():
    tw = build_tower(2, 1, 2, 5)
    assert (tw.q, tw.k, tw.m) == (2, 2, 10)
    assert tw.top.order == 2 ** 10


def test_ternary_tower_parameters():
    tw = build_tower(3, 1, 3, 5)
    assert (tw.q, tw.k, tw.m) == (3, 3, 15)
    assert tw.mid.order == 27


def test_quadrinomial_host_tower():
    # GF(4) coefficients with roots in GF(2^14)
    tw = build_tower(2, 1, 2, 7)
    assert tw.mid.order == 4
    assert tw.top.order == 2 ** 14


def test_construction_is_deterministic():
    a = build_tower(2, 1, 2, 5).spec_dict()
    from cyclic_cdc.field_tower import FieldTower

    b = FieldTower(2, 1, 2, 5).spec_dict()  # bypass the cache
    assert a == b


def test_defining_polynomials_are_irreducible():
    for params in TOWERS:
        tw = build_tower(*params)
        assert poly_is_irreducible(tw.prime, list(tw.def_poly_q))
        assert poly_is_irreducible(tw.q_level, list(tw.def_poly_k))
        assert poly_is_irreducible(tw.mid, list(tw.def_poly_top))


def test_xi_is_primitive():
    for params in TOWERS:
        tw = build_tower(*params)
        assert element_order(tw.mid, tw.xi) == tw.mid.order - 1


def test_gamma_powers_span():
    # 1, gamma, ..., gamma^(t-1) must be a basis of the top over the middle:
    # with the packed representation each power is a distinct unit digit.
    tw = build_tower(2, 1, 2, 5)
    g = tw.gamma
    power = 1
    for i in range(tw.t):
        assert power == tw.mid.order ** i
        power = tw.top.mul(power, g)


def test_gamma_satisfies_defining_relation():
    for params in TOWERS:
        tw = build_tower(*params)
        top = tw.top
        acc = 0
        power = 1
        for c in tw.def_poly_top:
            acc = top.add(acc, top.mul(c, power))
            power = top.mul(power, tw.gamma)
        assert acc == 0


@pytest.mark.parametrize("params", TOWERS)
def test_distributivity_on_pseudorandom_triples(params):
    tw = build_tower(*params)
    for level in ("q", "mid", "top"):
        F = tw.field(level)
        rng = random.Random(hash((params, level)) & 0xFFFF)
        for _ in range(1000):
            x, y, z = (rng.randrange(F.order) for _ in range(3))
            assert F.mul(F.add(x, y), z) == F.add(F.mul(x, z), F.mul(y, z))


def test_field_axioms_inverse_and_power():
    tw = build_tower(3, 1, 3, 5)
    F = tw.top
    rng = random.Random(5)
    for _ in range(200):
        x = rng.randrange(1, F.order)
        assert F.mul(x, F.inv(x)) == 1
        assert F.pow(x, 3) == F.mul(x, F.mul(x, x))
    assert F.inv(1) == 1


def test_frobenius_is_q_linear():
    for params in TOWERS:
        tw = build_tower(*params)
        F = tw.top
        rng = random.Random(11)
        for _ in range(100):
            c = rng.randrange(tw.q)  # GF(q) scalar, embedded
            x, y = rng.randrange(F.order), rng.randrange(F.order)
            lhs = F.pow(F.add(tw.scalar_mul(c, x), y), tw.q)
            rhs = F.add(tw.scalar_mul(c, F.pow(x, tw.q)), F.pow(y, tw.q))
            assert lhs == rhs


def test_mid_elements_fixed_by_qk_power():
    tw = build_tower(2, 1, 2, 5)
    for x in range(tw.mid.order):
        assert tw.top.pow(x, tw.q ** tw.k) == x


def test_flatten_is_bijective_exhaustive_small():
    tw = build_tower(2, 1, 2, 5)  # 2^10 <= 2^16: full scan
    seen = set()
    for enc in range(tw.top.order):
        coords = tw.flatten(enc)
        assert len(coords) == tw.m
        assert tw.unflatten(coords) == enc
        seen.add(coords)
    assert len(seen) == tw.top.order


def test_flatten_samples_large_field():
    tw = build_tower(3, 1, 3, 5)
    rng = random.Random(2)
    for _ in range(500):
        enc = rng.randrange(tw.top.order)
        assert tw.unflatten(tw.flatten(enc)) == enc


def test_flatten_is_additive():
    tw = build_tower(3, 1, 3, 5)
    qf = tw.q_level
    rng = random.Random(3)
    for _ in range(100):
        x, y = rng.randrange(tw.top.order), rng.randrange(tw.top.order)
        fx, fy = tw.flatten(x), tw.flatten(y)
        assert tw.flatten(tw.top.add(x, y)) == tuple(
            qf.add(a, b) for a, b in zip(fx, fy)
        )


def test_element_order_examples():
    tw = build_tower(3, 1, 3, 5)
    assert element_order(tw.mid, 1) == 1
    assert element_order(tw.mid, tw.xi) == 26
    assert element_order(tw.mid, tw.mid.pow(tw.xi, 13)) == 2  # 2 | q^k - 1
    with pytest.raises(ValueError):
        element_order(tw.mid, 0)


def test_embedding_respects_multiplication():
    # the middle field sits inside the top with unchanged encodings
    tw = build_tower(3, 1, 3, 5)
    rng = random.Random(7)
    for _ in range(200):
        x, y = rng.randrange(tw.mid.order), rng.randrange(tw.mid.order)
        assert tw.top.mul(x, y) == tw.mid.mul(x, y)
        assert tw.top.add(x, y) == tw.mid.add(x, y)


def test_errors():
    with pytest.raises(NotPrime):
        build_tower(4, 1, 2, 5)
    with pytest.raises(DivisionByZero):
        build_tower(2, 1, 2, 5).top.inv(0)


def test_spec_roundtrip():
    tw = build_tower(2, 2, 2, 3)
    spec = tw.spec_dict()
    assert tower_from_spec(spec) == tw
    # nested encodings round-trip at every level
    for level in ("q", "mid", "top"):
        F = tw.field(level)
        for enc in (0, 1, F.order - 1, F.order // 2):
            assert enc_from_nested(F, nested_from_enc(F, enc)) == enc


def test_first_primitive_matches_order_scan():
    tw = build_tower(2, 1, 2, 4)
    g = tw.top.primitive
    # no smaller encoding has full order
    for x in range(1, g):
        assert element_order(tw.top, x) < tw.top.order - 1
    assert element_order(tw.top, g) == tw.top.order - 1


def test_primitive_is_searched_once(monkeypatch):
    from cyclic_cdc import field_tower as ft

    tw = build_tower(3, 1, 3, 5)
    calls = []
    factorize = ft.factorize
    monkeypatch.setattr(ft, "factorize", lambda n: calls.append(n) or factorize(n))
    F = ft.ExtensionField(tw.mid, tw.def_poly_top)  # GF(3^15): too large for tables
    assert calls == []
    assert F.primitive == 30
    assert calls == [F.order - 1]
    # the second read and the baby-step table of discrete_log reuse it
    assert F.primitive == 30
    assert F.discrete_log(30) == 1
    assert calls == [F.order - 1]
    assert element_order(F, 30) == F.order - 1


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=0, max_value=2 ** 10 - 1),
    y=st.integers(min_value=0, max_value=2 ** 10 - 1),
    z=st.integers(min_value=0, max_value=2 ** 10 - 1),
)
def test_ring_axioms_hypothesis(x, y, z):
    F = build_tower(2, 1, 2, 5).top
    assert F.mul(x, y) == F.mul(y, x)
    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
    assert F.add(x, F.neg(x)) == 0
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
