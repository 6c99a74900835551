import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    digits_by_divmod,
    element_order,
    irreducible_by_rabin,
    projective_reps_by_digits,
    scalar_mul,
    schoolbook_mul,
)

from cyclic_cdc.errors import (
    BadShape,
    BrokenInvariant,
    DivisionByZero,
    InvalidParams,
    NotPrime,
)
from cyclic_cdc.field_tower import (
    LOG_TABLE_LIMIT,
    ExtensionField,
    FieldTower,
    batch_inverse,
    build_tower,
    digits_of,
    enc_from_nested,
    factorize,
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
        for F, poly in ((tw.prime, tw.def_poly_q), (tw.q_level, tw.def_poly_k),
                        (tw.mid, tw.def_poly_top)):
            assert poly_is_irreducible(F, list(poly))
            assert irreducible_by_rabin(F, list(poly))


def _mobius(n):
    facs = factorize(n)
    return 0 if any(e > 1 for e in facs.values()) else (-1) ** len(facs)


# every monic polynomial over GF(Q) of degree 1..max_degree; total is the
# number of irreducibles among them
@pytest.mark.parametrize("p, a, max_degree, total", [
    (2, 1, 9, 127), (3, 1, 6, 196), (2, 2, 5, 294), (5, 1, 5, 829),
    (2, 3, 4, 1212), (3, 2, 4, 1905), (3, 3, 3, 6930)])
def test_irreducibility_matches_rabin_and_gauss(p, a, max_degree, total):
    F = build_tower(p, a, 1, 1).q_level
    Q = F.order
    found = 0
    for d in range(1, max_degree + 1):
        count = 0
        for enc in range(Q ** d):
            poly = digits_of(enc, Q, d) + [1]
            irreducible = poly_is_irreducible(F, poly)
            assert irreducible == irreducible_by_rabin(F, poly), poly
            count += irreducible
        # Gauss: (1/d) * sum over e | d of mu(d/e) * Q^e
        assert count * d == sum(_mobius(d // e) * Q ** e for e in range(1, d + 1) if d % e == 0)
        found += count
    assert found == total


def test_search_order_is_pinned(monkeypatch):
    # each defining polynomial is the first irreducible in ascending packed
    # order, so the number of candidates tested pins the order; FieldTower
    # builds past build_tower's cache
    from cyclic_cdc import field_tower as ft

    calls = []
    test = ft.poly_is_irreducible
    monkeypatch.setattr(ft, "poly_is_irreducible", lambda F, poly: calls.append(1) or test(F, poly))
    tw = ft.FieldTower(2, 1, 6, 4)
    assert len(calls) == 4230
    w = [[0], [1], [0], [0], [0], [0]]  # x over GF(2), the middle's primitive xi
    one, zero = [[1]] + [[0]] * 5, [[0]] * 6
    assert tw.spec_dict() == {
        "p": 2, "a": 1, "k": 6, "t": 4, "def_poly_q": [0, 1],
        "def_poly_k": [[1], [1], [0], [0], [0], [0], [1]],  # x^6 + x + 1
        "def_poly_top": [one, w, one, zero, one],  # x^4 + x^2 + xi x + 1
        "xi": w,
    }


def test_xi_is_primitive():
    for params in TOWERS:
        tw = build_tower(*params)
        assert element_order(tw.mid, tw.xi) == tw.mid.order - 1


def test_gamma_powers_span():
    # 1, gamma, ..., gamma^(t-1) must be a basis of the top over the middle:
    # with the packed representation each power is a distinct unit digit.
    tw = build_tower(2, 1, 2, 5)
    g = tw.mid.order  # gamma, the root of def_poly_top, is x over the middle
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
            power = top.mul(power, tw.mid.order)  # gamma: every tower has t > 1
        assert acc == 0


# q in {2, 3, 4, 5}; degree-1 levels (GF(q) over GF(p) for prime q, and the
# middle of (5, 1, 1, 3)) and the order-2^16 top of (2, 1, 2, 8)
@pytest.mark.parametrize("params", [(2, 1, 2, 8), (3, 1, 2, 4), (2, 2, 2, 3), (5, 1, 1, 3)])
def test_log_tables_follow_the_primitive(params):
    # the split-table walk gives what schoolbook products by the primitive
    # element give, and log inverts exp
    tw = build_tower(*params)
    levels = [F for F in (tw.q_level, tw.mid, tw.top) if F._exp is not None]
    assert tw.top in levels
    for F in levels:
        exp, log, g, o1 = F._exp, F._log, F.primitive, F.order - 1
        assert len(exp) == o1
        for i, x in enumerate(exp):
            assert log[x] == i
            assert exp[(i + 1) % o1] == F._mul_poly(x, g)


@pytest.mark.parametrize("params", [(2, 1, 2, 8), (3, 1, 2, 4), (2, 2, 2, 3), (5, 1, 1, 3)])
def test_inverse_table_and_negation_row(params):
    # the tables the echelon scales and negates rows through: x * inv[x] = 1,
    # and the mul table's row of p - 1 is negation
    tw = build_tower(*params)
    for F in (tw.q_level, tw.mid, tw.top):
        if F._mul_table is None:
            assert F._inv_table is None
            continue
        assert F._inv_table[0] == 0
        assert all(F.mul(x, F._inv_table[x]) == 1 for x in range(1, F.order))
        neg = F._mul_table[F.char - 1]
        assert all(F.add(x, neg[x]) == 0 for x in range(F.order))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40) | st.sampled_from([2, 3, 4, 27, 31, 32, 33, 128, 3 ** 15]),
       st.integers(0, 45), st.integers(0, 10 ** 30))
def test_chunked_digits_match_the_divmod_loop(base, n, x):
    # bases up to 32 read 2 or more digits per chunk from their table, larger
    # bases one per divmod; x may have more than n digits
    assert digits_of(x, base, n) == digits_by_divmod(x, base, n)


@pytest.mark.parametrize("params", [(2, 1, 2, 4), (3, 1, 2, 4)])
def test_tables_refuse_a_generator_that_is_not_primitive(params, monkeypatch):
    # xi generates the middle level only: in the top it returns to 1 early
    tw = build_tower(*params)
    monkeypatch.setattr(ExtensionField, "_search_primitive", lambda self: tw.xi)
    with pytest.raises(BrokenInvariant, match="not primitive"):
        ExtensionField(tw.mid, tw.def_poly_top)


def test_field_layer_errors_are_typed():
    tw = build_tower(2, 1, 2, 4)
    with pytest.raises(BadShape, match="monic"):
        ExtensionField(tw.mid, tw.def_poly_top[:-1] + (2,))
    with pytest.raises(InvalidParams, match="a, k, t must be >= 1"):
        FieldTower(2, 1, 2, 0)
    with pytest.raises(BadShape, match="tower spec does not match"):
        tower_from_spec(dict(tw.spec_dict(), xi=[[1], [1]]))


@pytest.mark.parametrize("params", [(2, 1, 2, 5), (3, 1, 3, 5)], ids=["tables", "no-tables"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_geometric_run_matches_powers(params, data):
    # a rotation of the exp table (wrapping past its end included), or
    # repeated multiplication above LOG_TABLE_LIMIT
    top = build_tower(*params).top
    assert (top._exp is None) == (top.order > LOG_TABLE_LIMIT)
    limit = top.order - 1 if top._exp is not None else 30
    if top._exp is not None and data.draw(st.booleans()):
        x = top._exp[data.draw(st.integers(top.order - 40, top.order - 2))]
    else:
        x = data.draw(st.integers(0, top.order - 1))
    n = data.draw(st.integers(0, limit))
    g = top.primitive
    assert top.geometric(x, n) == [top.mul(x, top.pow(g, i)) for i in range(n)]


# (2, 1, 9, 3): the top GF(2^27) multiplies over GF(2^9), a level without dense tables
@pytest.mark.parametrize("params", TOWERS + [(2, 1, 9, 3)])
def test_distributivity_on_pseudorandom_triples(params):
    tw = build_tower(*params)
    for level in ("q", "mid", "top"):
        F = tw.field(level)
        rng = random.Random(repr((params, level)))  # str hashes vary per process
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
            lhs = F.pow(F.add(F.mul(c, x), y), tw.q)
            rhs = F.add(F.mul(c, F.pow(x, tw.q)), F.pow(y, tw.q))
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


@pytest.mark.parametrize("spec", TOWERS)
def test_batch_inverse_matches_inv(spec):
    # GF(3^15) inverts by powering, the other top fields by table lookups
    top = build_tower(*spec).top
    rng = random.Random(7)
    xs = [rng.randrange(1, top.order) for _ in range(20)] + [1, top.order - 1]
    assert batch_inverse(top, xs) == [top.inv(x) for x in xs]
    assert batch_inverse(top, []) == []
    with pytest.raises(DivisionByZero):
        batch_inverse(top, xs[:3] + [0] + xs[3:])


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
    # the second read reuses it
    assert F.primitive == 30
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


# q = 2, 3, 3, 4: the top level GF(2^10) and GF(3^8) multiply by log tables,
# GF(3^15) by schoolbook products (no tables), GF(4^6) over GF(4) = GF(2^2)
SCALAR_TOWERS = [(2, 1, 2, 5), (3, 1, 2, 4), (3, 1, 3, 5), (2, 2, 2, 3)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_scalar_product_and_negation_hypothesis(data):
    # a GF(q) scalar times a top element is top.mul, since encodings embed,
    # and -x is (p - 1) * x on every level
    tw = build_tower(*data.draw(st.sampled_from(SCALAR_TOWERS)))
    c = data.draw(st.integers(0, tw.q - 1))
    x = data.draw(st.integers(0, tw.top.order - 1))
    assert tw.top.mul(c, x) == scalar_mul(tw, c, x)
    for level in ("prime", "q", "mid", "top"):
        F = tw.field(level)
        y = x % F.order  # the low digits of x: an element of F
        assert F.add(y, F.neg(y)) == 0
        if tw.a == 1:  # prime q: negate each GF(q)-coordinate
            assert tw.flatten(F.neg(y)) == tuple((-d) % tw.p for d in tw.flatten(y))


# (tower, level, whether the level below carries dense tables): GF(3^15) over
# GF(27) and GF(2^28) over GF(4) index them; GF(2^27) over GF(2^9) and GF(3^12)
# over GF(3^6) (levels above 2^8) and GF(4) over GF(2) multiply by _pmul, _pmod
PRODUCT_LEVELS = [((3, 1, 3, 5), "top", True), ((2, 1, 2, 14), "top", True),
                  ((2, 1, 9, 3), "top", False), ((3, 1, 6, 2), "top", False),
                  ((2, 2, 2, 3), "q", False)]


@pytest.mark.parametrize("params, level, tabled", PRODUCT_LEVELS,
                         ids=["gf3_15", "gf2_28", "gf2_27", "gf3_12", "gf4"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_schoolbook(params, level, tabled, data):
    F = build_tower(*params).field(level)
    assert (F.sub._mul_table is not None) == tabled
    element = st.one_of(st.sampled_from([0, 1]), st.integers(0, F.order - 1))
    a, b = data.draw(element), data.draw(element)
    assert F._mul_poly(a, b) == schoolbook_mul(F, a, b)


@pytest.mark.parametrize("params", [(2, 1, 2, 5), (3, 1, 2, 4), (2, 2, 2, 3), (5, 1, 2, 2)],
                         ids=["q2", "q3", "q4", "q5"])
@pytest.mark.parametrize("level", ["mid", "top"])
def test_projective_reps_match_digit_scan(params, level):
    tw = build_tower(*params)
    assert list(tw.projective_reps(level)) == projective_reps_by_digits(tw, level)
