import pytest

from cyclic_cdc import orbit_codes as oc
from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc.field_tower import build_tower


@pytest.fixture(scope="session")
def odd_code_2_2_10():
    """The 33-generator union over GF(2^10) built from the odd tower."""
    tower = build_tower(2, 1, 2, 5)
    gens = [sc.make_subspace(p, tower) for p in sc.enumerate_family(tower)]
    return oc.build_union(tower, gens, provenance="odd(q=2,k=2,r=2)")


@pytest.fixture(scope="session")
def even_code_2_2_8():
    """The 4-generator union over GF(2^8) built from the even tower."""
    tower = build_tower(2, 1, 2, 4)
    gens = [sc.make_subspace(p, tower) for p in sc.enumerate_family(tower)]
    return oc.build_union(tower, gens, provenance="even(q=2,k=2,r=2)")


@pytest.fixture(scope="session")
def one_orbit_code_3_3_15():
    """The first generator of the odd (3,3,15) code alone: one full orbit of
    (3^15 - 1)/2 = 7,174,453 words, which the simulator never lists."""
    tower = build_tower(3, 1, 3, 5)
    gen = sc.make_subspace(next(iter(sc.enumerate_family(tower))), tower)
    return oc.build_union(tower, [gen], provenance="first generator of odd(q=3,k=3,r=2)")


@pytest.fixture(scope="session")
def gf4_poly_family():
    """The three GF(4)-coefficient quadrinomials hosted in GF(2^14)."""
    from cyclic_cdc import linearized_poly as lp

    tower = build_tower(2, 1, 2, 7)
    xi = tower.xi
    xi2 = tower.mid.mul(xi, xi)
    polys = [
        lp.linpoly(tower, {3: 1, 2: xi, 1: 1, 0: 1}),
        lp.linpoly(tower, {3: 1, 2: xi, 1: xi, 0: xi}),
        lp.linpoly(tower, {3: 1, 2: xi2, 1: xi2, 0: xi2}),
    ]
    return tower, polys
