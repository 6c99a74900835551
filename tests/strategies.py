"""Hypothesis strategies shared by the differential tests."""

from hypothesis import assume
from hypothesis import strategies as st
from oracles import subfield_generator, subspace_polynomial

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import BadSupport
from cyclic_cdc.field_tower import build_tower

# q -> tower (p, a, k, t) of GF(q^4) or GF(q^6), both with the subfield GF(q^2)
TOWERS = {2: (2, 1, 2, 3), 3: (3, 1, 2, 2), 4: (2, 2, 2, 2)}


@st.composite
def orbit_generators(draw, q, subfield_linear):
    """1-3 subspaces of one dimension k, and sometimes a shifted copy of one
    of them (an orbit collision).  With ``subfield_linear`` k = 2, the first
    generator is a shift of GF(q^2), whose orbit is short, and each other
    generator may be one too."""
    tw = build_tower(*TOWERS[q])
    top = tw.top
    element = st.integers(1, top.order - 1)
    k = 2 if subfield_linear else draw(st.integers(1, min(3, tw.m - 1)))
    gens = []
    for i in range(draw(st.integers(1, 3))):
        if subfield_linear and (i == 0 or draw(st.booleans())):
            x = draw(element)
            vecs = [top.mul(x, b) for b in range(1, q ** 2)]
        else:
            vecs = draw(st.lists(element, min_size=k, max_size=k))
        u = sl.span(tw, vecs)
        assume(u.dim == k)
        gens.append(u)
    if draw(st.booleans()):
        source = gens[draw(st.integers(0, len(gens) - 1))]
        gens.append(sl.cyclic_shift(source, draw(element)))
    return gens


@st.composite
def subfield_unions(draw, q, k):
    """1-3 k-dimensional subspaces in the tower of ``TOWERS[q]``, each a sum
    of k/d shifted subfields beta*GF(q^d) for a drawn divisor d of k and m
    (d = 1: a random subspace), and sometimes a generator repeated as it is
    or shifted."""
    tw = build_tower(*TOWERS[q])
    top = tw.top
    element = st.integers(1, top.order - 1)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0 and tw.m % d == 0]))
        w = subfield_generator(tw, d)
        betas = draw(st.lists(element, min_size=k // d, max_size=k // d))
        u = sl.span(tw, [top.mul(beta, top.pow(w, e)) for beta in betas for e in range(d)])
        assume(u.dim == k)
        gens.append(u)
    repeat = draw(st.sampled_from(("none", "same", "shifted")))
    if repeat != "none":
        source = gens[draw(st.integers(0, len(gens) - 1))]
        gens.append(source if repeat == "same" else sl.cyclic_shift(source, draw(element)))
    return gens


# q -> tower of GF(q^8) over GF(q^4), which hosts V = {u + u^q * gamma : u in
# GF(q^4)}: 4-dimensional, so never max-span (10 > 8), and Sidon for many
# gamma at q = 3 and q = 4
FROBENIUS_TOWERS = {2: (2, 1, 4, 2), 3: (3, 1, 4, 2), 4: (2, 2, 4, 2)}


def frobenius_space(tw, gamma):
    """V = {u + u^q * gamma : u in GF(q^k)}, the span of the images of the
    GF(q)-basis q^0..q^(k-1) of the middle level."""
    top, q = tw.top, tw.q
    return sl.span(tw, [top.add(u, top.mul(tw.mid.pow(u, q), gamma))
                        for u in (q ** j for j in range(tw.k))])


@st.composite
def sidon_subjects(draw, q):
    """A subspace to run the Sidon test on: a random one of dimension 1-4 in
    the tower of ``TOWERS[q]`` (k(k+1)/2 > m for the larger k), a shift of
    its subfield GF(q^2) (never Sidon), or a space ``frobenius_space`` in
    the tower of ``FROBENIUS_TOWERS[q]``."""
    kind = draw(st.sampled_from(("random", "subfield", "frobenius")))
    if kind == "frobenius":
        tw = build_tower(*FROBENIUS_TOWERS[q])
        return frobenius_space(tw, draw(st.integers(1, tw.top.order - 1)))
    tw = build_tower(*TOWERS[q])
    top = tw.top
    element = st.integers(1, top.order - 1)
    if kind == "subfield":
        x = draw(element)
        return sl.span(tw, [top.mul(x, b) for b in range(1, q ** 2)])
    return sl.span(tw, draw(st.lists(element, min_size=1, max_size=4)))


@st.composite
def criteria_families(draw, q):
    """1-3 monic q-polynomials x^(q^3) + a x^(q^2) + b x^q + c x (k = 3,
    s = 1) over the tower of ``TOWERS[q]``, with a, b, c drawn from the
    subfield GF(q^d) for a drawn divisor d of m (d = m: the whole top field),
    and sometimes the shift transform of one of them (a shifted duplicate:
    an orbit collision), by a shift from GF(q^d) or from the top field."""
    tw = build_tower(*TOWERS[q])
    top = tw.top
    d = draw(st.sampled_from([d for d in range(1, tw.m + 1) if tw.m % d == 0]))
    step = (top.order - 1) // (q ** d - 1)
    element = st.integers(0, q ** d - 2).map(lambda j: top.pow(top.primitive, j * step))
    polys = [
        lp.linpoly(tw, {3: 1, 2: draw(element), 1: draw(element), 0: draw(element)})
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        source = polys[draw(st.integers(0, len(polys) - 1))]
        shift = draw(element | st.integers(1, top.order - 1))
        polys.insert(draw(st.integers(0, len(polys))), lp.shift_transform(source, shift))
    return polys


def passes_support(P, s):
    """Whether ``validate_support`` accepts P at s."""
    try:
        lp.validate_support(P, s)
    except BadSupport:
        return False
    return True


def split_space(tw, k, s, rng):
    """A random k-dimensional subspace of the tower's top field whose
    subspace polynomial passes ``validate_support`` at s, drawn from the
    ``random.Random`` rng."""
    while True:
        V = sl.span(tw, [rng.randrange(1, tw.top.order) for _ in range(k)])
        if V.dim == k and passes_support(subspace_polynomial(V), s):
            return V


# q -> tower of GF(2^6), GF(3^5) or GF(4^5) for ``split_families``.  Two
# 3-dimensional subspaces of GF(q^4) meet in a plane at every shift, so there
# every family fails the rank condition at the smallest admissible shift; in
# GF(q^5) the first failing shift varies, and in GF(2^6) some families pass.
SPLIT_TOWERS = {2: (2, 1, 2, 3), 3: (3, 1, 1, 5), 4: (2, 2, 1, 5)}


@st.composite
def split_families(draw, q):
    """1-3 subspace polynomials (k = 3, s = 1) of random 3-dimensional
    subspaces of the tower of ``SPLIT_TOWERS[q]``, each passing
    ``validate_support``, and sometimes that of a shift of one of the
    subspaces (a shifted duplicate: an orbit collision).  Every member splits
    with simple roots."""
    tw = build_tower(*SPLIT_TOWERS[q])
    element = st.integers(1, tw.top.order - 1)
    spaces = []
    for _ in range(draw(st.integers(1, 3))):
        V = sl.span(tw, draw(st.lists(element, min_size=3, max_size=3)))
        assume(V.dim == 3)
        spaces.append(V)
    if draw(st.booleans()):
        source = spaces[draw(st.integers(0, len(spaces) - 1))]
        spaces.insert(draw(st.integers(0, len(spaces))), sl.cyclic_shift(source, draw(element)))
    polys = [subspace_polynomial(V) for V in spaces]
    assume(all(passes_support(P, 1) for P in polys))
    return polys
