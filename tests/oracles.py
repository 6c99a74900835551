"""Independent routes to the quantities the package computes one way, kept
as differential oracles for the tests.

``rank_scan`` and ``gcd_scan`` find the minimum distance and the orbit
collisions of a union by brute force: one intersection dimension per
generator pair and per projective shift, from a rank of stacked bases or
from the degree of an ordinary-polynomial gcd.  ``histogram_scan`` finds
them from the point-ratio histogram of every generator pair, the check of
the package's filter to the pairs that share an internal ratio.
``cross_pair_ok`` is the paper's cross-product test of one generator pair,
the pairwise half of its certificate, and ``sidon_by_products`` is its Sidon
test of one generator by the same product scan, the check of both routes of
the package's ``is_sidon``: the max-span certificate and the point-ratio
filter that decides every other subspace.
``field_matrix_rank_division_free`` ranks a matrix over a field
without inverses.

``span_by_enumeration``, ``rref_by_enumeration`` and ``kernel_by_enumeration``
list every vector of a span, or every vector of GF(q)^m, instead of
eliminating: they check the package's elimination kernels at small sizes.
They scale by ``scalar_mul``, which multiplies a top element by a GF(q)
scalar one GF(q^k)-coordinate at a time, the check of the package's product
of the two in the top level.

``shifted_intersection_dim`` is dim(U ∩ alpha*V) from one rank, and
``shift_intersection_dims`` reads it at every shift from the histogram of
the point ratios canon(a * b^-1), with one plain inversion per point.
``subspace_polynomial``, ``intersection_dim_via_gcd`` and
``find_splitting_N`` are the paper's polynomial view of a subspace: its
annihilating q-polynomial, the gcd step of ``gcd_scan``, and the smallest
field that splits a q-polynomial.  ``element_order`` is the multiplicative
order by factoring the group order.  ``gaussian_binomial`` counts the
k-subspaces of GF(q)^n, and ``sphere_packing_bound`` is the bound as the
floor of a ratio of two of them, the check of the package's one product
``johnson_bound``.  ``common_bound_4k`` is the paper's closed form of the
bound's value at n = 4k, and ``size_difference``/``size_difference_5k`` are
its closed forms of the gap between the construction's size and a
competitor's, which the package gets by subtraction.

``rank_verdict_by_full_scan`` is the rank-matrix condition of a
q-polynomial family checked by one rank per ordered pair at every shift of
``admissible_alphas``, the check of the package's reading of the condition
off the kernels' point-ratio histograms and of its closed-form shift count.

``decode_by_scan`` is minimum-distance decoding by one subspace distance per
codeword, the check of the channel simulator's orbit-index decoder, and
``sorted_codebook`` lists every word of a union code in RREF order by
walking its orbits: the order in which the simulator once drew sent words,
so a replay over it gives back the results pinned before it drew a word as
a shift of its orbit's generator.

``orbit_by_scan`` lists an orbit by the RREF of the shift by every projective
point of the ambient field, the check of the package's walk over the first
orbit_size powers of the primitive element.  ``linearity_field`` is the
largest subfield GF(q^d) that U is linear over, by closure of U under one
primitive element ``subfield_generator`` of each candidate subfield and one
containment rank per basis row: U's orbit has (q^m - 1)/(q^d - 1) words,
the check of the package's orbit sizes, read off each generator's self pair
in the union scan.

``digits_by_divmod`` reads a number's digits one ``divmod`` at a time, the
check of the package's ``digits_of``, which reads several from a table.
``schoolbook_mul`` multiplies in an extension level by the schoolbook
product of the digit vectors and its reduction, each coefficient by the
level below's ``add`` and ``mul``: the check of the package's product, which
indexes the level below's dense tables or runs the polynomial helpers of the
irreducibility test.  ``projective_reps_by_digits`` lists the elements whose
first nonzero GF(q)-coordinate is 1 by scanning their digits, the check of
the package's fixed points of ``canon_projective``.

``irreducible_by_rabin`` is Rabin's irreducibility test: x^(Q^d) = x
modulo the polynomial, and gcd(poly, x^(Q^(d/r)) - x) = 1 for each prime r
dividing its degree d, the check of the package's Ben-Or test.

``avoiding_greedy`` picks the avoiding set's exponents one at a time,
ascending, skipping any that sums to the forbidden residue with itself or an
earlier pick: the check of the package's rule that takes the smaller member
of each pair summing to it.
"""

from collections import Counter
from math import gcd

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.field_tower import (
    _pmod,
    _ppowmod,
    _psub,
    build_tower,
    factorize,
    int_from_digits,
    poly_gcd,
)
from cyclic_cdc.sidon_constructions import max_rep_index
from cyclic_cdc.subspace_linalg import rank_rows


def shifted_intersection_dim(u, v, alpha):
    """dim(U ∩ alpha*V) = dim U + dim V - rank of U's rows stacked on alpha*V's."""
    mul = u.tower.top.mul
    return u.dim + v.dim - rank_rows(u.tower, list(u.rows) + [mul(alpha, r) for r in v.rows])


def shift_intersection_dims(u, v):
    """{canon(alpha): dim(U ∩ alpha*V)} for every shift alpha at which it is
    nonzero: the points a of U and b of V with canon(a * b^-1) = canon(alpha)
    are one per point of U ∩ alpha*V."""
    tower = u.tower
    top, q = tower.top, tower.q
    hist = Counter(tower.canon_projective(top.mul(a, top.inv(b)))
                   for a in u.projective_reps() for b in v.projective_reps())
    dim_of = {(q ** d - 1) // (q - 1): d for d in range(1, min(u.dim, v.dim) + 1)}
    return {alpha: dim_of[h] for alpha, h in hist.items()}


def histogram_scan(generators):
    """(distance, collisions) of the union of the generators' orbits, by one
    point-ratio histogram per pair i <= j."""
    k = generators[0].dim
    best = 2 * k
    collisions = []
    for i in range(len(generators)):
        for j in range(i, len(generators)):
            dims = shift_intersection_dims(generators[i], generators[j]).values()
            if i < j and k in dims:
                collisions.append((i, j))
            best = min(best, 2 * k - 2 * max((d for d in dims if d < k), default=0))
    return best, collisions


def decode_by_scan(received, codebook):
    """Index of a codeword at minimum subspace distance; ties break to the
    lowest index."""
    best_idx = 0
    best = sl.subspace_distance(received, codebook[0])
    for idx in range(1, len(codebook)):
        d = sl.subspace_distance(received, codebook[idx])
        if d < best:
            best, best_idx = d, idx
    return best_idx


def sorted_codebook(code):
    """Every distinct word of a union code, in RREF order: the orbit of each
    generator whose RREF is not yet a word, walked and merged."""
    words = set()
    for g in code.generators:
        if g.rows not in words:
            words.update(sl.enumerate_orbit(g))
    return [sl.Subspace(code.tower, rows) for rows in sorted(words)]


def orbit_by_scan(u):
    """The set of distinct cyclic shifts of U, as RREF row tuples, from one
    shift per projective representative of the ambient unit group."""
    mul = u.tower.top.mul
    return {sl.rref_rows(u.tower, [mul(alpha, r) for r in u.rows])
            for alpha in u.tower.projective_reps("top")}


def subfield_generator(tower, d):
    """A primitive element w of the subfield GF(q^d) of GF(q^m), d | m: the
    (q^m - 1)/(q^d - 1)-th power of the top field's primitive element."""
    top, q = tower.top, tower.q
    return top.pow(top.primitive, (q ** tower.m - 1) // (q ** d - 1))


def linearity_field(u):
    """Largest d with U linear over the subfield GF(q^d) of GF(q^m).

    GF(q^d) = GF(q)[w] for its primitive element w, so U is GF(q^d)-linear
    exactly when w*U is inside U; d has to divide both dim U and m.
    """
    if u.dim == 0:
        return u.tower.m
    g = gcd(u.dim, u.tower.m)
    mul = u.tower.top.mul
    for d in sorted((d for d in range(2, g + 1) if g % d == 0), reverse=True):
        w = subfield_generator(u.tower, d)
        if all(rank_rows(u.tower, u.rows + (mul(w, r),)) == u.dim for r in u.rows):
            return d
    return 1


def element_order(F, x):
    """Multiplicative order of x != 0, by factoring the group order and descending."""
    if x == 0:
        raise ValueError("order of 0 undefined")
    e = F.order - 1
    for prime in factorize(e):
        while e % prime == 0 and F.pow(x, e // prime) == 1:
            e //= prime
    return e


def subspace_polynomial(V):
    """The monic q-polynomial of q-degree dim(V) vanishing exactly on V,
    built by adjoining one basis vector at a time:
    P_(V + <w>)(y) = P_V(y)^q - P_V(w)^(q-1) * P_V(y)."""
    tower = V.tower
    top = tower.top
    q = tower.q
    coeffs = {0: 1}  # P = x
    for w in V.rows:
        b = 0
        for e, c in coeffs.items():
            b = top.add(b, top.mul(c, top.pow(w, q ** e)))
        scale = top.pow(b, q - 1)
        new = {e + 1: top.pow(c, q) for e, c in coeffs.items()}
        for e, c in coeffs.items():
            new[e] = top.sub_(new.get(e, 0), top.mul(scale, c))
        coeffs = {e: c for e, c in new.items() if c}
    return lp.LinearizedPolynomial(tower, tuple(sorted(coeffs.items())))


def intersection_dim_via_gcd(P, Q):
    """dim(ker P ∩ ker Q) as log_q of the degree of the ordinary gcd.

    Both polynomials must split with simple roots in the working field (true
    for subspace polynomials); the gcd is then the subspace polynomial of the
    intersection, whose degree is a power of q.
    """
    q = P.tower.q
    g = lp.dense_gcd(P.tower.top, lp.densify(P), lp.densify(Q))
    deg = len(g) - 1
    dim = next((d for d in range(deg.bit_length()) if q ** d == deg), None)
    if dim is None:
        raise ValueError(f"gcd degree {deg} is not a power of q={q}")
    return dim


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n, exactly."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return _exact_quotient(num, den)


def sphere_packing_bound(q, n, k, d):
    """The sphere-packing bound for a CDC of minimum distance d = 2*delta + 2:
    the floor of [n, k-delta]_q / [k, k-delta]_q, and 1 for d > 2k."""
    if d > 2 * k:
        return 1
    delta = (d - 2) // 2
    return gaussian_binomial(n, k - delta, q) // gaussian_binomial(k, k - delta, q)


def common_bound_4k(q, k):
    """The floor of (q^(4k) - 1)(q^(4k-1) - 1) / ((q^k - 1)(q^(k-1) - 1)), the
    bound's value at n = 4k, distance 2k - 2."""
    n = 4 * k
    return (q ** n - 1) * (q ** (n - 1) - 1) // ((q ** k - 1) * (q ** (k - 1) - 1))


def _exact_quotient(num, den):
    quotient, rest = divmod(num, den)
    assert rest == 0, (num, den)
    return quotient


def size_difference(q, k, r, parity):
    """Closed-form gap (ours minus best known) of one table row."""
    qk = q ** k - 1
    p0 = max_rep_index(r, parity)
    if parity == "odd":
        n = (2 * r + 1) * k
        s = sum(r // i - r // (i + 1) for i in range(2, p0 + 1))
        return s * qk ** r * (q ** n - 1)
    n = 2 * r * k
    s = sum(-(-r // i) - r // (i + 1) - 1 for i in range(2, p0 + 1))
    num = (s * qk * (q - 1) + (r - 1)) * qk ** (r - 2) * ((q ** k - 2) // 2) * (q ** n - 1)
    return _exact_quotient(num, q - 1)


def size_difference_5k(q, k):
    """Closed-form gap (ours minus the n = 5k construction) at r = 2, n = 5k."""
    n = 5 * k
    qk = q ** k - 1
    return _exact_quotient((qk * (3 * q - 6) + 1) * qk * (q ** n - 1), q - 1)


def find_splitting_N(p, a, coeff_degree, coeffs, max_multiple):
    """Smallest N = coeff_degree * t (t <= max_multiple) such that the kernel
    over GF(q^N) has full dimension equal to the q-degree, or None.

    ``coeffs`` uses encodings of the degree-``coeff_degree`` coefficient
    field, which transfer unchanged into every hosting tower.
    """
    want = max(int(e) for e, c in coeffs.items() if int(c) != 0)
    for t in range(1, max_multiple + 1):
        tw = build_tower(p, a, coeff_degree, t)
        if lp.kernel_subspace(lp.linpoly(tw, coeffs)).dim == want:
            return coeff_degree * t
    return None


def rank_scan(generators):
    """(distance, collisions) of the union of the generators' orbits, by one
    rank per pair i <= j and per projective shift."""
    tower = generators[0].tower
    k = generators[0].dim
    mul = tower.top.mul
    alphas = list(tower.projective_reps("top"))
    best = 2 * k
    collisions = []
    for i in range(len(generators)):
        for j in range(i, len(generators)):
            rows_i = list(generators[i].rows)
            rows_j = generators[j].rows
            collision = False
            for alpha in alphas:
                inter = 2 * k - rank_rows(tower, rows_i + [mul(alpha, r) for r in rows_j])
                if inter == k:
                    collision = collision or i != j
                    continue
                best = min(best, 2 * k - 2 * inter)
            if collision:
                collisions.append((i, j))
    return best, collisions


def admissible_alphas(tower, k, s):
    """All nonzero alpha outside the subfields GF(q^(k-s-1)) and GF(q^k)
    intersected with the working field, ascending."""
    top = tower.top
    e1, e2 = tower.q ** gcd(k - s - 1, tower.m), tower.q ** gcd(k, tower.m)
    return [a for a in range(1, top.order) if top.pow(a, e1) != a and top.pow(a, e2) != a]


def rank_verdict_by_full_scan(polys, s):
    """(rank_ok, rank_witness) of the rank-matrix condition, by one rank per
    admissible alpha (ascending) and per ordered pair; the witness
    (i, j, alpha, rank) is the first matrix below full column rank."""
    tower = polys[0].tower
    top = tower.top
    q = tower.q
    k = polys[0].q_degree
    want = k - s + 1
    gammas = [[P.coeff(t) for t in range(s + 2)] for P in polys]
    exps = [q ** k - q ** t for t in range(s + 2)]
    last_cols = [[P.coeff(k - rho) for rho in range(k + 1)] for P in polys]
    for alpha in admissible_alphas(tower, k, s):
        apow = [top.pow(alpha, e) for e in exps]
        for i in range(len(polys)):
            for j in range(len(polys)):
                r = [top.sub_(gammas[i][t], top.mul(gammas[j][t], apow[t])) for t in range(s + 2)]
                rank = lp.field_matrix_rank(top, lp._matrix_rows(top, q, k, s, r, last_cols[i]))
                if rank != want:
                    return False, (i, j, alpha, rank)
    return True, None


def cross_pair_ok(u, v):
    """Pairwise cross test: products a*b over (rep of U, rep of V) must be
    pairwise distinct as projective points over distinct class pairs.

    Equivalent to dim(U ∩ alpha*V) <= 1 for every nonzero alpha.
    """
    if u.rows == v.rows:
        raise ValueError("cross test needs distinct subspaces")
    tower = u.tower
    mul = tower.top.mul
    canon = tower.canon_projective
    seen = set()
    for a in u.projective_reps():
        for b in v.projective_reps():
            p = canon(mul(a, b))
            if p in seen:
                return False
            seen.add(p)
    return True


def sidon_by_products(u):
    """Sidon test by brute force: products of projective representatives
    must be pairwise distinct as projective points (unordered pairs)."""
    tower = u.tower
    mul = tower.top.mul
    canon = tower.canon_projective
    reps = u.projective_reps()
    seen = set()
    for i, a in enumerate(reps):
        for b in reps[i:]:
            p = canon(mul(a, b))
            if p in seen:
                return False
            seen.add(p)
    return True


def gcd_scan(polys):
    """(distance, collisions) of the union of the kernel orbits of subspace
    polynomials, by one gcd per pair i <= j and per projective shift."""
    tower = polys[0].tower
    k = polys[0].q_degree
    best = 2 * k
    collisions = []
    for i in range(len(polys)):
        for j in range(i, len(polys)):
            collision = False
            for alpha in tower.projective_reps("top"):
                dim = intersection_dim_via_gcd(polys[i], lp.shift_transform(polys[j], alpha))
                if dim == k:
                    collision = collision or i != j
                    continue
                best = min(best, 2 * k - 2 * dim)
            if collision:
                collisions.append((i, j))
    return best, collisions


def field_matrix_rank_division_free(top, rows):
    """Rank by elimination with cross-multiplication only."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        p = work[row][col]
        for i in range(len(work)):
            if i != row and work[i][col]:
                c = work[i][col]
                work[i] = [
                    top.sub_(top.mul(p, x), top.mul(c, y))
                    for x, y in zip(work[i], work[row])
                ]
        rank += 1
        row += 1
        if row == len(work):
            break
    return rank


def scalar_mul(tower, c, x):
    """c * x for a GF(q) scalar c and a top element x, one GF(q^k)-coordinate
    of x at a time, each multiplied by c in the middle level: the package
    multiplies in the top level, since encodings embed."""
    mo, mmul = tower.mid.order, tower.mid.mul
    enc, mult = 0, 1
    while x:
        x, d = divmod(x, mo)
        enc += mmul(c, d) * mult
        mult *= mo
    return enc


def span_by_enumeration(tower, rows):
    """The set of all GF(q)-combinations of the rows (q^len(rows) of them)."""
    top = tower.top
    combos = {0}
    for row in rows:
        combos = {top.add(x, scalar_mul(tower, c, row)) for x in combos for c in range(tower.q)}
    return combos


def _first_nonzero(digits):
    return next(j for j, d in enumerate(digits) if d)


def rref_by_enumeration(tower, rows):
    """The RREF of the span, read off its elements: the pivots are the
    positions of first nonzero coordinates, and the row at pivot p is the one
    element with first nonzero coordinate 1 at p and 0 at every other pivot."""
    elements = {x: tower.flatten(x) for x in span_by_enumeration(tower, rows) if x}
    pivots = sorted({_first_nonzero(d) for d in elements.values()})
    return tuple(
        next(
            x for x, d in elements.items()
            if _first_nonzero(d) == p and d[p] == 1 and all(d[o] == 0 for o in pivots if o != p)
        )
        for p in pivots
    )


def kernel_by_enumeration(tower, image_of_basis):
    """{x : sum_j x_j image_of_basis[j] = 0}, by evaluating the map on every
    one of the q^m coordinate vectors x."""
    top = tower.top
    pairs = [(0, 0)]  # (x, image of x)
    for j, img in enumerate(image_of_basis):
        unit = tower.q ** j
        pairs = [
            (top.add(x, scalar_mul(tower, c, unit)), top.add(y, scalar_mul(tower, c, img)))
            for x, y in pairs
            for c in range(tower.q)
        ]
    return {x for x, y in pairs if y == 0}


def avoiding_greedy(o1, forbidden, target):
    """The first ``target`` residues i mod o1, ascending, each kept unless
    2i or i plus an earlier kept residue is ``forbidden`` mod o1."""
    chosen = []
    for i in range(o1):
        if len(chosen) == target:
            break
        if (2 * i) % o1 == forbidden:
            continue
        if any((i + j) % o1 == forbidden for j in chosen):
            continue
        chosen.append(i)
    return chosen


def digits_by_divmod(x, base, n):
    """The n lowest base-``base`` digits of x, least significant first, one
    ``divmod`` each."""
    out = []
    for _ in range(n):
        x, r = divmod(x, base)
        out.append(r)
    return out


def schoolbook_mul(F, a, b):
    """a * b in the extension level F: the product of the digit vectors over
    F.sub, then each coefficient of x^i, i >= d, folded down by
    x^d = sum(F._red[j] * x^j), from the top degree down."""
    sub, d = F.sub, F.degree
    av, bv = digits_by_divmod(a, sub.order, d), digits_by_divmod(b, sub.order, d)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(av):
        for j, bj in enumerate(bv):
            prod[i + j] = sub.add(prod[i + j], sub.mul(ai, bj))
    for i in range(2 * d - 2, d - 1, -1):
        for j, rj in enumerate(F._red):
            prod[i - d + j] = sub.add(prod[i - d + j], sub.mul(prod[i], rj))
    return int_from_digits(prod[:d], sub.order)


def projective_reps_by_digits(tower, level):
    """The nonzero elements of the level whose first nonzero GF(q)-coordinate
    is 1, ascending."""
    reps = []
    for enc in range(1, tower.field(level).order):
        y = enc
        while y:
            y, d = divmod(y, tower.q)
            if d:
                break
        if d == 1:
            reps.append(enc)
    return reps


def irreducible_by_rabin(F, poly):
    """Rabin irreducibility test for a monic polynomial over F."""
    d = len(poly) - 1
    if d < 1:
        return False
    if poly[0] == 0:
        return d == 1  # divisible by x
    if d == 1:
        return True
    Q = F.order
    x = [0, 1]
    # x^(Q^d) == x (mod poly)
    if _pmod(F, _psub(F, _ppowmod(F, x, Q ** d, poly), x), poly):
        return False
    for prime in factorize(d):
        h = _psub(F, _ppowmod(F, x, Q ** (d // prime), poly), x)
        g = poly_gcd(F, poly, h)
        if len(g) != 1:
            return False
    return True
