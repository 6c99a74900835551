"""Independent routes to the quantities the package computes one way, kept
as differential oracles for the tests.

``rank_scan`` and ``gcd_scan`` find the minimum distance and the orbit
collisions of a union by brute force: one intersection dimension per
generator pair and per projective shift, from a rank of stacked bases or
from the degree of an ordinary-polynomial gcd.  ``cross_pair_ok`` is the
paper's cross-product test of one generator pair, the pairwise half of its
certificate.  ``field_matrix_rank_division_free`` ranks a matrix over a field
without inverses.

``span_by_enumeration``, ``rref_by_enumeration`` and ``kernel_by_enumeration``
list every vector of a span, or every vector of GF(q)^m, instead of
eliminating: they check the package's elimination kernels at small sizes.

``shifted_intersection_dim`` is dim(U ∩ alpha*V) from one rank, and
``shift_intersection_dims`` reads it at every shift from the package's own
log-difference histogram.  ``subspace_polynomial``, ``intersection_dim_via_gcd``
and ``find_splitting_N`` are the paper's polynomial view of a subspace: its
annihilating q-polynomial, the gcd step of ``gcd_scan``, and the smallest
field that splits a q-polynomial.  ``element_order`` is the multiplicative
order by factoring the group order.  ``common_bound_4k`` is the paper's
closed form of the value that the sphere-packing and Johnson bounds share at
n = 4k.
"""

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.field_tower import build_tower, factorize
from cyclic_cdc.subspace_linalg import rank_rows


def shifted_intersection_dim(u, v, alpha):
    """dim(U ∩ alpha*V) = dim U + dim V - rank of U's rows stacked on alpha*V's."""
    mul = u.tower.top.mul
    return u.dim + v.dim - rank_rows(u.tower, list(u.rows) + [mul(alpha, r) for r in v.rows])


def shift_intersection_dims(u, v):
    """{c: dim(U ∩ g^c V)} for every residue c mod (q^m - 1)/(q - 1) at which
    it is nonzero, g the top field's primitive element."""
    logs_u, logs_v = sl._projective_logs(u), sl._projective_logs(v)
    return sl._shift_dims(u.tower, logs_u, logs_v, min(u.dim, v.dim))


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


def common_bound_4k(q, k):
    """The floor of (q^(4k) - 1)(q^(4k-1) - 1) / ((q^k - 1)(q^(k-1) - 1)), the
    value of both bounds at n = 4k, distance 2k - 2."""
    n = 4 * k
    return (q ** n - 1) * (q ** (n - 1) - 1) // ((q ** k - 1) * (q ** (k - 1) - 1))


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


def span_by_enumeration(tower, rows):
    """The set of all GF(q)-combinations of the rows (q^len(rows) of them)."""
    top = tower.top
    combos = {0}
    for row in rows:
        combos = {top.add(x, tower.scalar_mul(c, row)) for x in combos for c in range(tower.q)}
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
            (top.add(x, tower.scalar_mul(c, unit)), top.add(y, tower.scalar_mul(c, img)))
            for x, y in pairs
            for c in range(tower.q)
        ]
    return {x for x, y in pairs if y == 0}
