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
"""

from cyclic_cdc import linearized_poly as lp
from cyclic_cdc.subspace_linalg import rank_rows


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
                dim = lp.intersection_dim_via_gcd(polys[i], lp.shift_transform(polys[j], alpha))
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
