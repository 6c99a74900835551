"""Independent routes to the quantities the package computes one way, kept
as differential oracles for the tests.

``rank_scan`` and ``gcd_scan`` find the minimum distance and the orbit
collisions of a union by brute force: one intersection dimension per
generator pair and per projective shift, from a rank of stacked bases or
from the degree of an ordinary-polynomial gcd.  ``field_matrix_rank_division_free``
ranks a matrix over a field without inverses.
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
