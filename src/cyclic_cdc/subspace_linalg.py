"""GF(q)-linear algebra on subspaces of GF(q^m).

A subspace is stored as the reduced row-echelon basis of its GF(q)-coordinate
matrix, with each basis row kept in packed form: the row *is* the integer
encoding of the corresponding field element (the packed base-q digits are the
flattened coordinates).  RREF makes equality of subspaces equality of row
tuples.  Pivots are taken at the first (lowest-index) nonzero coordinate.
The RREF is unique, so a loaded basis is checked on its digits alone.

All elimination goes through two forward-only kernels, which return a
{pivot: row} echelon of the span of their input rows:

- ``_echelon_q2`` works over GF(2) directly on the packed integers, with XOR,
  and pivots at the lowest set bit;
- ``_echelon`` works on digit lists over any field: over GF(q) on unpacked
  coordinates, and over GF(q^m) for ``field_matrix_rank``, the rank of the
  rank-matrix criterion of ``linearized_poly``.  Its row operations index the
  field's dense add, mul and inverse tables when the field has them (order
  <= 2^8, so every GF(q) level), and call the field's arithmetic otherwise.

A rank is the size of the echelon.  The RREF back-substitutes it in
descending pivot order.  A map's kernel is read off the echelon of the
augmented rows (image of e_j | e_j).

Intersections with every cyclic shift at once come from point ratios, with
no discrete logs: ``shift_dims`` counts canon(a * b^-1) over two subspaces'
points, and only the generator pairs that ``shared_pairs`` returns need it.
The shifts that fix a generator are its self pair's full-dimension classes,
so the same histograms size every orbit.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    AmbientMismatch,
    BadShape,
    BrokenInvariant,
    DimensionMismatch,
    Infeasible,
    InvalidParams,
    ZeroShift,
)
from .field_tower import FieldTower, batch_inverse, json_field

# the default cap on shared_pairs' point ratios and construct_code's family
DEFAULT_SCAN_BUDGET = 1 << 26


# -- the two elimination kernels ------------------------------------------------

def _echelon_q2(rows: Iterable[int]) -> dict[int, int]:
    """{lowest set bit: row} of a forward echelon basis of the GF(2)-span of
    packed rows: each row's pivot is its lowest set bit, and no two rows
    share a pivot."""
    piv: dict[int, int] = {}
    for v in rows:
        while v:
            low = v & -v
            w = piv.get(low)
            if w is None:
                piv[low] = v
                break
            v ^= w
    return piv


def _echelon(F, rows: Iterable[Sequence[int]]) -> dict[int, Sequence[int]]:
    """{pivot column: row scaled to pivot 1} of a forward echelon basis of the
    span of digit-list rows over the field F.  A row's pivot is its first
    nonzero entry, and the row is zero in the pivot columns of the rows
    inserted before it.  With F's dense tables, rows are negated and scaled
    by table rows (mt[-1] negates), with no call per digit."""
    at, mt = F._add_table, F._mul_table
    sub, mul = F.sub_, F.mul
    neg, inv = (mt[F.char - 1], F._inv_table) if mt is not None else (None, None)
    piv: dict[int, Sequence[int]] = {}
    for v in rows:
        for pc, pr in piv.items():
            c = v[pc]
            if c and mt is not None:
                row = mt[neg[c]]
                v = [at[x][row[y]] for x, y in zip(v, pr)]
            elif c:
                v = [sub(x, mul(c, y)) for x, y in zip(v, pr)]
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is not None:
            c = v[pc]
            if c != 1 and mt is not None:
                row = mt[inv[c]]
                v = [row[x] for x in v]
            elif c != 1:
                c = F.inv(c)
                v = [mul(c, x) for x in v]
            piv[pc] = v
    return piv


def rank_rows(tower: FieldTower, rows: Iterable[int]) -> int:
    if tower.q == 2:
        return len(_echelon_q2(rows))
    return len(_echelon(tower.q_level, map(tower.flatten, rows)))


def rref_rows(tower: FieldTower, rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical RREF of the GF(q)-span of the given element encodings: the
    forward echelon, back-substituted in descending pivot order (for q > 2,
    a second echelon of its rows in that order)."""
    if tower.q == 2:
        done: list[int] = []  # fully reduced rows, descending pivots r & -r
        piv = _echelon_q2(rows)
        for b in sorted(piv, reverse=True):
            v = piv[b]
            for r in done:
                if v & r & -r:
                    v ^= r
            done.append(v)
        done.reverse()
        return tuple(done)
    piv = _echelon(tower.q_level, map(tower.flatten, rows))
    piv = _echelon(tower.q_level, [piv[pc] for pc in sorted(piv, reverse=True)])
    return tuple(tower.unflatten(piv[pc]) for pc in sorted(piv))


def field_matrix_rank(F, rows: Iterable[Sequence[int]]) -> int:
    """Rank of a matrix over the field F, given as rows of element encodings."""
    return len(_echelon(F, rows))


# -- subspace type -------------------------------------------------------------

class Subspace(NamedTuple):
    """A GF(q)-subspace of GF(q^m), held as its canonical RREF basis."""

    tower: FieldTower
    rows: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ambient_dim(self) -> int:
        return self.tower.m

    def projective_reps(self) -> list[int]:
        """(q^dim - 1)/(q - 1) representatives, one per GF(q)*-class: for
        each leading row, that row plus every combination of the later rows."""
        add, mul, q = self.tower.top.add, self.tower.top.mul, self.tower.q
        reps: list[int] = []
        for i in reversed(range(self.dim)):
            points = [self.rows[i]]
            for row in self.rows[i + 1:]:
                multiples = [mul(c, row) for c in range(q)]
                points = [add(p, m) for p in points for m in multiples]
            reps.extend(points)
        return reps

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "basis": [list(self.tower.flatten(r)) for r in self.rows],
        }


def subspace_from_json(tower: FieldTower, obj: dict) -> Subspace:
    """Load a subspace, enforcing that each basis row has m integer digits
    in range(q) and that the stored basis is the canonical RREF: each row's
    first nonzero digit is 1, beyond the row above's, and the only nonzero
    digit of its column (exactly the rows that ``rref_rows`` gives back)."""
    if json_field(obj, "ambient_dim") != tower.m:
        raise AmbientMismatch("ambient dimension does not match tower")
    basis = json_field(obj, "basis", list)
    for r in basis:
        if not (type(r) is list and len(r) == tower.m and set(map(type, r)) <= {int}
                and min(r) >= 0 and max(r) < tower.q):
            raise BadShape(f"basis row {r} is not {tower.m} digits in range({tower.q})")
    last = -1
    for r in basis:
        pc = r.index(1) if 1 in r else -1
        if pc <= last or any(r[:pc]) or sum(s[pc] for s in basis) != 1:
            raise BadShape("basis is not in canonical reduced row-echelon form")
        last = pc
    if len(basis) != json_field(obj, "dim"):
        raise BadShape("stored dim disagrees with basis rank")
    return Subspace(tower, tuple(map(tower.unflatten, basis)))


def span(tower: FieldTower, vectors: Iterable) -> Subspace:
    """Subspace spanned by the given element encodings."""
    return Subspace(tower, rref_rows(tower, vectors))


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """The subspace metric dim U + dim V - 2 dim(U ∩ V)."""
    if u.tower != v.tower:
        raise AmbientMismatch("subspaces live in different towers")
    return 2 * rank_rows(u.tower, u.rows + v.rows) - u.dim - v.dim


def cyclic_shift(u: Subspace, alpha: int) -> Subspace:
    """The shifted subspace alpha*U = {alpha*x : x in U}."""
    if alpha == 0:
        raise ZeroShift("shift by zero")
    mul = u.tower.top.mul
    return Subspace(u.tower, rref_rows(u.tower, [mul(alpha, r) for r in u.rows]))


# -- every shift at once: point ratios ------------------------------------------

def shift_dims(u: Subspace, v: Subspace, inv_v: Sequence[int]) -> dict[int, int]:
    """{canon(alpha): dim(U ∩ alpha*V)} at every shift alpha where it is
    nonzero, given the inverses ``inv_v`` of V's points: a of U and b of V
    lie together in U ∩ alpha*V exactly when alpha ≡ a/b modulo GF(q)*."""
    q, mul, canon = u.tower.q, u.tower.top.mul, u.tower.canon_projective
    dim_of = {(q ** d - 1) // (q - 1): d for d in range(1, min(u.dim, v.dim) + 1)}
    hist = Counter(canon(mul(a, b)) for a in u.projective_reps() for b in inv_v)
    if not all(h in dim_of for h in hist.values()):
        raise BrokenInvariant(f"point-ratio counts {sorted(hist.values())} for q={q}")
    return {alpha: dim_of[h] for alpha, h in hist.items()}


def common_dim(generators: Sequence[Subspace]) -> int:
    """The dimension k >= 1 every generator shares; DimensionMismatch if there
    are none, they differ, or they span only {0}."""
    if not generators:
        raise DimensionMismatch("no generators")
    k = generators[0].dim
    if any(g.dim != k for g in generators):
        raise DimensionMismatch("generators of mixed dimension")
    if k == 0:
        raise DimensionMismatch("generators of dimension 0")
    return k


def shared_pairs(
    generators: Sequence[Subspace], budget: int
) -> tuple[list[tuple[int, int]], list[list[int]], int]:
    """The sorted pairs i <= j of generators that share an internal point
    ratio canon(c * a^-1), a != c (a self pair: one repeated inside U_i),
    each generator's point inverses and the number of internal ratios.  The
    ratios, and then the ratios plus P^2 per shared pair (P points each, one
    ``shift_dims``), must not exceed ``budget``.

    Points a, c of U_i and b, d of U_j lie together in U_i ∩ alpha*U_j
    exactly when c/a ≡ d/b.  So only a shared pair meets a shift in two
    points or more; any other pair meets its shifts in at most one point,
    and in one at some."""
    if budget < 0:
        raise InvalidParams(f"budget must be >= 0, got {budget}")
    k = common_dim(generators)
    n = len(generators)
    tower = generators[0].tower
    points = (tower.q ** k - 1) // (tower.q - 1)
    ratios = n * points * (points - 1)
    if ratios > budget:
        raise Infeasible(f"{ratios} point ratios exceeds budget {budget}")
    reps = [g.projective_reps() for g in generators]
    flat = batch_inverse(tower.top, [a for pts in reps for a in pts])
    inverses = [flat[i * points:(i + 1) * points] for i in range(n)]
    mul, canon = tower.top.mul, tower.canon_projective
    owner: dict[int, int] = {}
    repeats: dict[int, list[int]] = {}  # ratio -> every owner, ascending
    for i, pts in enumerate(reps):
        for a, inv_a in zip(pts, inverses[i]):
            for c in pts:
                if c != a:
                    key = canon(mul(c, inv_a))
                    if key in owner:
                        repeats.setdefault(key, [owner[key]]).append(i)
                    else:
                        owner[key] = i
    shared = sorted({pair for ids in repeats.values() for pair in itertools.combinations(ids, 2)})
    if ratios + len(shared) * points ** 2 > budget:
        raise Infeasible(f"{ratios} point ratios + {len(shared)} shared pairs x {points}^2 "
                         f"exceeds budget {budget}")
    return shared, inverses, ratios


class UnionScan(NamedTuple):
    """One ``union_distance`` scan: the union's minimum distance, its orbit
    collisions (i < j with U_i = alpha*U_j), the ratio count of
    ``shared_pairs``, (i, j, shift_dims(U_i, U_j)) for each shared pair, the
    point inverses of each generator, which ``shared_pairs`` formed, and the
    orbit size of each generator."""

    distance: int
    collisions: list[tuple[int, int]]
    point_ratios: int
    shared_pairs: list[tuple[int, int, dict[int, int]]]
    inverses: list[list[int]]
    orbit_sizes: list[int]

    @property
    def distinct(self) -> list[int]:
        """The generators of the union's distinct orbits, ascending: j of a
        collision (i, j) repeats the orbit of i and is dropped."""
        return sorted(set(range(len(self.inverses))) - {j for _, j in self.collisions})

    @property
    def size(self) -> int:
        """The union's exact size: each ``distinct`` orbit counted once."""
        return sum(self.orbit_sizes[j] for j in self.distinct)

    def counters(self, budget: int) -> dict:
        """The scan's work for a manifest, and the budget it ran under."""
        n = len(self.inverses)
        return {"pairs": n * (n + 1) // 2, "point_ratios": self.point_ratios,
                "shared_pairs": len(self.shared_pairs), "budget": budget}


def union_distance(generators: Sequence[Subspace], budget: int) -> UnionScan:
    """The ``UnionScan`` of the union of the generators' cyclic orbits: one
    ``shared_pairs`` scan, then one ``shift_dims`` histogram per shared pair
    (no other pair meets a shift in 2 dimensions).  A scan refused by the
    budget forms none of them.  U_i's orbit is (q^m - 1)/(q - 1) over the
    k-dimensional classes of its self pair, and full if that pair is not
    shared: a stabilizer above GF(q)* repeats U_i's ratios (w*a/a = w)."""
    pairs, inverses, ratios = shared_pairs(generators, budget)
    tower, k, n = generators[0].tower, generators[0].dim, len(generators)
    full = (tower.q ** tower.m - 1) // (tower.q - 1)
    sizes = [full] * n
    if k == 1:  # every two points are shifts of each other
        return UnionScan(2, list(itertools.combinations(range(n), 2)), 0, [], inverses, sizes)
    shared = [(i, j, shift_dims(generators[i], generators[j], inverses[j])) for i, j in pairs]
    best = 2 * k - 2 if len(shared) < n * (n + 1) // 2 else 2 * k
    for i, j, dims in shared:
        best = min(best, 2 * k - 2 * max((d for d in dims.values() if d < k), default=0))
        if i == j:
            sizes[i], rest = divmod(full, sum(d == k for d in dims.values()))
            if rest:
                raise BrokenInvariant(f"the shifts fixing generator {i} do not divide {full}")
    collisions = [(i, j) for i, j, dims in shared if i < j and k in dims.values()]
    return UnionScan(best, collisions, ratios, shared, inverses, sizes)


# -- map kernels ----------------------------------------------------------------

def map_kernel(tower: FieldTower, image_of_basis: list[int]) -> Subspace:
    """Kernel of the GF(q)-linear map sending the j-th flattened basis vector
    e_j of GF(q^m) to image_of_basis[j].

    The echelon of the rows (image_j | e_j), image block first, puts a pivot
    in the e-block exactly on the rows whose image part is zero; their
    e-parts are a basis of the kernel.
    """
    m, q = tower.m, tower.q
    rows = (tower.flatten(img) + tower.flatten(q ** j) for j, img in enumerate(image_of_basis))
    piv = _echelon(tower.q_level, rows)
    sols = [tower.unflatten(r[m:]) for pc, r in piv.items() if pc >= m]
    return Subspace(tower, rref_rows(tower, sols))


# -- orbit sizes ------------------------------------------------------------------

def orbit_size(u: Subspace) -> int:
    """(q^m - 1)/(q^d - 1), GF(q^d)* the stabilizer of U, from the
    ``union_distance`` scan of U alone: DimensionMismatch for U = {0}, and
    Infeasible when U's point ratios exceed DEFAULT_SCAN_BUDGET."""
    return union_distance([u], DEFAULT_SCAN_BUDGET).orbit_sizes[0]


def enumerate_orbit(u: Subspace) -> list[tuple[int, ...]]:
    """RREF rows of the distinct shifts g^i * U, 0 <= i < orbit_size(U), g
    the top field's primitive element (U's stabilizer GF(q^d)* is generated
    by g^orbit_size(U)): one RREF per row of the zipped columns r * g^i."""
    tower, n = u.tower, orbit_size(u)
    columns = [tower.top.geometric(r, n) for r in u.rows]
    return [rref_rows(tower, word) for word in zip(*columns)]
