"""GF(q)-linear algebra on subspaces of GF(q^m).

A subspace is stored as the reduced row-echelon basis of its GF(q)-coordinate
matrix, with each basis row kept in packed form: the row *is* the integer
encoding of the corresponding field element (the packed base-q digits are the
flattened coordinates).  RREF makes equality of subspaces equality of row
tuples.  Pivots are taken at the first (lowest-index) nonzero coordinate.

Row operations over GF(2) run directly on the packed integers with XOR;
other characteristics unpack to digit lists and use the GF(q)-level tables.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    AmbientMismatch,
    BrokenInvariant,
    DimensionMismatch,
    EmptyInput,
    Infeasible,
    ZeroShift,
)
from .field_tower import FieldElement, FieldTower


# -- packed-row reduction over GF(2) -----------------------------------------

def _rref_q2(rows: Iterable[int]) -> tuple[int, ...]:
    piv: list[tuple[int, int]] = []  # (pivot bit, fully reduced row)
    for v in rows:
        for pb, pr in piv:
            if v & pb:
                v ^= pr
        if v:
            pb = v & -v
            piv = [(b, r ^ v if r & pb else r) for b, r in piv]
            piv.append((pb, v))
    piv.sort()
    return tuple(r for _, r in piv)


def _rank_q2(rows: Iterable[int]) -> int:
    piv: dict[int, int] = {}
    rank = 0
    for v in rows:
        while v:
            low = v & -v
            w = piv.get(low)
            if w is None:
                piv[low] = v
                rank += 1
                break
            v ^= w
    return rank


# -- digit-row reduction over general GF(q) ----------------------------------

def _rref_gen(tower: FieldTower, rows: Iterable[int]) -> tuple[int, ...]:
    qf = tower.q_level
    m = tower.m
    piv: list[tuple[int, list[int]]] = []
    for enc in rows:
        v = list(tower.flatten(enc))
        for pc, pr in piv:
            c = v[pc]
            if c:
                v = [qf.sub_(x, qf.mul(c, y)) for x, y in zip(v, pr)]
        pc = next((j for j in range(m) if v[j]), None)
        if pc is None:
            continue
        inv = qf.inv(v[pc])
        if inv != 1:
            v = [qf.mul(inv, x) for x in v]
        new_piv = []
        for p2, pr in piv:
            c = pr[pc]
            if c:
                pr = [qf.sub_(x, qf.mul(c, y)) for x, y in zip(pr, v)]
            new_piv.append((p2, pr))
        new_piv.append((pc, v))
        piv = new_piv
    piv.sort(key=lambda it: it[0])
    return tuple(tower.unflatten(r) for _, r in piv)


def _rank_gen(tower: FieldTower, rows: Iterable[int]) -> int:
    qf = tower.q_level
    m = tower.m
    piv: list[tuple[int, list[int]]] = []  # (pivot col, row normalized to pivot 1)
    for enc in rows:
        v = list(tower.flatten(enc))
        for pc, pr in piv:
            c = v[pc]
            if c:
                v = [qf.sub_(x, qf.mul(c, y)) for x, y in zip(v, pr)]
        pc = next((j for j in range(m) if v[j]), None)
        if pc is None:
            continue
        inv = qf.inv(v[pc])
        if inv != 1:
            v = [qf.mul(inv, x) for x in v]
        piv.append((pc, v))
    return len(piv)


def rref_rows(tower: FieldTower, rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical RREF of the GF(q)-span of the given element encodings."""
    if tower.q == 2:
        return _rref_q2(rows)
    return _rref_gen(tower, rows)


def rank_rows(tower: FieldTower, rows: Iterable[int]) -> int:
    if tower.q == 2:
        return _rank_q2(rows)
    return _rank_gen(tower, rows)


# -- subspace type -------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A GF(q)-subspace of GF(q^m), held as its canonical RREF basis."""

    tower: FieldTower = field(repr=False)
    rows: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ambient_dim(self) -> int:
        return self.tower.m

    def contains(self, enc: int) -> bool:
        return rank_rows(self.tower, self.rows + (enc,)) == self.dim

    def elements(self) -> Iterator[int]:
        """All q^dim elements (small dimensions only)."""
        q = self.tower.q
        top = self.tower.top
        combos = [0]
        for row in self.rows:
            scaled = [self.tower.scalar_mul(c, row) for c in range(q)]
            combos = [top.add(base, s) for base in combos for s in scaled]
        return iter(combos)

    def projective_reps(self) -> list[int]:
        """(q^dim - 1)/(q - 1) representatives, one per GF(q)*-class."""
        q = self.tower.q
        top = self.tower.top
        reps: list[int] = []
        # coefficient vectors whose first nonzero entry is 1 pick one
        # representative per projective point
        def rec(idx: int, acc: int, started: bool):
            if idx == self.dim:
                if started:
                    reps.append(acc)
                return
            row = self.rows[idx]
            if not started:
                rec(idx + 1, acc, False)
                rec(idx + 1, top.add(acc, row), True)
            else:
                for c in range(q):
                    rec(idx + 1, top.add(acc, self.tower.scalar_mul(c, row)), True)

        rec(0, 0, False)
        return reps

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "basis": [list(self.tower.flatten(r)) for r in self.rows],
        }


def subspace_from_json(tower: FieldTower, obj: dict) -> Subspace:
    """Load a subspace, enforcing that the stored basis is the canonical RREF."""
    if obj["ambient_dim"] != tower.m:
        raise AmbientMismatch("ambient dimension does not match tower")
    rows = tuple(tower.unflatten(r) for r in obj["basis"])
    canon = rref_rows(tower, rows)
    if canon != rows:
        raise ValueError("basis is not in canonical reduced row-echelon form")
    if len(canon) != obj["dim"]:
        raise ValueError("stored dim disagrees with basis rank")
    return Subspace(tower, canon)


def span(tower: FieldTower, vectors: Iterable, min_dim: int = 0) -> Subspace:
    """Subspace spanned by the given elements (encodings or FieldElements)."""
    encs = [v.enc if isinstance(v, FieldElement) else int(v) for v in vectors]
    rows = rref_rows(tower, encs)
    if min_dim > 0 and not rows:
        raise EmptyInput("span is the zero space")
    return Subspace(tower, rows)


def _check_ambient(u: Subspace, v: Subspace):
    if u.tower != v.tower:
        raise AmbientMismatch("subspaces live in different towers")


def intersection_dim(u: Subspace, v: Subspace) -> int:
    """dim(U ∩ V) = dim U + dim V - rank of the stacked bases."""
    _check_ambient(u, v)
    return u.dim + v.dim - rank_rows(u.tower, u.rows + v.rows)


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """The subspace metric dim U + dim V - 2 dim(U ∩ V)."""
    _check_ambient(u, v)
    return 2 * rank_rows(u.tower, u.rows + v.rows) - u.dim - v.dim


def cyclic_shift(u: Subspace, alpha) -> Subspace:
    """The shifted subspace alpha*U = {alpha*x : x in U}."""
    enc = alpha.enc if isinstance(alpha, FieldElement) else int(alpha)
    if enc == 0:
        raise ZeroShift("shift by zero")
    mul = u.tower.top.mul
    return Subspace(u.tower, rref_rows(u.tower, [mul(enc, r) for r in u.rows]))


def shifted_intersection_dim(u: Subspace, v: Subspace, alpha: int) -> int:
    """dim(U ∩ alpha*V) without materializing the shifted subspace."""
    mul = u.tower.top.mul
    shifted = [mul(alpha, r) for r in v.rows]
    return u.dim + v.dim - rank_rows(u.tower, list(u.rows) + shifted)


# -- every shift at once: projective log differences ----------------------------
#
# With g the top field's first primitive element and N = (q^m - 1)/(q - 1),
# g^N generates GF(q)*, so log p mod N names the projective point of p, and
# the point pairs (u, v) of U x V with log u - log v = c (mod N) are one per
# point of U ∩ g^c V.

def _projective_logs(u: Subspace) -> list[int]:
    n = (u.tower.top.order - 1) // (u.tower.q - 1)
    return [u.tower.top.discrete_log(p) % n for p in u.projective_reps()]


def _shift_dims(tower: FieldTower, lu: list[int], lv: list[int], k: int) -> dict[int, int]:
    q = tower.q
    n = (tower.top.order - 1) // (q - 1)
    dim_of = {(q ** d - 1) // (q - 1): d for d in range(1, k + 1)}
    hist = Counter((a - b) % n for a in lu for b in lv)
    if not all(h in dim_of for h in hist.values()):
        raise BrokenInvariant(f"log-difference counts {sorted(hist.values())} for q={q}")
    return {c: dim_of[h] for c, h in hist.items()}


def shift_intersection_dims(u: Subspace, v: Subspace) -> dict[int, int]:
    """dim(U ∩ g^c V) for every residue c mod N at which it is nonzero,
    from one histogram of the projective log differences of U and V."""
    _check_ambient(u, v)
    return _shift_dims(u.tower, _projective_logs(u), _projective_logs(v), min(u.dim, v.dim))


def union_distance(
    generators: Sequence[Subspace], budget: int
) -> tuple[int, list[tuple[int, int]], int]:
    """Minimum distance of the union of the generators' cyclic orbits, its
    orbit collisions (i < j with U_i = alpha*U_j), and the number of log
    differences examined, which must not exceed ``budget``.

    One histogram per pair i <= j gives dim(U_i ∩ alpha*U_j) at every shift
    alpha.  A full intersection is a collision for i < j and a stabilizer
    element for i = j; any other shift gives distance 2k - 2 dim.
    """
    tower = generators[0].tower
    k = generators[0].dim
    if any(g.dim != k for g in generators):
        raise DimensionMismatch("generators of mixed dimension")
    if k == 0:
        raise EmptyInput("generators span only {0}")
    points = (tower.q ** k - 1) // (tower.q - 1)
    pairs = len(generators) * (len(generators) + 1) // 2
    differences = pairs * points * points
    if differences > budget:
        raise Infeasible(f"{pairs} pairs x {points}^2 log differences exceeds budget {budget}")
    logs = [_projective_logs(g) for g in generators]
    best = 2 * k
    collisions = []
    for i, j in itertools.combinations_with_replacement(range(len(generators)), 2):
        dims = _shift_dims(tower, logs[i], logs[j], k).values()
        if i < j and k in dims:
            collisions.append((i, j))
        best = min(best, 2 * k - 2 * max((d for d in dims if d < k), default=0))
    return best, collisions, differences


# -- subfields and orbit sizes --------------------------------------------------

def _nullspace_q2(eq_rows: list[int], ncols: int) -> list[int]:
    piv: list[tuple[int, int]] = []
    for v in eq_rows:
        for pb, pr in piv:
            if v & pb:
                v ^= pr
        if v:
            pb = v & -v
            piv = [(b, r ^ v if r & pb else r) for b, r in piv]
            piv.append((pb, v))
    pivot_cols = {pb.bit_length() - 1 for pb, _ in piv}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = 1 << f
        for pb, pr in piv:
            if pr & (1 << f):
                x |= pb
        basis.append(x)
    return basis


def _nullspace_gen(tower: FieldTower, eq_rows: list[list[int]]) -> list[list[int]]:
    qf = tower.q_level
    ncols = len(eq_rows[0]) if eq_rows else 0
    piv: list[tuple[int, list[int]]] = []
    for v in eq_rows:
        v = list(v)
        for pc, pr in piv:
            c = v[pc]
            if c:
                v = [qf.sub_(x, qf.mul(c, y)) for x, y in zip(v, pr)]
        pc = next((j for j in range(ncols) if v[j]), None)
        if pc is None:
            continue
        inv = qf.inv(v[pc])
        if inv != 1:
            v = [qf.mul(inv, x) for x in v]
        piv = [
            (p2, [qf.sub_(x, qf.mul(pr[pc], y)) for x, y in zip(pr, v)] if pr[pc] else pr)
            for p2, pr in piv
        ]
        piv.append((pc, v))
    pivot_cols = {pc for pc, _ in piv}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = [0] * ncols
        x[f] = 1
        for pc, pr in piv:
            x[pc] = qf.neg(pr[f])
        basis.append(x)
    return basis


def map_kernel(tower: FieldTower, image_of_basis: list[int]) -> Subspace:
    """Kernel of the GF(q)-linear map sending the j-th flattened basis vector
    of GF(q^m) to image_of_basis[j]."""
    m = tower.m
    if tower.q == 2:
        eqs = []
        for i in range(m):
            row = 0
            for j, img in enumerate(image_of_basis):
                if (img >> i) & 1:
                    row |= 1 << j
            eqs.append(row)
        sols = _nullspace_q2(eqs, m)
        return Subspace(tower, rref_rows(tower, sols))
    cols = [tower.flatten(img) for img in image_of_basis]
    eqs = [[cols[j][i] for j in range(m)] for i in range(m)]
    sols = _nullspace_gen(tower, eqs)
    return Subspace(tower, rref_rows(tower, [tower.unflatten(x) for x in sols]))


def subfield_basis(tower: FieldTower, d: int) -> tuple[int, ...]:
    """GF(q)-basis of the subfield GF(q^d) inside GF(q^m), for d | m.

    Computed as the fixed space of the d-fold q-power map.
    """
    cache = getattr(tower, "_subfield_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(tower, "_subfield_cache", cache)
    if d in cache:
        return cache[d]
    q = tower.q
    top = tower.top
    e = q ** d
    m = tower.m
    images = []
    for j in range(m):
        b = tower.unflatten([1 if i == j else 0 for i in range(m)])
        images.append(top.sub_(top.pow(b, e), b))
    ker = map_kernel(tower, images)
    cache[d] = ker.rows
    return ker.rows


def linearity_field(u: Subspace) -> int:
    """Largest d with U linear over the subfield GF(q^d) of GF(q^m).

    U must be closed under multiplication by a GF(q)-basis of GF(q^d); d has
    to divide both dim U and m.
    """
    if u.dim == 0:
        return u.tower.m
    import math

    g = math.gcd(u.dim, u.tower.m)
    mul = u.tower.top.mul
    for d in sorted((d for d in range(2, g + 1) if g % d == 0), reverse=True):
        basis = subfield_basis(u.tower, d)
        closed = all(
            u.contains(mul(b, r)) for b in basis for r in u.rows
        )
        if closed:
            return d
    return 1


def orbit_size(u: Subspace) -> int:
    """(q^m - 1)/(q^d - 1) with d the linearity field degree."""
    q, m = u.tower.q, u.tower.m
    d = linearity_field(u)
    num = q ** m - 1
    den = q ** d - 1
    if num % den:
        raise BrokenInvariant(f"linearity degree {d} does not divide m = {m}")
    return num // den


def enumerate_orbit(u: Subspace, cap: int | None = None) -> list[Subspace]:
    """All distinct cyclic shifts of U, by direct scan over projective
    representatives of the ambient unit group."""
    mul = u.tower.top.mul
    seen: dict[tuple[int, ...], None] = {}
    for alpha in u.tower.projective_reps("top"):
        rows = rref_rows(u.tower, [mul(alpha, r) for r in u.rows])
        if rows not in seen:
            seen[rows] = None
            if cap is not None and len(seen) > cap:
                raise ValueError(f"orbit larger than cap {cap}")
    return [Subspace(u.tower, rows) for rows in seen]
