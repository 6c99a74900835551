"""GF(q)-linear algebra on subspaces of GF(q^m).

A subspace is stored as the reduced row-echelon basis of its GF(q)-coordinate
matrix, with each basis row kept in packed form: the row *is* the integer
encoding of the corresponding field element (the packed base-q digits are the
flattened coordinates).  RREF makes equality of subspaces equality of row
tuples.  Pivots are taken at the first (lowest-index) nonzero coordinate.

All elimination goes through two forward-only kernels, which return a
{pivot: row} echelon of the span of their input rows:

- ``_echelon_q2`` works over GF(2) directly on the packed integers, with XOR,
  and pivots at the lowest set bit;
- ``_echelon`` works on digit lists over any field: over GF(q) on unpacked
  coordinates, and over GF(q^m) for ``field_matrix_rank``, the rank of the
  rank-matrix criterion of ``linearized_poly``.

A rank is the size of the echelon.  The RREF back-substitutes it in
descending pivot order.  A map's kernel is read off the echelon of the
augmented rows (image of e_j | e_j).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatch,
    BrokenInvariant,
    DimensionMismatch,
    EmptyInput,
    Infeasible,
    ZeroShift,
)
from .field_tower import FieldTower


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
    inserted before it."""
    sub, mul = F.sub_, F.mul
    piv: dict[int, Sequence[int]] = {}
    for v in rows:
        for pc, pr in piv.items():
            c = v[pc]
            if c:
                v = [sub(x, mul(c, y)) for x, y in zip(v, pr)]
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is not None:
            c = v[pc]
            if c != 1:
                inv = F.inv(c)
                v = [mul(inv, x) for x in v]
            piv[pc] = v
    return piv


def rank_rows(tower: FieldTower, rows: Iterable[int]) -> int:
    if tower.q == 2:
        return len(_echelon_q2(rows))
    return len(_echelon(tower.q_level, map(tower.flatten, rows)))


def rref_rows(tower: FieldTower, rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical RREF of the GF(q)-span of the given element encodings: the
    forward echelon, back-substituted in descending pivot order."""
    done: list = []  # (pivot, fully reduced row), descending pivots
    if tower.q == 2:
        piv = _echelon_q2(rows)
        for b in sorted(piv, reverse=True):
            v = piv[b]
            for b2, r2 in done:
                if v & b2:
                    v ^= r2
            done.append((b, v))
        return tuple(v for _, v in reversed(done))
    sub, mul = tower.q_level.sub_, tower.q_level.mul
    piv = _echelon(tower.q_level, map(tower.flatten, rows))
    for pc in sorted(piv, reverse=True):
        v = piv[pc]
        for pc2, r2 in done:
            c = v[pc2]
            if c:
                v = [sub(x, mul(c, y)) for x, y in zip(v, r2)]
        done.append((pc, v))
    return tuple(tower.unflatten(v) for _, v in reversed(done))


def field_matrix_rank(F, rows: Iterable[Sequence[int]]) -> int:
    """Rank of a matrix over the field F, given as rows of element encodings."""
    return len(_echelon(F, rows))


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


# -- map kernels ----------------------------------------------------------------

def map_kernel(tower: FieldTower, image_of_basis: list[int]) -> Subspace:
    """Kernel of the GF(q)-linear map sending the j-th flattened basis vector
    e_j of GF(q^m) to image_of_basis[j].

    The echelon of the rows (image_j | e_j), image block first, puts a pivot
    in the e-block exactly on the rows whose image part is zero; their
    e-parts are a basis of the kernel.
    """
    m = tower.m
    if tower.q == 2:
        piv = _echelon_q2(img | 1 << (m + j) for j, img in enumerate(image_of_basis))
        sols = [r >> m for b, r in piv.items() if b >> m]
    else:
        q = tower.q
        rows = (tower.flatten(img) + tower.flatten(q ** j) for j, img in enumerate(image_of_basis))
        piv = _echelon(tower.q_level, rows)
        sols = [tower.unflatten(r[m:]) for pc, r in piv.items() if pc >= m]
    return Subspace(tower, rref_rows(tower, sols))


# -- subfields and orbit sizes --------------------------------------------------

@functools.lru_cache(maxsize=None)
def _subfield_generator(tower: FieldTower, d: int) -> int:
    """A primitive element w of the subfield GF(q^d) of GF(q^m), d | m: the
    (q^m - 1)/(q^d - 1)-th power of the top field's primitive element."""
    top, q = tower.top, tower.q
    return top.pow(top.primitive, (q ** tower.m - 1) // (q ** d - 1))


def linearity_field(u: Subspace) -> int:
    """Largest d with U linear over the subfield GF(q^d) of GF(q^m).

    GF(q^d) = GF(q)[w] for its primitive element w, so U is GF(q^d)-linear
    exactly when w*U is inside U; d has to divide both dim U and m.
    """
    if u.dim == 0:
        return u.tower.m
    g = math.gcd(u.dim, u.tower.m)
    mul = u.tower.top.mul
    for d in sorted((d for d in range(2, g + 1) if g % d == 0), reverse=True):
        w = _subfield_generator(u.tower, d)
        if all(u.contains(mul(w, r)) for r in u.rows):
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


def enumerate_orbit(u: Subspace) -> list[Subspace]:
    """All distinct cyclic shifts of U, by direct scan over projective
    representatives of the ambient unit group."""
    mul = u.tower.top.mul
    seen: dict[tuple[int, ...], None] = {}
    for alpha in u.tower.projective_reps("top"):
        seen[rref_rows(u.tower, [mul(alpha, r) for r in u.rows])] = None
    return [Subspace(u.tower, rows) for rows in seen]
