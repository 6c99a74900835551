"""Sidon-space constructions in GF(q^n) for n = (2r+1)k (odd towers) and
n = 2rk (even towers), plus the brute-force Sidon test, the per-generator
certificate of the paper.

Four families are built, all k-dimensional images of GF(q^k) written in the
basis {1, gamma, ..., gamma^(t-1)}:

  u-families:  u -> u + sum_{a=1..rep} (theta*u^q + u) * delta_{a*l} * gamma^(a*l)
                      + sum_{b=1..r, b not in {l, 2l, ..., rep*l}} u * delta_b * gamma^b
  v-families:  v -> v + v^q * gamma^l + sum_{b=1..r, b != l} v * delta_b * gamma^b

with delta_i in GF(q^k)*, theta in {xi^0, ..., xi^(q-2)}.  On even towers the
last delta is restricted to an avoiding set A (pairwise products of A avoid
the inverse of the constant term of the top defining polynomial), which is
what keeps the gamma^0 coefficient comparison invertible there.

The repetition index is called ``rep`` throughout (never the characteristic).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import BadShape, GreedyFellShort, InvalidParams
from .field_tower import FieldTower
from .subspace_linalg import Subspace, span

U_ODD = "u-odd"
V_ODD = "v-odd"
U_EVEN = "u-even"
V_EVEN = "v-even"
FAMILIES = (U_ODD, V_ODD, U_EVEN, V_EVEN)


@dataclass(frozen=True)
class ConstructionParams:
    """One admissible parameter tuple; deltas and theta are xi-exponents.

    For v-families ``rep`` is fixed at 1, ``theta_exp`` is None and the
    delta entry at position l is an unused placeholder (exponent 0): the
    construction replaces that slot by the Frobenius term.
    """

    family: str
    r: int
    rep: int
    l: int
    delta_exps: tuple[int, ...]
    theta_exp: int | None = None


def tower_shape(tower: FieldTower) -> tuple[str, int]:
    """('odd'|'even', r) derived from the top extension degree t."""
    t = tower.t
    if t % 2 == 1:
        r = (t - 1) // 2
        parity = "odd"
    else:
        r = t // 2
        parity = "even"
    if r < 2 or tower.k < 2:
        raise BadShape(f"need k >= 2 and t in {{2r, 2r+1 : r >= 2}}, got k={tower.k}, t={t}")
    return parity, r


def max_rep_index(r: int, parity: str) -> int:
    """Largest repetition index with a nonempty l-range.

    odd:  max{i >= 1 : floor(r/i) > floor(r/(i+1))}
    even: 1 when r = 2, else max{i >= 1 : ceil(r/i) - 1 > floor(r/(i+1))}
    """
    if r < 2:
        raise InvalidParams("r must be >= 2")
    if parity == "odd":
        best = 1
        for i in range(1, r + 1):
            if r // i > r // (i + 1):
                best = i
        return best
    if parity == "even":
        if r == 2:
            return 1
        best = 1
        for i in range(1, r + 1):
            if -(-r // i) - 1 > r // (i + 1):
                best = i
        return best
    raise InvalidParams(f"unknown parity {parity!r}")


def l_range(parity: str, r: int, rep: int) -> range:
    """Admissible l values for a u-family at the given repetition index."""
    if rep == 1:
        return range(1, r + 1) if parity == "odd" else range(1, r)
    lo = r // (rep + 1) + 1
    hi = r // rep if parity == "odd" else -(-r // rep) - 1
    return range(lo, hi + 1)


def build_avoiding_set(tower: FieldTower) -> tuple[int, ...]:
    """Exponent set A with f0 * xi^i * xi^j != 1 for all i, j in A (i = j
    included), where f0 is the constant term of the top defining polynomial.

    Greedy over ascending exponents; size is exactly floor((q^k - 2)/2).
    """
    parity, _ = tower_shape(tower)
    if parity != "even":
        raise BadShape("the avoiding set is defined for even towers only")
    mid = tower.mid
    f0 = tower.def_poly_top[0]
    if f0 == 0:
        raise BadShape("top defining polynomial has zero constant term")
    o1 = mid.order - 1
    # f0 * xi^(i+j) == 1  <=>  i + j == forbidden (mod o1)
    chosen = avoiding_exponents(o1, (-mid._log[f0]) % o1, (mid.order - 2) // 2)
    # verification pass over the defining property
    for i in chosen:
        for j in chosen:
            if mid.mul(f0, mid.pow(tower.xi, i + j)) == 1:
                raise GreedyFellShort("avoiding set verification failed")
    return tuple(chosen)


def avoiding_exponents(o1: int, forbidden: int, target: int) -> list[int]:
    """The first ``target`` residues i mod o1, ascending, with no two chosen
    (i = j included) summing to ``forbidden``.

    The pairs {i, forbidden - i} with i != forbidden - i partition the
    residues i with 2i != forbidden.  There are at least floor((o1 - 1)/2)
    of them, and the greedy takes the smaller member of each, so a target of
    floor((o1 - 1)/2) = floor((q^k - 2)/2) is always reached."""
    chosen: list[int] = []
    for i in range(o1):
        if len(chosen) == target:
            break
        if (2 * i) % o1 == forbidden:
            continue
        if any((i + j) % o1 == forbidden for j in chosen):
            continue
        chosen.append(i)
    return chosen


def validate_params(params: ConstructionParams, tower: FieldTower) -> None:
    """Raise InvalidParams naming the violated constraint."""
    parity, r = tower_shape(tower)
    fam = params.family
    if fam not in FAMILIES:
        raise InvalidParams(f"unknown family {fam!r}")
    if (parity == "odd") != fam.endswith("odd"):
        raise InvalidParams(f"family {fam} does not match tower parity {parity}")
    if params.r != r:
        raise InvalidParams(f"r={params.r} but tower has r={r}")
    if len(params.delta_exps) != r:
        raise InvalidParams(f"need {r} delta exponents, got {len(params.delta_exps)}")
    o1 = tower.mid.order - 1
    if not all(0 <= e < o1 for e in params.delta_exps):
        raise InvalidParams("delta exponents must lie in [0, q^k - 2]")
    if parity == "even":
        pool = build_avoiding_set(tower)
        if params.delta_exps[r - 1] not in pool:
            raise InvalidParams("last delta exponent must come from the avoiding set")
    if fam.startswith("v"):
        if params.rep != 1:
            raise InvalidParams("v-families have rep fixed at 1")
        if params.theta_exp is not None:
            raise InvalidParams("v-families take no theta")
        hi = r if parity == "odd" else r - 1
        if not 1 <= params.l <= hi:
            raise InvalidParams(f"l={params.l} outside [1, {hi}]")
        return
    # u-families
    if params.theta_exp is None or not 0 <= params.theta_exp <= tower.q - 2:
        raise InvalidParams("theta exponent must lie in [0, q - 2]")
    p0 = max_rep_index(r, parity)
    if not 1 <= params.rep <= p0:
        raise InvalidParams(f"rep={params.rep} outside [1, {p0}]")
    if params.l not in l_range(parity, r, params.rep):
        raise InvalidParams(f"l={params.l} outside the range for rep={params.rep}")


def make_subspace(params: ConstructionParams, tower: FieldTower) -> Subspace:
    """Materialize the k-dimensional subspace for an admissible tuple."""
    validate_params(params, tower)
    mid, top, q = tower.mid, tower.top, tower.q
    r, rep, l = params.r, params.rep, params.l
    deltas = [mid.pow(tower.xi, e) for e in params.delta_exps]
    theta = None if params.theta_exp is None else mid.pow(tower.xi, params.theta_exp)
    frob_slots = {a * l for a in range(1, rep + 1)} if params.family.startswith("u") else {l}

    def image(u: int) -> int:
        digits = [0] * tower.t
        digits[0] = u
        uq = mid.pow(u, q)
        if theta is not None:
            w = mid.add(mid.mul(theta, uq), u)
            for a in range(1, rep + 1):
                digits[a * l] = mid.mul(w, deltas[a * l - 1])
        else:
            digits[l] = uq
        for b in range(1, r + 1):
            if b not in frob_slots:
                digits[b] = mid.mul(u, deltas[b - 1])
        return top.from_digits(digits)

    basis = [image(q ** j) for j in range(tower.k)]
    sub = span(tower, basis)
    if sub.dim != tower.k:
        raise InvalidParams("construction image collapsed below dimension k")
    return sub


def enumerate_family(tower: FieldTower) -> Iterator[ConstructionParams]:
    """Every admissible parameter tuple exactly once, deterministically.

    u-families first (rep ascending, then l, theta, deltas in lexicographic
    exponent order), then v-families.  Unused delta slots are pinned to
    exponent 0 so distinct tuples always give distinct subspaces.
    """
    parity, r = tower_shape(tower)
    q = tower.q
    o1 = tower.mid.order - 1
    u_fam = U_ODD if parity == "odd" else U_EVEN
    v_fam = V_ODD if parity == "odd" else V_EVEN
    if parity == "even":
        last_pool: tuple[int, ...] = build_avoiding_set(tower)
    else:
        last_pool = tuple(range(o1))
    p0 = max_rep_index(r, parity)

    def delta_tuples(skip: int | None):
        ranges = []
        for pos in range(1, r + 1):
            if pos == skip:
                ranges.append((0,))
            elif pos == r:
                ranges.append(last_pool)
            else:
                ranges.append(tuple(range(o1)))
        return itertools.product(*ranges)

    for rep in range(1, p0 + 1):
        for l in l_range(parity, r, rep):
            for theta_exp in range(q - 1):
                for deltas in delta_tuples(None):
                    yield ConstructionParams(u_fam, r, rep, l, deltas, theta_exp)
    v_hi = r if parity == "odd" else r - 1
    for l in range(1, v_hi + 1):
        for deltas in delta_tuples(l):
            yield ConstructionParams(v_fam, r, 1, l, deltas, None)


# -- Sidon test ----------------------------------------------------------------

def is_sidon(u: Subspace) -> bool:
    """Brute-force Sidon test: products of projective representatives must
    be pairwise distinct as projective points (unordered pairs)."""
    tower = u.tower
    mul = tower.top.mul
    canon = tower.canon_projective
    reps = u.projective_reps()
    seen: set[int] = set()
    for i, a in enumerate(reps):
        for b in reps[i:]:
            p = canon(mul(a, b))
            if p in seen:
                return False
            seen.add(p)
    return True
