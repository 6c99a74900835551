"""Sidon-space constructions in GF(q^n), n = tk, over the tower of degree
t = tower_degree(r, parity): 2r+1 (odd towers) or 2r (even towers), r >= 2.
Also the Sidon test, the per-generator certificate of the paper.  The
family's size is a closed form, ``orbit_codes.generator_count``.

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

Max-span lemma (Roth, Raviv and Tamo, IEEE TIT 64(6), 2018, where Sidon
means a full cyclic orbit of distance 2k - 2): call U, with basis u_1..u_k,
max-span when the k(k+1)/2 products u_i*u_j (i <= j) are GF(q)-independent.
Then U is Sidon, in every characteristic.  Proof: the ring map x_i -> u_i
from GF(q)[x_1..x_k] to GF(q^m) is injective on quadratic forms.  Write
a, b, c, d in U as the images of linear forms; ab = mu*cd gives
l_a*l_b = mu*l_c*l_d as polynomials, and unique factorisation into the
irreducible linear forms gives {a, b} = {c, d} up to GF(q)-scalars.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterator, NamedTuple

from .errors import BadShape, BrokenInvariant, Infeasible, InvalidParams
from .field_tower import LOG_TABLE_LIMIT, FieldTower
from .subspace_linalg import Subspace, rank_rows, shared_pairs, span

class ConstructionParams(NamedTuple):
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


def tower_degree(r: int, parity: str) -> int:
    """Top extension degree t of the construction: 2r + 1 on odd towers and
    2r on even ones, so n = t*k.  InvalidParams unless r >= 2 and the parity
    is 'odd' or 'even'."""
    if r < 2:
        raise InvalidParams("r must be >= 2")
    if parity not in ("odd", "even"):
        raise InvalidParams(f"unknown parity {parity!r}")
    return 2 * r + 1 if parity == "odd" else 2 * r


def tower_shape(tower: FieldTower) -> tuple[str, int]:
    """('odd'|'even', r) of a tower, the inverse of ``tower_degree``."""
    parity, r = ("odd" if tower.t % 2 else "even"), tower.t // 2
    if r < 2 or tower.k < 2:
        raise BadShape(f"need k >= 2 and t in {{2r, 2r+1 : r >= 2}}, got k={tower.k}, t={tower.t}")
    return parity, r


def max_rep_index(r: int, parity: str) -> int:
    """Largest repetition index with a nonempty l-range.

    odd:  r, since i = r has floor(r/r) = 1 > 0 = floor(r/(r+1))
    even: max{i >= 1 : ceil(r/i) - 1 > floor(r/(i+1))}, or 1 if none (r = 2)
    """
    tower_degree(r, parity)  # InvalidParams unless r >= 2 and odd/even
    if parity == "odd":
        return r
    return max((i for i in range(1, r + 1) if -(-r // i) - 1 > r // (i + 1)), default=1)


def build_avoiding_set(tower: FieldTower) -> tuple[int, ...]:
    """Exponent set A with f0 * xi^i * xi^j != 1 for all i, j in A (i = j
    included), where f0 is the constant term of the top defining polynomial.

    The smaller member of each pair of exponents summing to the forbidden
    one (``avoiding_exponents``); size is exactly floor((q^k - 2)/2).
    The forbidden exponent is a discrete log in GF(q^k), read from its log
    table: Infeasible when q^k exceeds LOG_TABLE_LIMIT and there is none.
    """
    parity, _ = tower_shape(tower)
    if parity != "even":
        raise BadShape("the avoiding set is defined for even towers only")
    mid = tower.mid
    if mid.order > LOG_TABLE_LIMIT:
        raise Infeasible(f"the avoiding set needs GF(q^k) log tables, but q^k = {mid.order} "
                         f"exceeds LOG_TABLE_LIMIT = {LOG_TABLE_LIMIT}")
    f0 = tower.def_poly_top[0]
    if f0 == 0:
        raise BadShape("top defining polynomial has zero constant term")
    o1 = mid.order - 1
    # f0 * xi^(i+j) == 1  <=>  i + j == forbidden (mod o1)
    chosen = avoiding_exponents(o1, (-mid._log[f0]) % o1, (mid.order - 2) // 2)
    # verification of the defining property: f0 * xi^i never equals xi^(-j)
    products = {mid.mul(f0, mid.pow(tower.xi, i)) for i in chosen}
    if any(mid.pow(tower.xi, o1 - j) in products for j in chosen):
        raise BrokenInvariant("avoiding set verification failed")
    return tuple(chosen)


def avoiding_exponents(o1: int, forbidden: int, target: int) -> list[int]:
    """The first ``target`` residues i mod o1, ascending, with no two chosen
    (i = j included) summing to ``forbidden``: the smaller member of each
    pair {i, forbidden - i} with i != forbidden - i.

    Those pairs partition the residues i with 2i != forbidden, and there are
    at least floor((o1 - 1)/2) of them, so a target of floor((o1 - 1)/2) =
    floor((q^k - 2)/2) is always reached.  Two smaller members never sum to
    ``forbidden``, since their partners are the larger ones."""
    return [i for i in range(o1) if i < (forbidden - i) % o1][:target]


@functools.lru_cache(maxsize=None)
def _parameter_space(tower: FieldTower) -> tuple:
    """The admissible parameter space of the tower, one row per (family, rep,
    l): (family, rep, l, theta exponents, one exponent pool per delta
    position), u-families first (rep ascending, then l), then v-families.

    A u-family takes rep in [1, p0]; l runs from 1 at rep = 1, else from
    floor(r/(rep+1)) + 1, up to floor(r/rep) (odd) or ceil(r/rep) - 1 (even).
    A v-family has rep 1, no theta and its Frobenius slot l pinned to
    exponent 0.  On even towers the last pool is the avoiding set.
    """
    parity, r = tower_shape(tower)
    every = range(tower.mid.order - 1)
    last = build_avoiding_set(tower) if parity == "even" else every
    rows = []
    for rep in range(1, max_rep_index(r, parity) + 1):
        lo = 1 if rep == 1 else r // (rep + 1) + 1
        hi = r // rep if parity == "odd" else -(-r // rep) - 1
        for l in range(lo, hi + 1):
            rows.append((f"u-{parity}", rep, l, range(tower.q - 1), (every,) * (r - 1) + (last,)))
    for l in range(1, r + 1 if parity == "odd" else r):
        pools = [every] * (r - 1) + [last]
        pools[l - 1] = (0,)
        rows.append((f"v-{parity}", 1, l, (None,), tuple(pools)))
    return tuple(rows)


def validate_params(params: ConstructionParams, tower: FieldTower) -> None:
    """Raise InvalidParams unless ``enumerate_family`` yields the tuple,
    naming the part that fails: family/r/rep/l, theta or the delta pools."""
    key = (params.family, params.r, params.rep, params.l)
    for family, rep, l, thetas, pools in _parameter_space(tower):
        if (family, len(pools), rep, l) == key:
            break
    else:
        raise InvalidParams(f"no admissible tuple has family/r/rep/l = {key} on {tower}")
    if params.theta_exp not in thetas:
        raise InvalidParams(f"theta exponent {params.theta_exp} outside {thetas} for {key}")
    deltas = params.delta_exps
    if len(deltas) != len(pools) or not all(e in pool for e, pool in zip(deltas, pools)):
        raise InvalidParams(f"delta exponents {deltas} outside their pools for {key}")


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

    The rows of the parameter space in order, each with theta, then the
    deltas in lexicographic exponent order.  Unused delta slots are pinned
    to exponent 0 so distinct tuples always give distinct subspaces.
    """
    for family, rep, l, thetas, pools in _parameter_space(tower):
        for theta_exp in thetas:
            for deltas in itertools.product(*pools):
                yield ConstructionParams(family, len(pools), rep, l, deltas, theta_exp)


# -- Sidon test ----------------------------------------------------------------

def is_sidon(u: Subspace, *, counts: Counter | None = None) -> bool:
    """Whether U is a Sidon space: ab = mu*cd (a, b, c, d nonzero in U, mu in
    GF(q)*) forces {a, b} = {c, d} up to GF(q)-scalars.

    True at once when U is max-span (the module docstring's lemma, Roth,
    Raviv and Tamo 2018); the basis products are not formed when
    k(k+1)/2 > m.  Any other U is Sidon exactly when no internal point ratio
    repeats: ab = mu*cd with {a, b} != {c, d} is a/c = d/b up to scalars for
    two distinct ordered pairs of distinct points, so ``shared_pairs`` of U
    alone returns its self pair, within the budget 2P^2 (P points).
    ``counts`` gains 1 at "certified" or "scanned", the basis products at
    "products" and the ratios of a scanned U at "point_ratios".
    """
    tally = Counter() if counts is None else counts
    rows, mul = u.rows, u.tower.top.mul
    if len(rows) * (len(rows) + 1) // 2 <= u.tower.m:
        basis_products = [mul(a, b) for i, a in enumerate(rows) for b in rows[i:]]
        tally["products"] += len(basis_products)
        if rank_rows(u.tower, basis_products) == len(basis_products):
            tally["certified"] += 1
            return True
    tally["scanned"] += 1
    points = (u.tower.q ** u.dim - 1) // (u.tower.q - 1)
    pairs, _, ratios = shared_pairs([u], 2 * points ** 2)
    tally["point_ratios"] += ratios
    return not pairs
