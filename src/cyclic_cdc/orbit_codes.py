"""Union codes assembled from orbit generators: the construction's code
(``construct_code``: count, tower, family, closed-form claim), exact size
and minimum distance verification, closed-form sizes of the odd/even
constructions (``generator_count`` orbits of (q^n-1)/(q-1) words, n from
``tower_degree``) and their best known competitors, the sphere-packing
(Johnson) bound, rates, and the n = 4k ratio to that bound.

All formula evaluation is exact big-integer arithmetic.  Size formulas
divide exactly (a remainder raises BrokenInvariant); the bound is the floor
of its rational product, since a code size is an integer no larger than the
product.  Floating point appears only in rate reporting.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, NamedTuple

from .errors import BadShape, BrokenInvariant, Infeasible, InvalidParams
from .field_tower import FieldTower, build_tower, json_field, prime_power, tower_from_spec
from . import sidon_constructions as sc
from .subspace_linalg import (
    DEFAULT_SCAN_BUDGET,
    Subspace,
    common_dim,
    orbit_size,
    subspace_from_json,
    union_distance,
)


class UnionCode(NamedTuple):
    """A union of cyclic orbit codes, given by one generator per orbit."""

    tower: FieldTower
    generators: tuple[Subspace, ...]
    claimed_size: int
    claimed_min_distance: int
    provenance: str = ""

    def to_json(self) -> dict:
        return {
            "tower": self.tower.spec_dict(),
            "generators": [g.to_json() for g in self.generators],
            "claimed_size": str(self.claimed_size),
            "claimed_min_distance": self.claimed_min_distance,
            "provenance": self.provenance,
        }


def code_from_json(obj: dict) -> UnionCode:
    tower = tower_from_spec(json_field(obj, "tower", dict))
    gens = tuple(subspace_from_json(tower, g) for g in json_field(obj, "generators", list))
    common_dim(gens)
    size = obj["claimed_size"]  # to_json writes a canonical decimal string
    if type(size) is str and not (size.isdecimal() and str(int(size)) == size):
        raise BadShape(f"claimed_size {size!r:.60} is not a canonical decimal string")
    return UnionCode(
        tower=tower,
        generators=gens,
        claimed_size=int(size) if type(size) is str else json_field(obj, "claimed_size"),
        claimed_min_distance=json_field(obj, "claimed_min_distance"),
        provenance=json_field(obj, "provenance", str) if "provenance" in obj else "",
    )


def build_union(tower: FieldTower, generators: Iterable[Subspace], provenance: str = "") -> UnionCode:
    """Union code with claimed size = sum of orbit sizes, one ``orbit_size``
    scan per generator (disjointness is claimed here and established by
    verification); tests and the benchmark build their codes with it."""
    gens = tuple(generators)
    k = common_dim(gens)
    size = sum(orbit_size(g) for g in gens)
    return UnionCode(tower, gens, size, 2 * k - 2, provenance)


def construct_code(q: int, k: int, r: int, parity: str) -> UnionCode:
    """The odd or even construction's union code, one generator per tuple of
    the family.  The family is counted by ``generator_count`` before any tower
    is built: Infeasible when it has more than DEFAULT_SCAN_BUDGET tuples, and
    BrokenInvariant when the enumeration yields another number of tuples.
    It claims the closed form ``construction_size``, sizing no orbit."""
    count = generator_count(q, k, r, parity)
    if count > DEFAULT_SCAN_BUDGET:
        raise Infeasible(f"the family has {count} tuples, over the budget {DEFAULT_SCAN_BUDGET}")
    tower = build_tower(*prime_power(q), k, sc.tower_degree(r, parity))
    gens = tuple(sc.make_subspace(p, tower) for p in sc.enumerate_family(tower))
    if len(gens) != count:
        raise BrokenInvariant(f"the family enumerated {len(gens)} tuples, the closed form "
                              f"counts {count}")
    return UnionCode(tower, gens, construction_size(q, k, r, parity), 2 * k - 2,
                     f"{parity}(q={q},k={k},r={r})")


# -- exact verification ----------------------------------------------------------

def verify_code(code: UnionCode, budget: int = DEFAULT_SCAN_BUDGET) -> dict:
    """Full claim verification by one ``union_distance`` scan: the exact
    distance, every generator pair at every shift, the orbit sizes and the
    exact size, the scan's ``size`` (a repeated orbit counts once).  A scan
    over the budget raises Infeasible before any orbit is sized.  Returns a
    JSON-serializable report; its ``time_*`` keys and ``counters`` say what
    the run cost and are not part of the result."""
    t0 = time.perf_counter()
    scan = union_distance(code.generators, budget)
    # "mode" is constant, kept so that reports and their digests stay stable
    report: dict = {
        "mode": "exact",
        "n_generators": len(code.generators),
        "orbit_sizes_distinct": sorted(set(scan.orbit_sizes)),
        "verified_min_distance": scan.distance,
        "orbit_collisions": scan.collisions,
        "time_exact_scan": round(time.perf_counter() - t0, 3),
        "counters": scan.counters(budget),
        "verified_size": str(scan.size),
        "size_claim_ok": scan.size == code.claimed_size,
        "distance_claim_ok": scan.distance == code.claimed_min_distance,
    }
    report["ok"] = report["size_claim_ok"] and report["distance_claim_ok"]
    return report


# -- closed-form sizes ----------------------------------------------------------

def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise BrokenInvariant(f"{num} not divisible by {den}")
    return num // den


def _family_parts(q: int, k: int, r: int, parity: str) -> tuple[int, int, int]:
    """The family's tuples in three parts: u-families with rep = 1, with
    rep >= 2 (S rows (rep, l)), and v-families.  They sum to
    ((r+S)(q^k-1)(q-1) + r)(q^k-1)^(r-1) on odd towers and
    ((r-1+S)(q^k-1)(q-1) + (r-1))(q^k-1)^(r-2) floor((q^k-2)/2) on even ones."""
    prime_power(q)
    p0 = sc.max_rep_index(r, parity)  # InvalidParams unless r >= 2 and odd/even
    odd, qk = parity == "odd", q ** k - 1
    s = sum((r // i if odd else -(-r // i) - 1) - r // (i + 1) for i in range(2, p0 + 1))
    rows, pinned = (r, qk ** (r - 1)) if odd else (r - 1, qk ** (r - 2) * ((q ** k - 2) // 2))
    u_row = (q - 1) * qk * pinned  # thetas x deltas; a v-row pins one delta
    return rows * u_row, s * u_row, rows * pinned


def generator_count(q: int, k: int, r: int, parity: str) -> int:
    """Tuples in the odd or even family, one orbit generator each (``_family_parts``)."""
    return sum(_family_parts(q, k, r, parity))


def construction_size(q: int, k: int, r: int, parity: str) -> int:
    """Size of the union code built over the odd (n = (2r+1)k) or even
    (n = 2rk) tower: ``generator_count`` full orbits of (q^n-1)/(q-1) words."""
    count = generator_count(q, k, r, parity)
    return count * _exact_div(q ** (sc.tower_degree(r, parity) * k) - 1, q - 1)


def best_known_size(q: int, k: int, r: int, parity: str) -> int:
    """Best previously known size for the same parameters: one full orbit per
    u-tuple of the family with rep = 1, and per v-tuple on odd towers."""
    u_rep1, _, v = _family_parts(q, k, r, parity)
    n = sc.tower_degree(r, parity) * k
    return (u_rep1 + v if parity == "odd" else u_rep1) * _exact_div(q ** n - 1, q - 1)


def known_size_5k(q: int, k: int) -> int:
    """Competing n = 5k construction size."""
    prime_power(q)
    n = 5 * k
    qk = q ** k - 1
    return _exact_div(qk * (3 * q ** k - 2) * (q ** n - 1), q - 1)


def compare_sizes(q: int, k: int, r: int, parity: str) -> dict:
    """One comparison row: our size, the best known, and the difference
    column ours - known (with ours - known_5k at n = 5k), for k >= 2."""
    if k < 2:
        raise InvalidParams(f"a table row needs k >= 2, got k = {k}")
    ours = construction_size(q, k, r, parity)
    known = best_known_size(q, k, r, parity)
    n = sc.tower_degree(r, parity) * k
    row = {
        "q": q,
        "k": k,
        "r": r,
        "parity": parity,
        "n": n,
        "ours": ours,
        "best_known": known,
        "difference": ours - known,
        "rate_ours": round(rate(ours, q, n, k), 6),
        "rate_best_known": round(rate(known, q, n, k), 6),
    }
    if parity == "odd" and r == 2:
        other = known_size_5k(q, k)
        row["known_5k"] = other
        row["difference_5k"] = ours - other
        row["rate_known_5k"] = round(rate(other, q, n, k), 6)
    return row


# -- bounds, rates, ratios --------------------------------------------------------

def _check_bound_params(q: int, n: int, k: int, d: int) -> None:
    prime_power(q)
    if not 1 <= k <= n or d < 2 or d % 2:
        raise InvalidParams("need 1 <= k <= n and an even distance >= 2")


def _johnson_product(q: int, n: int, k: int, d: int) -> tuple[int, int]:
    """Numerator and denominator of the product of
    (q^(n-i) - 1)/(q^(k-i) - 1) over 0 <= i <= k - d/2."""
    _check_bound_params(q, n, k, d)
    num = den = 1
    for i in range(k - d // 2 + 1):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num, den


def johnson_bound(q: int, n: int, k: int, d: int) -> int:
    """The sphere-packing (Johnson) bound on a CDC of k-subspaces of GF(q)^n
    with minimum distance d: the floor of ``_johnson_product``.  Its
    sphere-packing form [n, m]_q / [k, m]_q, m = k - d/2 + 1, telescopes to
    that product, as both Gaussian binomials have the denominator
    (q^m - 1)...(q - 1); for d > 2k, m <= 0 and the empty product gives 1."""
    num, den = _johnson_product(q, n, k, d)
    return num // den


def rate(code_size: int, q: int, n: int, k: int) -> float:
    """log_q(size) / (n*k), in double precision."""
    if code_size < 1:
        raise InvalidParams("size must be >= 1")
    return math.log2(code_size) / math.log2(q) / (n * k)


def ratio_to_bound(q: int, k: int) -> Fraction:
    """Even-construction size at r = 2 (n = 4k) over the bound's rational
    product at n = 4k, distance 2k - 2, as an exact rational.

    That product, (q^(4k) - 1)(q^(4k-1) - 1) / ((q^k - 1)(q^(k-1) - 1)), is
    an integer for q = 2 and q = 3 at k <= 5 and for no k in 6..24.  The
    ratio's approach to 1/2, and its entry into (0.45, 0.5) at k = 6, is
    therefore measured against the product, not its floor."""
    if k < 2:
        raise InvalidParams("k must be >= 2")
    from fractions import Fraction  # imported here: it loads decimal
    return construction_size(q, k, 2, "even") / Fraction(*_johnson_product(q, 4 * k, k, 2 * k - 2))
