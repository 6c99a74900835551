"""Union codes assembled from orbit generators: exact size and minimum
distance verification, closed-form size formulas for the odd/even tower
constructions and their best known competitors, sphere-packing and Johnson
bounds, rates, and the n = 4k ratio to the common bound value.

All formula evaluation is exact big-integer arithmetic.  Size formulas and
Gaussian binomials divide exactly (a remainder raises InexactDivision); a
bound is the floor of its rational product, since a code size is an integer
no larger than the product.  Floating point appears only in rate reporting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import DimensionMismatch, InexactDivision
from .field_tower import FieldTower, tower_from_spec
from .sidon_constructions import max_rep_index
from .subspace_linalg import (
    Subspace,
    orbit_size,
    subspace_from_json,
    union_distance,
)

DEFAULT_SCAN_BUDGET = 1 << 26


@dataclass(frozen=True)
class UnionCode:
    """A union of cyclic orbit codes, given by one generator per orbit."""

    tower: FieldTower = field(repr=False)
    generators: tuple[Subspace, ...]
    claimed_size: int
    claimed_min_distance: int
    provenance: str = ""

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    def to_json(self) -> dict:
        return {
            "tower": self.tower.spec_dict(),
            "generators": [g.to_json() for g in self.generators],
            "claimed_size": str(self.claimed_size),
            "claimed_min_distance": self.claimed_min_distance,
            "provenance": self.provenance,
        }


def _common_dim(generators: tuple[Subspace, ...]) -> int:
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


def code_from_json(obj: dict) -> UnionCode:
    tower = tower_from_spec(obj["tower"])
    gens = tuple(subspace_from_json(tower, g) for g in obj["generators"])
    _common_dim(gens)
    return UnionCode(
        tower=tower,
        generators=gens,
        claimed_size=int(obj["claimed_size"]),
        claimed_min_distance=int(obj["claimed_min_distance"]),
        provenance=obj.get("provenance", ""),
    )


def build_union(tower: FieldTower, generators: Iterable[Subspace], provenance: str = "") -> UnionCode:
    """Union code with claimed size = sum of orbit sizes (disjointness is
    claimed here and established by verification)."""
    gens = tuple(generators)
    k = _common_dim(gens)
    size = sum(orbit_size(g) for g in gens)
    return UnionCode(tower, gens, size, 2 * k - 2, provenance)


# -- exact verification ----------------------------------------------------------

def verify_min_distance(code: UnionCode, budget: int = DEFAULT_SCAN_BUDGET) -> int:
    """Exact minimum distance of the union: every generator pair at every
    shift, by ``union_distance``."""
    d, _, _ = union_distance(code.generators, budget)
    return d


def verify_code(code: UnionCode, budget: int = DEFAULT_SCAN_BUDGET) -> dict:
    """Full claim verification: size by orbit accounting plus disjointness,
    exact distance, every generator pair at every shift.  Returns a
    JSON-serializable report; its ``time_*`` keys and ``counters`` say what
    the run cost and are not part of the result."""
    gens = code.generators
    # "mode" is constant, kept so that reports and their digests stay stable
    report: dict = {"mode": "exact", "n_generators": len(gens)}
    t0 = time.perf_counter()
    orbit_sizes = [orbit_size(g) for g in gens]
    report["orbit_sizes_distinct"] = sorted(set(orbit_sizes))
    report["time_orbit_sizes"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    d, collisions, differences = union_distance(gens, budget)
    report["verified_min_distance"] = d
    report["orbit_collisions"] = collisions
    report["time_exact_scan"] = round(time.perf_counter() - t0, 3)
    report["counters"] = {
        "pairs": len(gens) * (len(gens) + 1) // 2,
        "differences": differences,
        "budget": budget,
    }

    verified_size = None if collisions else sum(orbit_sizes)
    report["verified_size"] = None if verified_size is None else str(verified_size)
    report["size_claim_ok"] = verified_size == code.claimed_size
    report["distance_claim_ok"] = (
        report["verified_min_distance"] == code.claimed_min_distance
    )
    report["ok"] = bool(report["size_claim_ok"] and report["distance_claim_ok"])
    return report


# -- closed-form sizes ----------------------------------------------------------

def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise InexactDivision(f"{num} not divisible by {den}")
    return num // den


def construction_size(q: int, k: int, r: int, parity: str) -> int:
    """Size of the union code built over the odd (n = (2r+1)k) or even
    (n = 2rk) tower, as a closed form."""
    if r < 2:
        raise InexactDivision("r must be >= 2")
    qk = q ** k - 1
    if parity == "odd":
        n = (2 * r + 1) * k
        p0 = max_rep_index(r, "odd")
        s = sum(r // i - r // (i + 1) for i in range(2, p0 + 1))
        num = ((r + s) * qk * (q - 1) + r) * qk ** (r - 1) * (q ** n - 1)
    elif parity == "even":
        n = 2 * r * k
        p0 = max_rep_index(r, "even")
        s = sum(-(-r // i) - r // (i + 1) - 1 for i in range(2, p0 + 1))
        num = (
            ((r - 1 + s) * qk * (q - 1) + (r - 1))
            * qk ** (r - 2)
            * ((q ** k - 2) // 2)
            * (q ** n - 1)
        )
    else:
        raise ValueError(f"unknown parity {parity!r}")
    return _exact_div(num, q - 1)


def best_known_size(q: int, k: int, r: int, parity: str) -> int:
    """Best previously known size for the same parameters."""
    qk = q ** k - 1
    if parity == "odd":
        n = (2 * r + 1) * k
        return r * (qk ** r * (q ** n - 1) + _exact_div(qk ** (r - 1) * (q ** n - 1), q - 1))
    if parity == "even":
        n = 2 * r * k
        return ((q ** k - 2) // 2) * (r - 1) * qk ** (r - 1) * (q ** n - 1)
    raise ValueError(f"unknown parity {parity!r}")


def known_size_5k(q: int, k: int) -> int:
    """Competing n = 5k construction size."""
    n = 5 * k
    qk = q ** k - 1
    return _exact_div(qk * (3 * q ** k - 2) * (q ** n - 1), q - 1)


def size_difference(q: int, k: int, r: int, parity: str) -> int:
    """Closed-form difference (ours minus best known) for the same row."""
    qk = q ** k - 1
    if parity == "odd":
        n = (2 * r + 1) * k
        p0 = max_rep_index(r, "odd")
        s = sum(r // i - r // (i + 1) for i in range(2, p0 + 1))
        return s * qk ** r * (q ** n - 1)
    if parity == "even":
        n = 2 * r * k
        p0 = max_rep_index(r, "even")
        s = sum(-(-r // i) - r // (i + 1) - 1 for i in range(2, p0 + 1))
        num = (
            (s * qk * (q - 1) + (r - 1))
            * qk ** (r - 2)
            * ((q ** k - 2) // 2)
            * (q ** n - 1)
        )
        return _exact_div(num, q - 1)
    raise ValueError(f"unknown parity {parity!r}")


def size_difference_5k(q: int, k: int) -> int:
    n = 5 * k
    qk = q ** k - 1
    return _exact_div((qk * (3 * q - 6) + 1) * qk * (q ** n - 1), q - 1)


def compare_sizes(q: int, k: int, r: int, parity: str) -> dict:
    """One comparison row: our size, the best known, the difference column,
    with the identity ours - known == difference asserted exactly."""
    ours = construction_size(q, k, r, parity)
    known = best_known_size(q, k, r, parity)
    diff = size_difference(q, k, r, parity)
    if ours - known != diff:
        raise InexactDivision("difference column does not match ours - known")
    n = (2 * r + 1) * k if parity == "odd" else 2 * r * k
    row = {
        "q": q,
        "k": k,
        "r": r,
        "parity": parity,
        "n": n,
        "ours": ours,
        "best_known": known,
        "difference": diff,
        "rate_ours": round(rate(ours, q, n, k), 6),
        "rate_best_known": round(rate(known, q, n, k), 6),
    }
    if parity == "odd" and r == 2:
        other = known_size_5k(q, k)
        diff5 = size_difference_5k(q, k)
        if ours - other != diff5:
            raise InexactDivision("n=5k difference column does not match")
        row["known_5k"] = other
        row["difference_5k"] = diff5
        row["rate_known_5k"] = round(rate(other, q, n, k), 6)
    return row


# -- bounds, rates, ratios --------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, exactly."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return _exact_div(num, den)


def sphere_packing_bound(q: int, n: int, k: int, d: int) -> int:
    """Upper bound for a CDC of minimum distance d = 2*delta + 2: the floor
    of [n, k-delta]_q / [k, k-delta]_q."""
    if d < 2 or d % 2:
        raise InexactDivision("distance must be even and >= 2")
    delta = (d - 2) // 2
    num = gaussian_binomial(n, k - delta, q)
    den = gaussian_binomial(k, k - delta, q)
    return num // den


def johnson_bound(q: int, n: int, k: int, d: int) -> int:
    """Upper bound for a CDC of minimum distance d = 2*delta: the floor of
    the product of (q^(n-i) - 1)/(q^(k-i) - 1) over 0 <= i <= k - delta."""
    if d < 2 or d % 2:
        raise InexactDivision("distance must be even and >= 2")
    delta = d // 2
    num = 1
    den = 1
    for i in range(k - delta + 1):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def rate(code_size: int, q: int, n: int, k: int) -> float:
    """log_q(size) / (n*k), in double precision."""
    if code_size < 1:
        raise ValueError("size must be >= 1")
    return math.log2(code_size) / math.log2(q) / (n * k)


def ratio_to_bound(q: int, k: int) -> Fraction:
    """Even-construction size at r = 2 (n = 4k) over the common bound value,
    as an exact rational.

    The bound enters as the exact rational product
    (q^(4k) - 1)(q^(4k-1) - 1) / ((q^k - 1)(q^(k-1) - 1)), whose floor both
    bounds equal at n = 4k, distance 2k - 2.  For q = 2 and q = 3 that
    product is an integer for k <= 5 and for no k in 6..24.  The ratio's
    approach to 1/2, and its entry into (0.45, 0.5) at k = 6, is therefore
    measured against the rational product, not the floor."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = 4 * k
    bound = Fraction((q ** n - 1) * (q ** (n - 1) - 1), (q ** k - 1) * (q ** (k - 1) - 1))
    return construction_size(q, k, 2, "even") / bound
