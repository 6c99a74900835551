"""Linearized (q-)polynomial machinery: kernels as subspaces, the
coefficient-twist under cyclic shifts, the rank-matrix criterion certifying
unions of polynomial-kernel orbits, and the exact distance and size of such
unions.

A q-polynomial sum(a_i * x^(q^i)) is kept sparsely as (exponent, coefficient)
pairs; coefficients are encodings valid in the tower's top field (elements of
the middle field embed with unchanged encodings, so middle-level coefficients
can be used directly).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    BadSupport,
    Infeasible,
    LevelMismatch,
    WrongCharacteristic,
    ZeroShift,
)
from .field_tower import FieldTower, build_tower, enc_from_nested, poly_gcd
from .orbit_codes import DEFAULT_SCAN_BUDGET
from .subspace_linalg import (
    Subspace,
    field_matrix_rank,
    map_kernel,
    orbit_size,
    union_distance,
)


@dataclass(frozen=True)
class LinearizedPolynomial:
    """sum of coeff * x^(q^exp) with coefficients in the tower's top field."""

    tower: FieldTower = field(repr=False)
    coeffs: tuple[tuple[int, int], ...]  # (q-exponent, encoding), ascending, nonzero

    @property
    def q_degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else -1

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.coeffs)

    def coeff(self, exp: int) -> int:
        for e, c in self.coeffs:
            if e == exp:
                return c
        return 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1][1] == 1

    def evaluate(self, x: int) -> int:
        """GF(q)-linear evaluation at a top-field element."""
        top = self.tower.top
        q = self.tower.q
        acc = 0
        power = x  # x^(q^i)
        idx = 0
        for i in range(self.q_degree + 1):
            e, c = self.coeffs[idx]
            if e == i:
                acc = top.add(acc, top.mul(c, power))
                idx += 1
                if idx == len(self.coeffs):
                    break
            power = top.pow(power, q)
        return acc


def linpoly(tower: FieldTower, mapping: Mapping[int, int]) -> LinearizedPolynomial:
    """Build a q-polynomial from {exponent: encoding}, dropping zeros."""
    top_order = tower.top.order
    items = []
    for e, c in mapping.items():
        e, c = int(e), int(c)
        if not 0 <= c < top_order:
            raise LevelMismatch("coefficient encoding out of range for the top field")
        if c:
            items.append((e, c))
    items.sort()
    return LinearizedPolynomial(tower, tuple(items))


def kernel_subspace(P: LinearizedPolynomial) -> Subspace:
    """Kernel of x -> P(x) on GF(q^m) as a GF(q)-subspace, via the m x m
    coordinate matrix of the map."""
    tower = P.tower
    m = tower.m
    images = [P.evaluate(tower.unflatten([1 if i == j else 0 for i in range(m)])) for j in range(m)]
    return map_kernel(tower, images)


def shift_transform(P: LinearizedPolynomial, alpha: int) -> LinearizedPolynomial:
    """The polynomial vanishing on alpha*V when P vanishes on V: the
    coefficient at exponent j picks up the factor alpha^(q^k - q^j)."""
    if alpha == 0:
        raise ZeroShift("shift by zero")
    if not P.is_monic():
        raise BadSupport("shift transform needs a monic polynomial")
    tower = P.tower
    top = tower.top
    q = tower.q
    k = P.q_degree
    out = []
    for e, c in P.coeffs:
        if e == k:
            out.append((e, c))
        else:
            out.append((e, top.mul(top.pow(alpha, q ** k - q ** e), c)))
    return LinearizedPolynomial(tower, tuple(out))


# -- ordinary polynomial view ------------------------------------------------------
#
# No library path takes the gcd of two q-polynomials.  ``densify`` and
# ``dense_gcd`` serve the gcd oracle of the tests and the benchmark's
# ``dense_gcd`` probe, which counts these gcds apart from the tower's
# irreducibility tests.

def densify(P: LinearizedPolynomial) -> list[int]:
    """Ordinary coefficient list (low degree first) of the q-polynomial."""
    q = P.tower.q
    out = [0] * (q ** P.q_degree + 1)
    for e, c in P.coeffs:
        out[q ** e] = c
    return out


def dense_gcd(top, a: list[int], b: list[int]) -> list[int]:
    """Monic gcd of ordinary polynomials over the top field."""
    return poly_gcd(top, a, b)


# -- the rank-matrix criterion ---------------------------------------------------

def validate_support(P: LinearizedPolynomial, s: int) -> None:
    """Monic, support within {0..s+1} u {k}, with the coefficients at
    exponents s+1, s and 0 all nonzero."""
    k = P.q_degree
    if not P.is_monic():
        raise BadSupport("polynomial must be monic")
    allowed = set(range(s + 2)) | {k}
    if not set(P.support) <= allowed:
        raise BadSupport(f"support {P.support} not within {sorted(allowed)}")
    for e in (s + 1, s, 0):
        if P.coeff(e) == 0:
            raise BadSupport(f"coefficient at exponent {e} must be nonzero")


@dataclass(frozen=True)
class RankMatrix:
    """The (k+1) x (k-s+1) matrix whose full column rank at every admissible
    shift certifies small intersections between shifted kernels."""

    entries: tuple[tuple[int, ...], ...]


def _matrix_rows(top, q: int, k: int, s: int, r: list[int], last_col: list[int]) -> list[list[int]]:
    """(k+1) x (k-s+1) rows: the twisted differences r_t on a descending
    diagonal band raised to shrinking q-powers, then the coefficient column."""
    ncols = k - s + 1
    rows = [[0] * ncols for _ in range(k + 1)]
    for c in range(k - s):
        e = q ** (k - s - 1 - c)
        for off in range(s + 2):
            rows[c + off][c] = top.pow(r[s + 1 - off], e)
    for rho in range(k + 1):
        rows[rho][ncols - 1] = last_col[rho]
    return rows


def build_rank_matrix(
    Pi: LinearizedPolynomial, Pj: LinearizedPolynomial, alpha: int, s: int
) -> RankMatrix:
    """Columns 0..k-s-1 carry the q-power twisted differences
    r_t = gamma_(t,i) - gamma_(t,j) * alpha^(q^k - q^t) on a descending
    diagonal band; the last column is the coefficient vector of Pi by
    descending q-degree."""
    validate_support(Pi, s)
    validate_support(Pj, s)
    if alpha == 0:
        raise ZeroShift("alpha must be nonzero")
    tower = Pi.tower
    top = tower.top
    q = tower.q
    k = Pi.q_degree
    if Pj.q_degree != k:
        raise BadSupport("polynomials must share the q-degree")
    r = [
        top.sub_(Pi.coeff(t), top.mul(Pj.coeff(t), top.pow(alpha, q ** k - q ** t)))
        for t in range(s + 2)
    ]
    last_col = [Pi.coeff(k - rho) for rho in range(k + 1)]
    rows = _matrix_rows(top, q, k, s, r, last_col)
    return RankMatrix(tuple(tuple(row) for row in rows))


@dataclass
class CriteriaVerdict:
    """Outcome of the two union-distance conditions, with witnesses."""

    rank_ok: bool
    rank_witness: tuple | None  # (i, j, alpha, rank)
    coeff_ok: bool
    coeff_witnesses: list
    alphas_checked: int
    rank_matrices: int  # matrices the rank verdict took; not part of the result

    @property
    def passed(self) -> bool:
        return self.rank_ok and self.coeff_ok

    def to_json(self) -> dict:
        return {
            "rank_condition_ok": self.rank_ok,
            "rank_witness": self.rank_witness,
            "coefficient_condition_ok": self.coeff_ok,
            "coefficient_witnesses": self.coeff_witnesses,
            "alphas_checked": self.alphas_checked,
            "passed": self.passed,
        }


def _admissible_alphas(tower: FieldTower, k: int, s: int) -> list[int]:
    """All nonzero alpha excluding the subfields GF(q^(k-s-1)) and GF(q^k)
    intersected with the working field."""
    q = tower.q
    N = tower.m
    top = tower.top
    g1 = math.gcd(k - s - 1, N)
    g2 = math.gcd(k, N)
    out = []
    e1 = q ** g1
    e2 = q ** g2
    for alpha in range(1, top.order):
        if top.pow(alpha, e1) == alpha or top.pow(alpha, e2) == alpha:
            continue
        out.append(alpha)
    return out


def _rank_condition(
    polys: list[LinearizedPolynomial], s: int, budget: int
) -> tuple[bool, tuple | None, int, int]:
    """Condition (1): the budget is checked per call, the scan once per family.
    Returns (ok, witness, matrices ranked, admissible alphas)."""
    n_alphas = len(_admissible_alphas(polys[0].tower, polys[0].q_degree, s))
    if n_alphas * len(polys) ** 2 > budget:
        raise Infeasible("rank scan exceeds budget")
    return (*_rank_verdict(tuple(polys), s), n_alphas)


@functools.lru_cache(maxsize=1)
def _rank_verdict(
    polys: tuple[LinearizedPolynomial, ...], s: int
) -> tuple[bool, tuple | None, int]:
    tower = polys[0].tower
    top = tower.top
    q = tower.q
    k = polys[0].q_degree
    alphas = _admissible_alphas(tower, k, s)
    want = k - s + 1
    gammas = [[P.coeff(t) for t in range(s + 2)] for P in polys]
    exps = [q ** k - q ** t for t in range(s + 2)]
    last_cols = [[P.coeff(k - rho) for rho in range(k + 1)] for P in polys]
    ranked = 0
    for alpha in alphas:
        apow = [top.pow(alpha, e) for e in exps]
        for i in range(len(polys)):
            gi = gammas[i]
            for j in range(len(polys)):
                gj = gammas[j]
                r = [top.sub_(gi[t], top.mul(gj[t], apow[t])) for t in range(s + 2)]
                rows = _matrix_rows(top, q, k, s, r, last_cols[i])
                rank = field_matrix_rank(top, rows)
                ranked += 1
                if rank != want:
                    return False, (i, j, alpha, rank), ranked
    return True, None, ranked


def check_union_distance_criteria(
    polys: list[LinearizedPolynomial], s: int, budget: int = DEFAULT_SCAN_BUDGET
) -> CriteriaVerdict:
    """The two sufficient conditions for the union of the kernel orbits to be
    a cyclic code of distance >= 2k - 2s.

    (1) every rank matrix has full column rank k - s + 1 for every ordered
        pair and every admissible alpha;
    (2) for every unordered pair i != j some exponent h <= s + 1 coprime to
        the coefficient-field degree separates the twisted coefficient
        ratios (h is only eligible where both h-coefficients are nonzero).
    """
    tower = polys[0].tower
    k = polys[0].q_degree
    if not (k > 2 and 1 <= s < k - 1):
        raise BadSupport("need k > 2 and 1 <= s < k - 1")
    for P in polys:
        validate_support(P, s)
        if P.q_degree != k:
            raise BadSupport("polynomials must share the q-degree")
    rank_ok, witness, ranked, n_alphas = _rank_condition(polys, s, budget)

    top = tower.top
    q = tower.q
    n_coeff = tower.k  # degree of the coefficient field over GF(q)
    e_k = (q ** k - 1) // (q - 1)
    failures = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            found = False
            g0 = top.mul(polys[i].coeff(0), top.inv(polys[j].coeff(0)))
            for h in range(1, s + 2):
                if math.gcd(h, n_coeff) != 1:
                    continue
                chi, chj = polys[i].coeff(h), polys[j].coeff(h)
                if chi == 0 or chj == 0:
                    continue
                e_h = (q ** h - 1) // (q - 1)
                gh = top.mul(chi, top.inv(chj))
                lhs = top.pow(g0, e_h)
                rhs = top.pow(top.mul(g0, top.inv(gh)), e_k)
                if lhs != rhs:
                    found = True
                    break
            if not found:
                failures.append((i, j))
    return CriteriaVerdict(rank_ok, witness, not failures, failures, n_alphas, ranked)


def check_union_distance_criteria_gf2(
    polys: list[LinearizedPolynomial], s: int, budget: int = DEFAULT_SCAN_BUDGET
) -> CriteriaVerdict:
    """Characteristic-2 specialization: condition (2) becomes "constant
    coefficients pairwise distinct, and some h coprime to the coefficient
    degree has the h-coefficient equal to the constant one in both
    polynomials"."""
    tower = polys[0].tower
    if tower.q != 2:
        raise WrongCharacteristic("this criterion requires q = 2")
    k = polys[0].q_degree
    if not (k > 2 and 1 <= s < k - 1):
        raise BadSupport("need k > 2 and 1 <= s < k - 1")
    for P in polys:
        validate_support(P, s)
    rank_ok, witness, ranked, n_alphas = _rank_condition(polys, s, budget)
    n_coeff = tower.k
    mid_order = tower.mid.order
    failures = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            g0i, g0j = polys[i].coeff(0), polys[j].coeff(0)
            ok = g0i != g0j
            if ok:
                ok = any(
                    math.gcd(h, n_coeff) == 1
                    and polys[i].coeff(h) == g0i
                    and polys[j].coeff(h) == g0j
                    and 0 < g0i < mid_order
                    and 0 < g0j < mid_order
                    for h in range(1, s + 2)
                )
            if not ok:
                failures.append((i, j))
    return CriteriaVerdict(rank_ok, witness, not failures, failures, n_alphas, ranked)


# -- exact distance and size of polynomial-kernel unions -------------------------

@dataclass
class PolyCodeReport:
    distance: int
    size: int
    orbit_sizes: list[int]
    collisions: list[tuple[int, int]]
    differences: int  # log differences examined; not part of the result

    def to_json(self) -> dict:
        return {
            "distance": self.distance,
            "size": str(self.size),
            "orbit_sizes": self.orbit_sizes,
            "orbit_collisions": self.collisions,
        }


def poly_code_distance(
    polys: list[LinearizedPolynomial], budget: int = DEFAULT_SCAN_BUDGET
) -> PolyCodeReport:
    """Exact minimum distance and size of the union of kernel orbits, by
    ``union_distance`` on the kernels."""
    k = polys[0].q_degree
    kernels = [kernel_subspace(P) for P in polys]
    for V in kernels:
        if V.dim != k:
            raise BadSupport(
                f"kernel dimension {V.dim} below the q-degree {k}: "
                "not a subspace polynomial for this field"
            )
    best, collisions, differences = union_distance(kernels, budget)
    sizes = [orbit_size(V) for V in kernels]
    total = sum(sizes) if not collisions else -1
    return PolyCodeReport(best, total, sizes, collisions, differences)


# -- serialization -----------------------------------------------------------------

def poly_family_from_json(obj: dict, N: int) -> tuple[FieldTower, list[LinearizedPolynomial], int, int]:
    """Load a family of q-polynomials from the wire format
    {q, coeff_field_degree, k, s, polys: [{exponent: element}]}, hosting the
    kernels in GF(q^N).

    Elements are xi-exponents (integers) or coordinate vectors (nested
    arrays over the coefficient field, low degree first).
    """
    q = int(obj["q"])
    n_coeff = int(obj["coeff_field_degree"])
    k = int(obj["k"])
    s = int(obj["s"])
    if N % n_coeff:
        raise BadSupport(f"N={N} is not a multiple of the coefficient degree {n_coeff}")
    p, a = _prime_power(q)
    tower = build_tower(p, a, n_coeff, N // n_coeff)
    polys = []
    for raw in obj["polys"]:
        mapping = {}
        for e, val in raw.items():
            if isinstance(val, list):
                enc = enc_from_nested(tower.mid, val)
            else:
                enc = tower.mid.pow(tower.xi, int(val))
            mapping[int(e)] = enc
        polys.append(linpoly(tower, mapping))
    for P in polys:
        validate_support(P, s)
        if P.q_degree != k:
            raise BadSupport("polynomial q-degree disagrees with the declared k")
    return tower, polys, k, s


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            a = 0
            while q % p == 0:
                q //= p
                a += 1
            if q != 1:
                raise BadSupport("q must be a prime power")
            return p, a
    raise BadSupport("q must be >= 2")
