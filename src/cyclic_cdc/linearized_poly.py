"""Linearized (q-)polynomial machinery: kernels as subspaces, the
coefficient-twist under cyclic shifts, the rank-matrix criterion certifying
unions of polynomial-kernel orbits, and the exact distance and size of such
unions.

A q-polynomial sum(a_i * x^(q^i)) is kept sparsely as (exponent, coefficient)
pairs; coefficients are encodings valid in the tower's top field (elements of
the middle field embed with unchanged encodings, so middle-level coefficients
can be used directly).

A family is scanned once: ``poly_code_distance`` runs ``union_distance`` on
its kernels and keeps the family with that scan.  Both criteria take that
report, and the family only through it, with one family check
(``_check_family``) and one skeleton (``_criteria``): the rank-matrix
condition, off the scan's shared-pair histograms (a matrix loses rank exactly
where two kernels meet in more than s >= 1 dimensions, so only a failure's
witness is ranked), then each one's coefficient condition.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple

from .errors import (
    BadShape,
    BadSupport,
    InvalidParams,
    LevelMismatch,
    WrongCharacteristic,
    ZeroShift,
)
from .field_tower import (
    FieldTower, build_tower, enc_from_nested, json_field, json_object, poly_gcd, prime_power,
)
from .subspace_linalg import (
    DEFAULT_SCAN_BUDGET,
    Subspace,
    UnionScan,
    field_matrix_rank,
    map_kernel,
    union_distance,
)


class LinearizedPolynomial(NamedTuple):
    """sum of coeff * x^(q^exp) with coefficients in the tower's top field."""

    tower: FieldTower
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
    images = [P.evaluate(tower.q ** j) for j in range(tower.m)]
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


def _check_family(polys: list[LinearizedPolynomial], s: int) -> int:
    """The q-degree k of a nonempty family whose supports all pass
    ``validate_support``, with k > 2 and 1 <= s < k - 1 shared by every member."""
    if not polys:
        raise InvalidParams("the family has no polynomials")
    k = polys[0].q_degree
    if not (k > 2 and 1 <= s < k - 1):
        raise BadSupport("need k > 2 and 1 <= s < k - 1")
    for P in polys:
        validate_support(P, s)
        if P.q_degree != k:
            raise BadSupport("polynomials must share the q-degree")
    return k


class RankMatrix(NamedTuple):
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
    k = _check_family([Pi, Pj], s)
    if alpha == 0:
        raise ZeroShift("alpha must be nonzero")
    top, q = Pi.tower.top, Pi.tower.q
    r = [
        top.sub_(Pi.coeff(t), top.mul(Pj.coeff(t), top.pow(alpha, q ** k - q ** t)))
        for t in range(s + 2)
    ]
    last_col = [Pi.coeff(k - rho) for rho in range(k + 1)]
    rows = _matrix_rows(top, q, k, s, r, last_col)
    return RankMatrix(tuple(tuple(row) for row in rows))


class CriteriaVerdict(NamedTuple):
    """Outcome of the two union-distance conditions, with witnesses."""

    rank_ok: bool
    rank_witness: tuple | None  # (i, j, alpha, rank)
    coeff_ok: bool
    coeff_witnesses: list
    alphas_checked: int

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


def _rank_verdict(report: PolyCodeReport, s: int) -> tuple:
    """The rank-matrix condition of the report's family, read off the
    ``shift_dims`` that its scan keeps for the shared pairs i <= j of the
    kernels: it scans nothing itself.

    The columns of M_ij(alpha) are x^(q^a) o D for a < k - s, and P_i, with
    D = P_i - shift_transform(P_j, alpha) of q-degree <= s + 1.  A column
    relation is L o D = mu * P_i with q-deg L <= k - s - 1: if mu = 0 then
    D = 0; otherwise q-deg D = s + 1 and D right-divides P_i.  P_i splits with
    simple roots in the working field (its kernel V_i has dimension k), so its
    right divisors are the subspace polynomials of subspaces of V_i.  D
    vanishes on V_i ∩ alpha*V_j, so a nonzero D right-divides P_i exactly
    when that intersection has dimension s + 1, and D = 0 exactly when
    V_i = alpha*V_j.  So M_ij(alpha) loses rank exactly when
    dim(V_i ∩ alpha*V_j) > s: its rank is then 1 where D = 0, and k - s
    otherwise.  As s >= 1 only a shared pair fails, and as
    V_j ∩ alpha^-1*V_i = alpha^-1*(V_i ∩ alpha*V_j), (j, i) fails at
    canon(alpha^-1) where (i, j) fails at alpha.  Both sides, and
    admissibility, are constant on GF(q)*-classes of alpha, so the witness
    (i, j, alpha, rank) is at the smallest failing (alpha, i, j), as in a
    scan of every alpha.  Returns (ok, witness)."""
    polys = report.polys
    tower, k = polys[0].tower, polys[0].q_degree
    top, q = tower.top, tower.q
    subfields = (q ** math.gcd(k - s - 1, tower.m), q ** math.gcd(k, tower.m))
    failing = sorted(  # (smallest member of the class, i, j)
        (min(top.mul(c, x) for c in range(1, q)), a, b)
        for i, j, dims in report.scan.shared_pairs
        for rep, dim in dims.items() if dim > s
        for x, a, b in ((rep, i, j), (top.inv(rep), j, i)))
    for alpha, i, j in failing:
        if all(top.pow(alpha, e) != alpha for e in subfields):
            rank = field_matrix_rank(top, build_rank_matrix(polys[i], polys[j], alpha, s).entries)
            return False, (i, j, alpha, rank)
    return True, None


def _admissible_count(q: int, m: int, k: int, s: int) -> int:
    """The number of admissible alpha: the nonzero elements of GF(q^m) outside
    GF(q^a) and GF(q^b), a = gcd(k-s-1, m) and b = gcd(k, m), which meet in
    GF(q^gcd(a, b))."""
    a, b = math.gcd(k - s - 1, m), math.gcd(k, m)
    return q ** m - q ** a - q ** b + q ** math.gcd(a, b)


def _criteria(report: PolyCodeReport, s: int, separated) -> CriteriaVerdict:
    """Both criteria on the report's family: the family check, condition (1)
    from ``_rank_verdict`` and condition (2) as ``separated(Pi, Pj)`` on
    every unordered pair i < j."""
    polys = report.polys
    k = _check_family(polys, s)
    tower = polys[0].tower
    rank_ok, witness = _rank_verdict(report, s)
    failures = [(i, j) for (i, Pi), (j, Pj) in itertools.combinations(enumerate(polys), 2)
                if not separated(Pi, Pj)]
    n_alphas = _admissible_count(tower.q, tower.m, k, s)
    return CriteriaVerdict(rank_ok, witness, not failures, failures, n_alphas)


def check_union_distance_criteria(report: PolyCodeReport, s: int) -> CriteriaVerdict:
    """The two sufficient conditions for the union of the kernel orbits of
    ``report.polys`` to be a cyclic code of distance >= 2k - 2s; ``report``
    is ``poly_code_distance`` of that family, which it carries.

    (1) every rank matrix has full column rank k - s + 1 for every ordered
        pair and every admissible alpha;
    (2) for every unordered pair i != j some exponent h <= s + 1 coprime to
        the coefficient-field degree separates the twisted coefficient
        ratios (h is only eligible where both h-coefficients are nonzero).
    """
    def separated(Pi: LinearizedPolynomial, Pj: LinearizedPolynomial) -> bool:
        tower = Pi.tower
        top, q = tower.top, tower.q
        e_k = (q ** Pi.q_degree - 1) // (q - 1)
        g0 = top.mul(Pi.coeff(0), top.inv(Pj.coeff(0)))
        for h in range(1, s + 2):
            chi, chj = Pi.coeff(h), Pj.coeff(h)
            if math.gcd(h, tower.k) == 1 and chi and chj:  # tower.k: coefficient degree
                gh = top.mul(chi, top.inv(chj))
                if top.pow(g0, (q ** h - 1) // (q - 1)) != top.pow(top.mul(g0, top.inv(gh)), e_k):
                    return True
        return False

    return _criteria(report, s, separated)


def check_union_distance_criteria_gf2(report: PolyCodeReport, s: int) -> CriteriaVerdict:
    """Characteristic-2 specialization on the report's family: condition (2)
    becomes "constant coefficients pairwise distinct, and some h coprime to
    the coefficient degree has the h-coefficient equal to the constant one in
    both polynomials"."""
    if report.polys and report.polys[0].tower.q != 2:
        raise WrongCharacteristic("this criterion requires q = 2")

    def separated(Pi: LinearizedPolynomial, Pj: LinearizedPolynomial) -> bool:
        g0i, g0j = Pi.coeff(0), Pj.coeff(0)
        mid_order = Pi.tower.mid.order
        return g0i != g0j and 0 < g0i < mid_order and 0 < g0j < mid_order and any(
            math.gcd(h, Pi.tower.k) == 1 and Pi.coeff(h) == g0i and Pj.coeff(h) == g0j
            for h in range(1, s + 2))

    return _criteria(report, s, separated)


# -- exact distance and size of polynomial-kernel unions -------------------------

class PolyCodeReport(NamedTuple):
    """A family, and the one ``union_distance`` scan of its kernels, which
    states the exact distance, collisions, orbit sizes and size of the union
    of their orbits (the result) and the scan's work (not the result)."""

    polys: tuple[LinearizedPolynomial, ...]
    scan: UnionScan

    def to_json(self) -> dict:
        return {
            "distance": self.scan.distance,
            "size": str(self.scan.size),
            "orbit_sizes": self.scan.orbit_sizes,
            "orbit_collisions": self.scan.collisions,
        }


def poly_code_distance(
    polys: list[LinearizedPolynomial], budget: int = DEFAULT_SCAN_BUDGET
) -> PolyCodeReport:
    """Exact minimum distance and size of the union of kernel orbits, by one
    ``union_distance`` scan of the kernels, which must all split (dimension k).
    The size is the scan's, which counts a repeated orbit once."""
    if not polys:
        raise InvalidParams("the family has no polynomials")
    k = polys[0].q_degree
    kernels = [kernel_subspace(P) for P in polys]
    for V in kernels:
        if V.dim != k:
            raise BadSupport(f"kernel dimension {V.dim} below the q-degree {k}: "
                             "not a subspace polynomial for this field")
    return PolyCodeReport(tuple(polys), union_distance(kernels, budget))


# -- serialization -----------------------------------------------------------------

def poly_family_from_json(obj: dict, N: int) -> tuple[FieldTower, list[LinearizedPolynomial], int, int]:
    """Load a family of q-polynomials from the wire format
    {q, coeff_field_degree, k, s, polys: [{exponent: element}]}, hosting the
    kernels in GF(q^N).

    Elements are xi-exponents (integers) or coordinate vectors (nested
    arrays over the coefficient field, low degree first).
    """
    q, n_coeff, k, s = (json_field(obj, key) for key in ("q", "coeff_field_degree", "k", "s"))
    if N < 1:
        raise InvalidParams(f"N must be >= 1, got {N}")
    if n_coeff < 1:
        raise InvalidParams(f"coeff_field_degree must be >= 1, got {n_coeff}")
    if N % n_coeff:
        raise BadSupport(f"N={N} is not a multiple of the coefficient degree {n_coeff}")
    if not json_field(obj, "polys", list):
        raise InvalidParams("the family has no polynomials")
    p, a = prime_power(q)
    tower = build_tower(p, a, n_coeff, N // n_coeff)
    polys = []
    for raw in obj["polys"]:
        mapping = {}
        for e, val in json_object(raw).items():
            if not (e.isdecimal() and str(int(e)) == e):
                raise BadShape(f"exponent key {e!r} is not a plain decimal exponent >= 0")
            if isinstance(val, list):
                enc = enc_from_nested(tower.mid, val)
            else:
                enc = tower.mid.pow(tower.xi, json_field(raw, e))
            mapping[int(e)] = enc
        polys.append(linpoly(tower, mapping))
    if _check_family(polys, s) != k:
        raise BadSupport("polynomial q-degree disagrees with the declared k")
    return tower, polys, k, s

