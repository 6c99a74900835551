"""Finite-field tower GF(p) <= GF(q) <= GF(q^k) <= GF(q^m), with m = t*k.

Every field element is represented by a single integer encoding: the
coefficient vector over the level immediately below, packed in base
``suborder`` with the constant term in the lowest digit.  Because each level
is a polynomial quotient over the one below, the packed digits of a top-level
encoding are exactly the flattened GF(q)-coordinates of the element in the
basis {1, gamma, ..., gamma^(t-1)} tensored with the lower bases (gamma-power
major, lower basis minor).  A pleasant consequence is that the embedding of a
lower level into a higher one is the identity on encodings.

Field construction is fully deterministic: defining polynomials are the first
irreducible monic polynomials in ascending order of the packed non-leading
coefficient vector, and primitive elements are the first (in ascending
encoding order) with full multiplicative order.  Identical parameters always
produce identical towers.

Arithmetic strategy: levels of order <= 2^16 carry discrete log/exp tables
(multiplication, inversion and powering become table lookups); levels of
order <= 2^8 additionally carry dense addition/multiplication tables so that
schoolbook multiplication in the levels above them runs on plain list
indexing.  Larger levels multiply by schoolbook polynomial products over the
level below, and take discrete logs by baby-step giant-step.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Union

from .errors import (
    DivisionByZero,
    LevelMismatch,
    NotPrime,
    SearchExhausted,
    ZeroElement,
)

FULL_TABLE_LIMIT = 1 << 8   # dense add/mul/inv tables
LOG_TABLE_LIMIT = 1 << 16   # discrete log/exp tables


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale group orders)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PrimeField:
    """GF(p) with elements 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.order = p
        self.char = p
        self.degree = 1
        self.sub = None

    def add(self, a, b):
        return (a + b) % self.order

    def sub_(self, a, b):
        return (a - b) % self.order

    def neg(self, a):
        return (-a) % self.order

    def mul(self, a, b):
        return (a * b) % self.order

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.order - 2, self.order)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.order)
        return pow(a, e, self.order)

    def digits(self, a):
        return (a,)

    def __repr__(self):
        return f"GF({self.order})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.order == self.order

    def __hash__(self):
        return hash(("PrimeField", self.order))


class ExtensionField:
    """GF(suborder^d) as sub[x]/(def_poly), def_poly monic of degree d.

    ``def_poly`` is a tuple of sub-level encodings, constant term first,
    leading coefficient 1.
    """

    def __init__(self, sub: "Field", def_poly: tuple[int, ...]):
        if len(def_poly) < 2 or def_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree >= 1")
        self.sub = sub
        self.def_poly = tuple(def_poly)
        self.degree = len(def_poly) - 1
        self.order = sub.order ** self.degree
        self.char = sub.char
        # x^degree == sum(_red[i] * x^i)
        self._red = tuple(sub.neg(c) for c in def_poly[:-1])
        self._exp: list[int] | None = None
        self._log: dict[int, int] | list | None = None
        self._add_table = None
        self._mul_table = None
        self._inv_table = None
        # filled on first use; plain attributes, not functools.cached_property,
        # whose write to the instance __dict__ slows every later attribute
        # read of the field (about 30 % on a table mul)
        self._primitive: int | None = None
        self._bsgs: tuple[dict[int, int], int, int] | None = None
        self._build_tables()

    # -- encoding helpers ---------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        so = self.sub.order
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, so)
            out.append(r)
        return tuple(out)

    def from_digits(self, digs) -> int:
        so = self.sub.order
        enc = 0
        for d in reversed(list(digs)):
            enc = enc * so + d
        return enc

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        if self.char == 2:
            return a ^ b
        t = self._add_table
        if t is not None:
            return t[a][b]
        so = self.sub.order
        sadd = self.sub.add
        enc = 0
        mult = 1
        for _ in range(self.degree):
            a, ra = divmod(a, so)
            b, rb = divmod(b, so)
            enc += sadd(ra, rb) * mult
            mult *= so
        return enc

    def sub_(self, a, b):
        if self.char == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.char == 2:
            return a
        so = self.sub.order
        sneg = self.sub.neg
        enc = 0
        mult = 1
        for _ in range(self.degree):
            a, ra = divmod(a, so)
            enc += sneg(ra) * mult
            mult *= so
        return enc

    def mul(self, a, b):
        t = self._mul_table
        if t is not None:
            return t[a][b]
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            o1 = self.order - 1
            return self._exp[(self._log[a] + self._log[b]) % o1]
        return self._mul_poly(a, b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self._exp is not None:
            o1 = self.order - 1
            return self._exp[(o1 - self._log[a]) % o1]
        return self._pow_sm(a, self.order - 2)

    def pow(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            o1 = self.order - 1
            return self._exp[(self._log[a] * e) % o1]
        return self._pow_sm(a, e % (self.order - 1) if e >= self.order else e)

    def discrete_log(self, x: int) -> int:
        """The e in [0, order - 1) with g^e = x, g = ``self.primitive``:
        from the log table, or else by baby-step giant-step."""
        if x == 0:
            raise ZeroElement("log of 0 undefined")
        if self._log is not None:
            return self._log[x]
        if self._bsgs is None:
            self._bsgs = self._baby_steps()
        baby, step, giant = self._bsgs
        y = x
        for i in range(step):
            j = baby.get(y)
            if j is not None:
                return i * step + j
            y = self.mul(y, giant)
        raise LevelMismatch(f"{x} is not an element of {self!r}")

    def _baby_steps(self) -> tuple[dict[int, int], int, int]:
        """({g^j: j for j < s}, s, g^-s) with s = ceil(sqrt(order - 1))."""
        step = math.isqrt(self.order - 2) + 1
        g = self.primitive
        baby = {}
        y = 1
        for j in range(step):
            baby[y] = j
            y = self.mul(y, g)
        return baby, step, self.inv(y)

    def _pow_sm(self, a, e):
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def _mul_poly(self, a, b):
        if a == 0 or b == 0:
            return 0
        so = self.sub.order
        d = self.degree
        av = []
        for _ in range(d):
            a, r = divmod(a, so)
            av.append(r)
        bv = []
        for _ in range(d):
            b, r = divmod(b, so)
            bv.append(r)
        prod = [0] * (2 * d - 1)
        mt = self.sub._mul_table if isinstance(self.sub, ExtensionField) else None
        at = self.sub._add_table if isinstance(self.sub, ExtensionField) else None
        if mt is not None and at is not None:
            for i, ai in enumerate(av):
                if ai:
                    row = mt[ai]
                    for j, bj in enumerate(bv):
                        if bj:
                            prod[i + j] = at[prod[i + j]][row[bj]]
        else:
            smul = self.sub.mul
            sadd = self.sub.add
            for i, ai in enumerate(av):
                if ai:
                    for j, bj in enumerate(bv):
                        if bj:
                            prod[i + j] = sadd(prod[i + j], smul(ai, bj))
        red = self._red
        smul = self.sub.mul
        sadd = self.sub.add
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, rj in enumerate(red):
                    if rj:
                        prod[i - d + j] = sadd(prod[i - d + j], smul(c, rj))
        enc = 0
        for v in reversed(prod[:d]):
            enc = enc * so + v
        return enc

    # -- table construction ---------------------------------------------------

    def _build_tables(self):
        if self.order > LOG_TABLE_LIMIT:
            return
        gen = self.primitive
        o1 = self.order - 1
        exp = [1] * o1
        log: list[int] = [0] * self.order
        x = 1
        for i in range(o1):
            exp[i] = x
            log[x] = i
            x = self._mul_poly(x, gen)
        self._exp = exp
        self._log = log
        if self.order <= FULL_TABLE_LIMIT:
            n = self.order
            self._mul_table = [[0] * n for _ in range(n)]
            for i in range(1, n):
                row = self._mul_table[i]
                li = log[i]
                for j in range(1, n):
                    row[j] = exp[(li + log[j]) % o1]
            if self.char == 2:
                self._add_table = [[i ^ j for j in range(n)] for i in range(n)]
            else:
                self._add_table = [[self.add(i, j) for j in range(n)] for i in range(n)]
            self._inv_table = [0] * n
            for i in range(1, n):
                self._inv_table[i] = exp[(o1 - log[i]) % o1]

    @property
    def primitive(self) -> int:
        """First encoding (ascending) of full multiplicative order, searched
        once per field."""
        if self._primitive is None:
            self._primitive = self._search_primitive()
        return self._primitive

    def _search_primitive(self) -> int:
        # until the tables exist, _pow_sm multiplies by _mul_poly
        o1 = self.order - 1
        if o1 == 1:
            return 1
        facs = factorize(o1)
        for g in range(2, self.order):
            if all(self._pow_sm(g, o1 // prime) != 1 for prime in facs):
                return g
        raise SearchExhausted("no primitive element found")

    def __repr__(self):
        return f"GF({self.sub.order}^{self.degree})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.sub == self.sub
            and other.def_poly == self.def_poly
        )

    def __hash__(self):
        return hash(("ExtensionField", hash(self.sub), self.def_poly))


Field = Union[PrimeField, ExtensionField]


# -- dense polynomial helpers over an arbitrary level (for searches) ---------

def _ptrim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _pmul(F: Field, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return _ptrim(out)


def _pmod(F: Field, a: list[int], m: list[int]) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = F.inv(m[-1])
    while len(a) - 1 >= dm and a:
        c = F.mul(a[-1], inv_lead)
        shift = len(a) - 1 - dm
        for j, mj in enumerate(m):
            if mj:
                a[shift + j] = F.sub_(a[shift + j], F.mul(c, mj))
        _ptrim(a)
    return a


def _ppowmod(F: Field, base: list[int], e: int, m: list[int]) -> list[int]:
    acc = [1]
    base = _pmod(F, base, m)
    while e:
        if e & 1:
            acc = _pmod(F, _pmul(F, acc, base), m)
        base = _pmod(F, _pmul(F, base, base), m)
        e >>= 1
    return acc


def poly_gcd(F: Field, a: list[int], b: list[int]) -> list[int]:
    """Monic gcd of ordinary polynomials over F (coefficients low degree
    first).  The inputs are trimmed first: a difference of two monic
    polynomials has a zero leading coefficient."""
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pmod(F, a, b)
    if a:
        inv = F.inv(a[-1])
        a = [F.mul(inv, c) for c in a]
    return a


def poly_is_irreducible(F: Field, poly: list[int]) -> bool:
    """Rabin irreducibility test for a monic polynomial over F."""
    d = len(poly) - 1
    if d < 1:
        return False
    if poly[0] == 0:
        return d == 1  # divisible by x
    if d == 1:
        return True
    Q = F.order
    x = [0, 1]
    # x^(Q^d) == x (mod poly)
    if _pmod(F, _psub(F, _ppowmod(F, x, Q ** d, poly), x), poly):
        return False
    for prime in factorize(d):
        h = _psub(F, _ppowmod(F, x, Q ** (d // prime), poly), x)
        g = poly_gcd(F, poly, h)
        if len(g) != 1:
            return False
    return True


def _psub(F: Field, a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out.append(F.sub_(ai, bi))
    return _ptrim(out)


def first_irreducible(F: Field, degree: int) -> tuple[int, ...]:
    """First monic irreducible of given degree, by ascending packed
    non-leading coefficient vector."""
    if degree == 1:
        return (0, 1)  # x itself
    for enc in range(F.order ** degree):
        coeffs = []
        e = enc
        for _ in range(degree):
            e, r = divmod(e, F.order)
            coeffs.append(r)
        poly = coeffs + [1]
        if poly_is_irreducible(F, poly):
            return tuple(poly)
    raise SearchExhausted(f"no irreducible of degree {degree} over {F!r}")


# -- the tower ----------------------------------------------------------------


class FieldTower:
    """The four-level chain GF(p) <= GF(q) <= GF(q^k) <= GF(q^m), m = t*k.

    Attributes:
        p, a, k, t: construction parameters (q = p^a, m = t*k).
        prime, q_level, mid, top: the field objects.
        xi: encoding of the first primitive element of GF(q^k).
        gamma: encoding of the distinguished root of def_poly_top in GF(q^m).

    Immutable after construction; safe to share.
    """

    def __init__(self, p: int, a: int, k: int, t: int):
        if a < 1 or k < 1 or t < 1:
            raise ValueError("a, k, t must be >= 1")
        self.p, self.a, self.k, self.t = p, a, k, t
        self.prime = PrimeField(p)
        self.def_poly_q = first_irreducible(self.prime, a)
        self.q_level = ExtensionField(self.prime, self.def_poly_q)
        self.q = self.q_level.order
        self.def_poly_k = first_irreducible(self.q_level, k)
        self.mid = ExtensionField(self.q_level, self.def_poly_k)
        self.def_poly_top = first_irreducible(self.mid, t)
        self.top = ExtensionField(self.mid, self.def_poly_top)
        self.m = t * k
        self.xi = self.mid.primitive
        self.gamma = self.mid.order if t > 1 else self._gamma_deg1()

    def _gamma_deg1(self) -> int:
        # degree-1 top: gamma is the root of x + c, i.e. -c
        return self.mid.neg(self.def_poly_top[0])

    # -- level bookkeeping ----------------------------------------------------

    def field(self, level: str) -> Field:
        try:
            return {
                "prime": self.prime,
                "q": self.q_level,
                "mid": self.mid,
                "top": self.top,
            }[level]
        except KeyError:
            raise LevelMismatch(f"unknown level {level!r}") from None

    # -- GF(q)-coordinates ------------------------------------------------------

    def flatten(self, enc: int) -> tuple[int, ...]:
        """GF(q)-coordinate vector (length m) of a top-level element."""
        q = self.q
        out = []
        for _ in range(self.m):
            enc, r = divmod(enc, q)
            out.append(r)
        return tuple(out)

    def unflatten(self, coords) -> int:
        q = self.q
        enc = 0
        for c in reversed(list(coords)):
            enc = enc * q + c
        return enc

    def scalar_mul(self, c: int, x: int) -> int:
        """Multiply a top element by a GF(q) scalar (c < q)."""
        if c == 0:
            return 0
        if c == 1:
            return x
        mo = self.mid.order
        mmul = self.mid.mul
        enc = 0
        mult = 1
        while x:
            x, d = divmod(x, mo)
            if d:
                enc += mmul(c, d) * mult
            mult *= mo
        return enc

    def canon_projective(self, x: int) -> int:
        """Scale x so its first nonzero GF(q)-coordinate is 1."""
        if x == 0 or self.q == 2:
            return x
        q = self.q
        y = x
        while y:
            y, d = divmod(y, q)
            if d:
                if d == 1:
                    return x
                return self.scalar_mul(self.q_level.inv(d), x)
        return x

    def projective_reps(self, level: str = "top") -> Iterator[int]:
        """One representative per GF(q)*-class of nonzero elements: those
        whose first nonzero GF(q)-coordinate equals 1."""
        f = self.field(level)
        q = self.q
        if q == 2:
            yield from range(1, f.order)
            return
        for enc in range(1, f.order):
            y = enc
            while y:
                y, d = divmod(y, q)
                if d:
                    break
            if d == 1:
                yield enc

    # -- serialization ----------------------------------------------------------

    def spec_dict(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "k": self.k,
            "t": self.t,
            "def_poly_q": [int(c) for c in self.def_poly_q],
            "def_poly_k": [nested_from_enc(self.q_level, c) for c in self.def_poly_k],
            "def_poly_top": [nested_from_enc(self.mid, c) for c in self.def_poly_top],
            "xi": nested_from_enc(self.mid, self.xi),
        }

    def __repr__(self):
        return f"FieldTower(p={self.p}, a={self.a}, k={self.k}, t={self.t})"

    def __eq__(self, other):
        return isinstance(other, FieldTower) and (
            (self.p, self.a, self.k, self.t) == (other.p, other.a, other.k, other.t)
        )

    def __hash__(self):
        return hash((self.p, self.a, self.k, self.t))


def nested_from_enc(F: Field, enc: int):
    """Recursive coefficient arrays down the tower, low degree first."""
    if isinstance(F, PrimeField):
        return int(enc)
    return [nested_from_enc(F.sub, d) for d in F.digits(enc)]


def enc_from_nested(F: Field, node) -> int:
    if isinstance(F, PrimeField):
        return int(node)
    return F.from_digits(enc_from_nested(F.sub, c) for c in node)


@functools.lru_cache(maxsize=None)
def build_tower(p: int, a: int, k: int, t: int) -> FieldTower:
    """Deterministic tower for q = p^a, middle degree k, top degree t over
    the middle (so GF(q^m) with m = t*k); NotPrime unless p is prime."""
    return FieldTower(p, a, k, t)


def tower_from_spec(spec: dict) -> FieldTower:
    """Rebuild a tower from its spec dict, validating determinism."""
    tw = build_tower(spec["p"], spec["a"], spec["k"], spec["t"])
    if tw.spec_dict() != spec:
        raise ValueError("tower spec does not match deterministic construction")
    return tw
