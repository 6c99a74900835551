"""Finite-field tower GF(p) <= GF(q) <= GF(q^k) <= GF(q^m), with m = t*k.

Every field element is represented by a single integer encoding: the
coefficient vector over the level immediately below, packed in base
``suborder`` with the constant term in the lowest digit.  Because each level
is a polynomial quotient over the one below, the packed digits of a top-level
encoding are exactly the flattened GF(q)-coordinates of the element in the
basis {1, gamma, ..., gamma^(t-1)} tensored with the lower bases (gamma-power
major, lower basis minor).  A pleasant consequence is that the embedding of a
lower level into a higher one is the identity on encodings.  So one codec
(``digits_of``, ``int_from_digits``) serves every level's digits and the
GF(q)-coordinates (``digits_of`` reads up to ten digits per ``divmod`` from a
table of at most 1,024 chunks, below base 33), and a GF(q) scalar c times x
is ``mul(c, x)``, with -x as ``mul(p - 1, x)``.

Field construction is fully deterministic: defining polynomials are the first
irreducible monic polynomials in ascending order of the packed non-leading
coefficient vector, and primitive elements are the first (in ascending
encoding order) with full multiplicative order.  Identical parameters always
produce identical towers.

Arithmetic strategy: levels of order <= 2^16 carry discrete log/exp tables
(multiplication, inversion and powering become table lookups), walked from 1
by x -> x*g with g primitive: x*g is the sum of the products of x's low and
high halves of digits, each read from a table of about sqrt(order) entries,
and g must not return to 1 early (else BrokenInvariant).  Levels of order
<= 2^8 also carry dense add/mul tables, by which the level above multiplies
and reduces its schoolbook products; above GF(p) or a larger level, a product
is ``_pmod(_pmul(...))``, as in the irreducibility test.  Levels above 2^16
multiply so and invert by powering, so ``batch_inverse`` inverts many
elements at the cost of one inversion (Montgomery's trick).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator, Sequence, Union

from .errors import (
    BadShape,
    BrokenInvariant,
    DivisionByZero,
    InvalidParams,
    LevelMismatch,
    NotPrime,
)

FULL_TABLE_LIMIT = 1 << 8   # dense add/mul tables
LOG_TABLE_LIMIT = 1 << 16   # discrete log/exp tables
CHUNK_TABLE_LIMIT = 1 << 10  # digits_of's chunk tables


@functools.lru_cache(maxsize=None)
def _chunk_table(base: int) -> tuple[int, list[tuple[int, ...]] | None]:
    """(base^c, the c digits of each i < base^c, least significant first) for
    the largest c with base^c <= CHUNK_TABLE_LIMIT; (base, None) if c < 2."""
    c = next((c for c in range(CHUNK_TABLE_LIMIT.bit_length(), 1, -1)
              if base ** c <= CHUNK_TABLE_LIMIT), 1)
    return base ** c, [t[::-1] for t in itertools.product(range(base), repeat=c)] if c > 1 else None


def digits_of(x: int, base: int, n: int) -> list[int]:
    """The n lowest base-``base`` digits of x, least significant first: several
    per ``divmod`` from the base's chunk table, or one for a base above 32."""
    size, table = _chunk_table(base)
    out = []
    while len(out) < n:
        x, r = divmod(x, size)
        out += table[r] if table else (r,)
    del out[n:]
    return out


def int_from_digits(digits: Sequence[int], base: int) -> int:
    """The integer whose base-``base`` digits, least significant first, are
    ``digits``: the inverse of ``digits_of``."""
    x = 0
    for d in reversed(digits):
        x = x * base + d
    return x


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


def prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a for a prime p; NotPrime for any other q."""
    facs = factorize(q)
    if len(facs) != 1:
        raise NotPrime(f"q={q} is not a prime power")
    ((p, a),) = facs.items()
    return p, a


class PrimeField:
    """GF(p) with elements 0..p-1."""

    _add_table = _mul_table = None  # the level above multiplies by _pmul, _pmod

    def __init__(self, p: int):
        if factorize(p) != {p: 1}:
            raise NotPrime(f"{p} is not prime")
        self.order = p
        self.char = p

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

    def __repr__(self):
        return f"GF({self.order})"


class ExtensionField:
    """GF(suborder^d) as sub[x]/(def_poly), def_poly monic of degree d.

    ``def_poly`` is a tuple of sub-level encodings, constant term first,
    leading coefficient 1.
    """

    def __init__(self, sub: "Field", def_poly: tuple[int, ...]):
        if len(def_poly) < 2 or def_poly[-1] != 1:
            raise BadShape("defining polynomial must be monic of degree >= 1")
        self.sub = sub
        self.def_poly = def_poly
        self.degree = len(def_poly) - 1
        self.order = sub.order ** self.degree
        self.char = sub.char
        # x^degree == sum(_red[i] * x^i)
        self._red = tuple(sub.neg(c) for c in def_poly[:-1])
        self._exp: list[int] | None = None
        self._log: dict[int, int] | list | None = None
        self._add_table = self._mul_table = self._inv_table = None
        # filled on first use; plain attributes, not functools.cached_property,
        # whose write to the instance __dict__ slows every later attribute
        # read of the field (about 30 % on a table mul)
        self._primitive: int | None = None
        self._build_tables()

    # -- encoding helpers ---------------------------------------------------

    def from_digits(self, digs: Sequence[int]) -> int:
        return int_from_digits(digs, self.sub.order)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        if self.char == 2:
            return a ^ b
        t = self._add_table
        if t is not None:
            return t[a][b]
        # inline: via the codec, the GF(3^8) and GF(3^4) table builds took 2-2.5x as long
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
        # -1 is the prime field's p - 1, an encoding that every level shares
        if self.char == 2:
            return a
        return self.mul(self.char - 1, a)

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

    def geometric(self, x: int, n: int) -> list[int]:
        """[x * g^i for 0 <= i < n], g the primitive element and n < order: a
        rotation of the exp table, or repeated multiplication without one."""
        if x and self._exp is not None:
            head = self._exp[self._log[x]:self._log[x] + n]
            return head + self._exp[:n - len(head)]
        out, g = [], self.primitive
        for _ in range(n):
            out.append(x)
            x = self.mul(x, g)
        return out

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
        sub, d = self.sub, self.degree
        so = sub.order
        av = digits_of(a, so, d)
        bv = digits_of(b, so, d)
        mt, at = sub._mul_table, sub._add_table
        if mt is None:
            return int_from_digits(_pmod(sub, _pmul(sub, av, bv), self.def_poly), so)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(av):
            if ai:
                row = mt[ai]
                for j, bj in enumerate(bv):
                    if bj:
                        prod[i + j] = at[prod[i + j]][row[bj]]
        red = self._red
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                row = mt[c]
                for j, rj in enumerate(red):
                    if rj:
                        prod[i - d + j] = at[prod[i - d + j]][row[rj]]
        return int_from_digits(prod[:d], so)

    # -- table construction ---------------------------------------------------

    def _build_tables(self):
        if self.order > LOG_TABLE_LIMIT:
            return
        n, o1 = self.order, self.order - 1
        if n <= FULL_TABLE_LIMIT:  # first, so that add below reads it
            if self.char == 2:
                self._add_table = [[i ^ j for j in range(n)] for i in range(n)]
            else:
                self._add_table = [[self.add(i, j) for j in range(n)] for i in range(n)]
        gen = self.primitive
        # x -> x*gen is additive: x split at digit ceil(d/2), halves tabulated
        split = self.sub.order ** ((self.degree + 1) // 2)
        low = [self._mul_poly(c, gen) for c in range(split)]
        high = [self._mul_poly(c * split, gen) for c in range(-(-n // split))]
        add = operator.xor if self.char == 2 else self.add
        exp = [1] * o1
        log: list[int] = [0] * n
        x = 1
        for i in range(o1):
            exp[i] = x
            log[x] = i
            x = add(low[x % split], high[x // split])
        if log[1]:  # gen returned to 1 before o1 steps
            raise BrokenInvariant(f"generator {gen} of {self!r} is not primitive")
        self._exp = exp
        self._log = log
        if n <= FULL_TABLE_LIMIT:
            self._mul_table = [[0] * n for _ in range(n)]
            for i in range(1, n):
                row = self._mul_table[i]
                li = log[i]
                for j in range(1, n):
                    row[j] = exp[(li + log[j]) % o1]
            self._inv_table = [0] + [exp[-log[i] % o1] for i in range(1, n)]

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
        raise BrokenInvariant("no primitive element found")

    def __repr__(self):
        return f"GF({self.sub.order}^{self.degree})"


Field = Union[PrimeField, ExtensionField]


def batch_inverse(F: Field, xs: Sequence[int]) -> list[int]:
    """Inverses of nonzero elements by Montgomery's trick: 3 ``mul`` per
    element and one ``inv`` in all.  A zero element raises DivisionByZero."""
    prefix = [1]  # prefix[i] = xs[0] * ... * xs[i - 1]
    for x in xs:
        prefix.append(F.mul(prefix[-1], x))
    inv, out = F.inv(prefix.pop()), []
    for x, p in zip(reversed(xs), reversed(prefix)):
        out.append(F.mul(inv, p))
        inv = F.mul(inv, x)
    return out[::-1]


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
    inv_lead = 1 if m[-1] == 1 else F.inv(m[-1])  # above 2^16, inv(1) powers
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
    """Ben-Or's irreducibility test for a monic polynomial over F, Q = |F|:
    one of degree d is reducible iff it has a monic irreducible factor of
    some degree i <= d/2, that is iff gcd(poly, x^(Q^i) - x) != 1."""
    d = len(poly) - 1
    if d < 1:
        return False
    x = h = [0, 1]
    for _ in range(d // 2):
        h = _ppowmod(F, h, F.order, poly)  # x^(Q^i) mod poly
        if len(poly_gcd(F, poly, _psub(F, h, x))) != 1:
            return False
    return True


def _psub(F: Field, a: list[int], b: list[int]) -> list[int]:
    return _ptrim([F.sub_(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def first_irreducible(F: Field, degree: int) -> tuple[int, ...]:
    """First monic irreducible of given degree, by ascending packed
    non-leading coefficient vector."""
    if degree == 1:
        return (0, 1)  # x itself
    for enc in range(F.order ** degree):
        poly = digits_of(enc, F.order, degree) + [1]
        if poly_is_irreducible(F, poly):
            return tuple(poly)
    raise BrokenInvariant(f"no irreducible of degree {degree} over {F!r}")


# -- the tower ----------------------------------------------------------------


class FieldTower:
    """The four-level chain GF(p) <= GF(q) <= GF(q^k) <= GF(q^m), m = t*k.

    Attributes:
        p, a, k, t: construction parameters (q = p^a, m = t*k).
        prime, q_level, mid, top: the field objects.
        xi: encoding of the first primitive element of GF(q^k).

    Immutable after construction; safe to share.
    """

    def __init__(self, p: int, a: int, k: int, t: int):
        if a < 1 or k < 1 or t < 1:
            raise InvalidParams(f"a, k, t must be >= 1, got {a}, {k}, {t}")
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
        return tuple(digits_of(enc, self.q, self.m))

    def unflatten(self, coords: Sequence[int]) -> int:
        return int_from_digits(coords, self.q)

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
                return self.top.mul(self.q_level.inv(d), x)
        return x

    def projective_reps(self, level: str = "top") -> Iterator[int]:
        """One representative per GF(q)*-class of nonzero elements of the
        level, ascending: the fixed points of ``canon_projective``."""
        canon = self.canon_projective
        return (x for x in range(1, self.field(level).order) if canon(x) == x)

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
    return [nested_from_enc(F.sub, d) for d in digits_of(enc, F.sub.order, F.degree)]


def enc_from_nested(F: Field, node) -> int:
    """Inverse of ``nested_from_enc`` on input-file arrays: BadShape unless
    each level lists its degree's coordinates and each digit is an integer
    in range(p)."""
    if isinstance(F, PrimeField):
        if type(node) is not int or not 0 <= node < F.order:
            raise BadShape(f"coordinate {node!r} is not an integer in range({F.order})")
        return node
    if not isinstance(node, list) or len(node) != F.degree:
        raise BadShape(f"{node!r} is not a list of {F.degree} coordinates over {F.sub!r}")
    return F.from_digits([enc_from_nested(F.sub, c) for c in node])


@functools.lru_cache(maxsize=None)
def build_tower(p: int, a: int, k: int, t: int) -> FieldTower:
    """Deterministic tower for q = p^a, middle degree k, top degree t over
    the middle (so GF(q^m) with m = t*k); NotPrime unless p is prime."""
    return FieldTower(p, a, k, t)


def json_object(obj) -> dict:
    """An input file's JSON object: BadShape for an array, a string or a number."""
    if type(obj) is not dict:
        raise BadShape(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def json_field(obj, key: str, kind: type = int):
    """``obj[key]`` of an input file's JSON object, which must have exactly the
    JSON type ``kind``: a float or a bool is no integer and raises BadShape
    rather than being truncated, and a number is no list."""
    value = json_object(obj)[key]
    if type(value) is not kind:
        raise BadShape(f"{key} must be of type {kind.__name__}, got {value!r:.60}")
    return value


def tower_from_spec(spec: dict) -> FieldTower:
    """Rebuild a tower from its spec dict, validating determinism."""
    tw = build_tower(*(json_field(spec, key) for key in ("p", "a", "k", "t")))
    if tw.spec_dict() != spec:
        raise BadShape("tower spec does not match the deterministic construction")
    return tw
