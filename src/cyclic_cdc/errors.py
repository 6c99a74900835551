"""Exception types shared across the package."""


class CdcError(Exception):
    """Base class for all package errors."""


# -- field tower ------------------------------------------------------------

class NotPrime(CdcError):
    """The claimed characteristic is not a prime."""


class DivisionByZero(CdcError):
    """Multiplicative inverse of zero requested."""


class LevelMismatch(CdcError):
    """An encoding or level name that does not belong to the requested
    tower level."""


# -- subspace linear algebra ------------------------------------------------

class AmbientMismatch(CdcError):
    """Subspaces live in different ambient fields."""


class ZeroShift(CdcError):
    """Cyclic shift by zero requested."""


# -- constructions ----------------------------------------------------------

class InvalidParams(CdcError):
    """Construction parameters violate an invariant (message names it)."""


class BadShape(CdcError):
    """A tower (spec, defining polynomial) does not match its deterministic
    construction or the requested family, a stored basis is not canonical
    digit rows in GF(q)^m, or an integer input field is a float or a bool."""


# -- codes, formulas, scans -------------------------------------------------

class DimensionMismatch(CdcError):
    """Union generators do not share a common dimension."""


class Infeasible(CdcError):
    """An exhaustive scan exceeds the configured budget, or a step needs
    tables that a field above the table limit does not carry."""


class BrokenInvariant(CdcError):
    """A computed quantity contradicts the theory it rests on: a
    deterministic search (irreducible polynomial, primitive element) ran past
    its bound, the avoiding set fails its defining property, a closed form
    left a remainder, or an enumerated family misses its closed-form count.
    Indicates an implementation bug, not bad input."""


# -- linearized polynomials -------------------------------------------------

class BadSupport(CdcError):
    """Polynomial support violates the required coefficient pattern."""


class WrongCharacteristic(CdcError):
    """Operation restricted to q = 2 called with another q."""


# -- channel ----------------------------------------------------------------

class InfeasibleNoise(CdcError):
    """Requested error dimensions cannot fit in the ambient space."""


class DecodingFailure(CdcError):
    """A trial decoded wrongly although 2(erasures + insertions) is below
    the claimed minimum distance: the distance claim is false."""
