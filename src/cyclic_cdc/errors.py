"""Exception types shared across the package."""


class CdcError(Exception):
    """Base class for all package errors."""


# -- field tower ------------------------------------------------------------

class NotPrime(CdcError):
    """The claimed characteristic is not a prime."""


class SearchExhausted(CdcError):
    """A deterministic search (irreducible polynomial, primitive element)
    ran past its bound; indicates an implementation bug, not bad input."""


class DivisionByZero(CdcError):
    """Multiplicative inverse of zero requested."""


class LevelMismatch(CdcError):
    """An encoding or level name that does not belong to the requested
    tower level."""


class ZeroElement(CdcError):
    """Operation undefined on the zero element (e.g. the discrete log)."""


# -- subspace linear algebra ------------------------------------------------

class AmbientMismatch(CdcError):
    """Subspaces live in different ambient fields."""


class ZeroShift(CdcError):
    """Cyclic shift by zero requested."""


class EmptyInput(CdcError):
    """A nonzero span was required but the input spans only {0}."""


# -- constructions ----------------------------------------------------------

class InvalidParams(CdcError):
    """Construction parameters violate an invariant (message names it)."""


class BadShape(CdcError):
    """Tower shape does not match the requested construction family."""


class GreedyFellShort(CdcError):
    """The avoiding-set search produced fewer elements than guaranteed."""


# -- codes, formulas, scans -------------------------------------------------

class DimensionMismatch(CdcError):
    """Union generators do not share a common dimension."""


class InexactDivision(CdcError):
    """A closed-form evaluation left a remainder; transcription bug."""


class Infeasible(CdcError):
    """An exhaustive scan exceeds the configured budget."""


class BrokenInvariant(CdcError):
    """A computed quantity contradicts the theory it rests on; indicates an
    implementation bug, not bad input."""


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
