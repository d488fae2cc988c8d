"""Exception taxonomy.

Every failure the engine can signal deliberately has its own class so callers
can tell validation problems, budget overruns and inconclusive computations
apart.  check_int is the one test of an integer size, degree or field order.
"""

from __future__ import annotations


class CychomError(Exception):
    """Base class for all deliberate failures raised by this package."""


class ValidationError(CychomError):
    """Input data violates a structural precondition (bad algebra, bad map)."""


class ParseError(CychomError):
    """A scalar string could not be read."""


# -- scalar / linear algebra ------------------------------------------------

class DivisionByZero(ValidationError, ZeroDivisionError):
    """Inversion of the zero scalar."""


class FieldMismatch(ValidationError):
    """Arithmetic attempted between scalars of different cyclotomic orders."""


class AmbientMismatch(ValidationError):
    """Subspace operation on subspaces of different ambient dimensions."""


class NotContained(ValidationError):
    """A vector has no coordinates in the subspace or homology asked for."""


# -- algebra constructors ---------------------------------------------------

class ClosureOverflow(CychomError):
    """Subalgebra closure exceeded the dimension cap."""


class NotAutomorphism(ValidationError):
    """Twisting map is not a unital algebra automorphism."""


# -- chain complexes --------------------------------------------------------

class SizeOverflow(CychomError):
    """A chain space would exceed the dimension budget."""


class NonUnital(ValidationError):
    """Operation requires a unital algebra."""


class NotMultiplicative(ValidationError):
    """Induced map requested for a linear map that is not multiplicative."""


class DegreeTooLow(ValidationError):
    """Periodicity operator applied below degree 2."""


# -- spectrum ---------------------------------------------------------------

class SplittingFieldTooLarge(CychomError):
    """Central idempotents need a cyclotomic order beyond the configured bound."""


class FiltrationNotRespected(ValidationError):
    """Morphism does not map the source filtration into the target one."""


# -- crossed products / chern ----------------------------------------------

class NotIdempotent(ValidationError):
    """Claimed idempotent fails e*e = e."""


class NotInvertible(ValidationError):
    """Claimed invertible has no two-sided inverse."""


def check_int(value, what: str, least: int) -> None:
    """Refuse with ValidationError a size, degree or order that is not an
    int of at least least.

    bool is a subclass of int and is refused too; a float or a string
    would otherwise fail later, as a TypeError from range() or from the
    comparison itself."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError("%s must be an int, not %s"
                              % (what, type(value).__name__))
    if value < least:
        raise ValidationError("%s must be at least %d, got %d"
                              % (what, least, value))
