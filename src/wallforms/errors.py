"""Exception hierarchy for the whole library.

Callers that need to distinguish "bad input" from "a verified theorem
failed" can catch :class:`PreconditionError` and :class:`InvariantViolation`
respectively; everything else derives from :class:`WallformsError`.
"""


class WallformsError(Exception):
    """Base class for all library errors."""


class ParseError(WallformsError, ValueError):
    """A field, element or problem-file literal could not be parsed."""


class PreconditionError(WallformsError):
    """An operation was called outside its stated precondition."""


class InvariantViolation(WallformsError):
    """A verified mathematical invariant failed; indicates a genuine bug."""


# --- fields ---------------------------------------------------------------

class DescriptorMismatch(PreconditionError):
    """Operands belong to different fields."""


class DivisionByZero(PreconditionError, ZeroDivisionError):
    pass


class NotASquare(PreconditionError):
    pass


class CapExceeded(PreconditionError):
    """A configured size cap (prime, extension degree, poly degree) was hit."""


# --- linear algebra / spaces ----------------------------------------------

class DimensionMismatch(PreconditionError):
    pass


class SingularMatrix(PreconditionError):
    pass


class NotRegular(PreconditionError):
    pass


class NotNested(PreconditionError):
    pass


class AlternatingForm(PreconditionError):
    """No orthogonal basis exists for an alternating bilinear form."""


class NotAlternating(PreconditionError):
    pass


class Degenerate(PreconditionError):
    pass


class NotExtendable(PreconditionError):
    pass


# --- isometries -------------------------------------------------------------

class NotAnIsometry(PreconditionError):
    """Carries a ``witness`` vector x with q(Mx) != q(x) when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IsotropicVector(PreconditionError):
    pass


class NotInvariant(PreconditionError):
    pass


# --- wall form / decomposition ----------------------------------------------

class NotSymmetric(PreconditionError):
    pass


class NotUnipotent2(PreconditionError):
    pass


class ZeroDiagonal(PreconditionError):
    pass


class NotInResidual(PreconditionError):
    pass


class NotHyperbolicPair(PreconditionError):
    pass


class PreimageUnsolvable(InvariantViolation):
    """Cannot occur when preconditions hold; treated as an internal error."""


class NotInterchange(PreconditionError):
    pass


# --- Clifford algebra --------------------------------------------------------

class CharacteristicNot2(PreconditionError):
    pass


class AlgebraMismatch(PreconditionError):
    pass


class NotInvolution(PreconditionError):
    pass


class ResidualNotFixed(PreconditionError):
    """The residual space does not equal the fixed space."""


class NotOrthogonalBasis(PreconditionError):
    pass


class ZeroSquare(PreconditionError):
    pass


class CriterionFails(PreconditionError):
    pass


class UnsupportedField(PreconditionError):
    pass


class NotScalarSquare(PreconditionError):
    pass


class UnknownConstruction(PreconditionError, ValueError):
    """A construction name that ``goldman_element`` does not know."""


# --- oracle / cli -------------------------------------------------------------

class TooLarge(PreconditionError):
    pass


class UnknownTheorem(PreconditionError):
    pass


class UnknownMethod(PreconditionError, ValueError):
    """An enumeration method that ``enumerate_orthogonal_group`` does not know."""


class MissingDependency(PreconditionError, ImportError):
    """numpy, which the oracle needs, is not installed."""
