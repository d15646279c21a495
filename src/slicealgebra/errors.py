"""Exception types raised across the package."""


class SliceAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class NonAssociativeError(SliceAlgebraError):
    """Structure constants violate associativity beyond tolerance."""


class BadUnitError(SliceAlgebraError):
    """Designated unit basis element fails the unit law."""


class TooLargeError(SliceAlgebraError):
    """Requested algebra exceeds the supported size."""


class DimensionMismatchError(SliceAlgebraError):
    """Operands belong to algebras of different shape."""


class ZeroDivisorError(SliceAlgebraError):
    """Inversion attempted on a (numerical) zerodivisor."""


class NotFoundError(SliceAlgebraError):
    """A bounded search exhausted its budget without a result."""


class NonIntegerTraceError(SliceAlgebraError):
    """Operator trace failed to snap to an integer."""


class NotTangentError(SliceAlgebraError):
    """Vector is not tangent to the root locus at the given point."""


class NotIntrinsicError(SliceAlgebraError):
    """Stem polynomial lacks the conjugation symmetry."""


class InvalidTwistError(SliceAlgebraError):
    """Twist map produced a value outside the root locus."""


class PreconditionFailedError(SliceAlgebraError):
    """Caller-supplied witness or certificate does not verify."""


class BasePointAtInfinityError(SliceAlgebraError):
    """First coordinate pair of a projective point vanishes."""


class DegenerateImageError(SliceAlgebraError):
    """A projective map produced the zero vector."""


class BadSectionError(SliceAlgebraError):
    """Section value is outside the fiber or zero."""


class FrameNotFoundError(SliceAlgebraError):
    """No quaternion-type basis frame exists in the given basis."""


class SuiteNotApplicableError(SliceAlgebraError):
    """Verification suite does not apply to the chosen algebra."""
