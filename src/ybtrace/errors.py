"""Exception types shared across the package."""


class YbtraceError(Exception):
    """Base class for all library errors."""


class ContextMismatch(YbtraceError):
    """Operands belong to different scalar contexts."""


class NotAUnit(YbtraceError):
    """A negative power or square root of a non-invertible element was requested."""


class NotDivisible(YbtraceError):
    """Exact division has no quotient in the ring."""


class ExponentOverflow(YbtraceError):
    """An exponent would leave the range the scalar ring stores (ring.MAX_EXPONENT)."""


class ParseError(YbtraceError):
    """Malformed scalar or braid text.  Carries the offending position."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class DimensionMismatch(YbtraceError):
    """Matrix sides or tensor arities are incompatible."""


class PositionOutOfRange(YbtraceError):
    """Generator position outside 1..n-1."""


class NonInvertible(YbtraceError):
    """The matrix is singular."""


class InverseOutsideRing(YbtraceError):
    """The inverse exists only in a larger ring (a division check failed)."""


class UnknownName(YbtraceError):
    """No catalog entry, named link, or generator under that name."""


class UnknownRow(YbtraceError):
    """No operator row under that (matrix, row) key."""


class StrandBoundViolation(YbtraceError):
    """A braid letter references a strand outside the declared count."""


class ProportionalityFailure(YbtraceError):
    """A partial closure was not a scalar multiple of the identity."""


class ConditionViolation(YbtraceError):
    """A dressing compatibility condition failed.  Carries the index tuple."""

    def __init__(self, message, indices=None):
        if indices is not None:
            message = f"{message} at indices {indices}"
        super().__init__(message)
        self.indices = indices


class PreconditionViolation(YbtraceError):
    """A hypothesis required by the requested construction does not hold."""
