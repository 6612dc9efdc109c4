"""Exception types shared by all solver modules."""


class OpeqError(Exception):
    """Base class for every error raised by this package."""


class InvalidMatrix(OpeqError, ValueError):
    """Input is not a 2-D array of finite numbers; also a ``ValueError``."""


class MissingMatrix(OpeqError, KeyError):
    """An operand or unknown the equation names is absent; also a ``KeyError``."""

    # KeyError would quote the message like a missing key.
    __str__ = OpeqError.__str__


class EmptyMatrix(OpeqError):
    """A factorization was requested for a matrix with no entries."""


class NotPSD(OpeqError):
    """Input to a PSD-only primitive is not positive semidefinite."""


class ContextMismatch(OpeqError):
    """Module elements or operators live over incompatible contexts."""


class DimensionMismatch(OpeqError):
    """Matrix shapes are incompatible with the requested operation."""


class HypothesisViolated(OpeqError):
    """A hypothesis of the solver's construction fails; the equation may still be solvable."""


class NotSolvable(OpeqError):
    """A necessary condition fails: the equation has no solution; ``diagnosis`` has the details."""

    def __init__(self, message, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis


class RangeNotContained(NotSolvable):
    """R(C) not in R(A), or R([A B]) for A X + B Y = C: no solution; ``diagnosis`` is the failing decision."""

    decision = property(lambda self: self.diagnosis)


class NotASolution(OpeqError):
    """A claimed solution does not satisfy its equation to tolerance."""


class EmptyIntersection(HypothesisViolated):
    """R(A) and R(B) intersect trivially; the C Z construction needs them to meet."""


class IntersectionNotInRangeC(HypothesisViolated):
    """R(A) intersect R(B) is not contained in R(C), as the C Z construction needs."""


class UnknownEquationTag(OpeqError):
    """verify() received an equation tag it does not know."""


class ToleranceAnomaly(OpeqError):
    """A check the mathematics guarantees failed; only happens near a tolerance threshold."""


class InfeasibleSpec(OpeqError):
    """Instance generation targets are incompatible with the shape."""


class ParseError(OpeqError):
    """A matrix file does not parse as the documented JSON format."""


class ShapeError(OpeqError):
    """A matrix file parses but its declared shape is inconsistent."""
