"""Exception types shared by all solver modules."""


class OpeqError(Exception):
    """Base class for every error raised by this package."""


class EmptyMatrix(OpeqError):
    """A factorization was requested for a matrix with no entries."""


class NotPSD(OpeqError):
    """Input to a PSD-only primitive is not positive semidefinite."""


class ContextMismatch(OpeqError):
    """Module elements or operators live over incompatible contexts."""


class DimensionMismatch(OpeqError):
    """Matrix shapes are incompatible with the requested operation."""


class RangeNotContained(OpeqError):
    """A range inclusion required for solvability fails.

    Carries the failing RangeDecision in ``decision``.
    """

    def __init__(self, message, decision=None):
        super().__init__(message)
        self.decision = decision


class HypothesisViolated(OpeqError):
    """A verified hypothesis of the solver being invoked does not hold."""


class NotSolvable(OpeqError):
    """The equation is diagnosed unsolvable; ``diagnosis`` has the details."""

    def __init__(self, message, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis


class NotASolution(OpeqError):
    """A claimed solution does not satisfy its equation to tolerance."""


class EmptyIntersection(OpeqError):
    """R(A) and R(B) intersect trivially."""


class IntersectionNotInRangeC(OpeqError):
    """R(A) and R(B) intersect outside R(C)."""


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
