"""Exception hierarchy.

Three branches map onto the CLI exit codes: :class:`UsageError` -> 1,
:class:`DataError` -> 2, :class:`NumericalError` -> 3.  Library callers can
catch :class:`SteeringError` to get everything raised on purpose by this
package.
"""

__all__ = [
    "SteeringError",
    "UsageError",
    "DataError",
    "NumericalError",
    "ZeroTotalError",
    "ShapeMismatchError",
    "ParseError",
    "NegativeCountError",
    "NonDivisibleFactorError",
    "DimensionMismatchError",
    "NotNormalizedError",
    "NegativeProbabilityError",
    "NonpositiveWindowError",
    "NonpositiveExtentError",
    "TruncationError",
    "DegenerateBootstrapError",
]


class SteeringError(Exception):
    """Base class for all package errors."""


class UsageError(SteeringError):
    """The caller asked for something incoherent (bad flags, bad arguments)."""


class DataError(SteeringError):
    """Input data is malformed or inconsistent with its declared layout."""


class NumericalError(SteeringError):
    """A numerical contract was violated (normalization, truncation, degeneracy)."""


class ZeroTotalError(DataError):
    """A histogram holds no events, so it has no entropy to score; ``Histogram`` refuses it."""


class ShapeMismatchError(DataError):
    """Array shape disagrees with the grid that is supposed to describe it."""


class ParseError(DataError):
    """A counts or grid file could not be parsed.

    Carries file path and, when known, the 1-based line number.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(where + message)


class NegativeCountError(DataError):
    """Counts must be non-negative integers."""


class NonDivisibleFactorError(DataError):
    """A downsampling factor does not divide the axis it applies to."""


class DimensionMismatchError(DataError):
    """Position and momentum inputs disagree on the number of transverse dimensions."""


class NotNormalizedError(NumericalError):
    """A probability tensor does not sum to one within tolerance."""


class NegativeProbabilityError(NumericalError):
    """A probability tensor holds entries below zero."""


class NonpositiveWindowError(NumericalError):
    """Window widths must be strictly positive."""


class NonpositiveExtentError(NumericalError):
    """Viewing-area extents must be strictly positive."""


class TruncationError(NumericalError):
    """A grid captures too little of a continuous density to discretize it."""


class DegenerateBootstrapError(NumericalError):
    """Bootstrap margins spread by no more than roundoff, so no significance is defined."""
