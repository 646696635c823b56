"""Exception types shared across the package."""


class FischerlabError(Exception):
    """Base class for all package-specific failures."""


class ParseError(FischerlabError):
    """Raised when a polynomial expression cannot be parsed.

    ``position`` is the 0-based character offset of the offending token,
    or None when the failure is not tied to a location.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariableError(ParseError):
    """Raised when an expression names a variable outside the declared list."""

    def __init__(self, name, position=None):
        super().__init__(f"unknown variable {name!r}", position)
        self.name = name


class BasisOverflowError(FischerlabError):
    """Raised when an image monomial falls outside the chosen target basis."""


class SliceTooLargeError(FischerlabError):
    """Raised before any slice is built when the slices of a request would
    span more monomials than polyring.MAX_SLICE_DIMENSION."""


class FloatEvaluationError(FischerlabError):
    """Raised when evaluating a polynomial in floating point overflows: a
    coefficient or a power of a coordinate is beyond the float range."""


class InconsistentSystemError(FischerlabError):
    """Raised by the exact solver when the right-hand side is outside the
    column space of the matrix."""


class NoDecompositionFoundError(FischerlabError):
    """Raised when no quotient was found within the allowed slack.

    This is inconclusive: a decomposition may still exist at a higher source
    degree.  ``slack`` records the largest slack that was tried.
    """

    def __init__(self, slack):
        super().__init__(
            f"no decomposition found with slack up to {slack}; "
            "this is inconclusive, not a proof of impossibility"
        )
        self.slack = slack


class UnsolvableSliceError(FischerlabError):
    """Raised when the square slice system of a quadric Dirichlet problem is
    inconsistent (cannot happen for ellipsoidal boundaries)."""


class NoBoundaryHitError(FischerlabError):
    """Raised when ray shooting repeatedly fails to meet the boundary,
    e.g. for quadrics with an empty or unreachable real zero set."""
