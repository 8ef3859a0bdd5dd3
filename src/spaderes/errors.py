"""Exception types shared across the package."""


class SpaderesError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SpaderesError, ValueError):
    """Input data violates a documented invariant (bad grid, non-unit norm, ...)."""


class DomainError(SpaderesError, ValueError):
    """Evaluation requested outside the supported domain (e.g. off-grid point)."""


class UnsupportedKindError(SpaderesError, ValueError):
    """Operation not defined for this transfer-function kind."""


class NumericError(SpaderesError, RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


class BracketingError(NumericError):
    """Root bracket does not straddle the target value."""


class BudgetError(SpaderesError, RuntimeError):
    """A run asks for more trials or grid points than montecarlo.MAX_POINTS."""


class TruncationWarning(UserWarning):
    """A truncated infinite sum may not have reached its accuracy target."""
