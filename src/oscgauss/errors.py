"""Exception hierarchy for the toolkit.

Every failure mode that aborts a computation is a ToolkitError subclass, so
callers (and the CLI) can distinguish construction failures from tolerance
failures.  NaN/overflow detection raises NonFiniteError with a diagnostic of
the operation and its inputs rather than propagating silently.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class OnCutError(ToolkitError):
    """Branch evaluation requested on (or too close to) the cut gamma."""


class DegenerateFunctionalError(ToolkitError):
    """Moment functional degenerates: a recurrence denominator vanished.

    Carries the smallest failing polynomial index in ``index``.
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"moment functional degenerates at index {index}")


class NonconvergenceError(ToolkitError):
    """Iterative solve (root finding, adaptive quadrature) did not converge."""


class IllConditionedError(ToolkitError):
    """Linear solve lost too many digits; carries the digit-loss estimate."""

    def __init__(self, digits_lost: float, message: str = ""):
        self.digits_lost = digits_lost
        super().__init__(message or f"solve ill-conditioned: ~{digits_lost:.1f} digits lost")


class OutsideDiskError(ToolkitError):
    """Conformal map / Airy formula evaluated outside the turning-point disk."""


class AnalyticityBudgetError(ToolkitError):
    """A descent path leaves the declared analyticity region of the amplitude."""


class NoiseFloorError(ToolkitError):
    """Convergence-order fit impossible: errors sit at the oracle noise floor."""


class NonFiniteError(ToolkitError):
    """A NaN or overflow was produced; carries a diagnostic string."""
