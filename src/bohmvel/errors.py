"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes; library users can catch the base
class or the specific failure they care about.
"""

from __future__ import annotations

__all__ = [
    "BohmvelError",
    "InvalidInputError",
    "DomainError",
    "ConfigurationError",
    "NumericalFailureError",
    "NonConvergedError",
    "RegularityError",
]


class BohmvelError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(BohmvelError):
    """An argument violates a documented precondition."""


class DomainError(BohmvelError):
    """A query point lies outside the domain of the requested quantity."""


class ConfigurationError(BohmvelError):
    """A run configuration is invalid or physically unusable (grid too
    small, packet clipped, boosted support not representable, ...)."""


class NumericalFailureError(BohmvelError):
    """A numerical guard tripped (boundary leak, non-converged asymptote, ...)."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NonConvergedError(NumericalFailureError):
    """An iterative limit did not reach its tolerance.

    Carries the residual curve so callers can inspect the approach to the
    limit instead of just seeing a failure.
    """

    def __init__(self, message: str, residual_curve=None, diagnostics=None):
        super().__init__(message, diagnostics)
        self.residual_curve = residual_curve


class RegularityError(BohmvelError):
    """An experiment's asymptotic-regularity verdict failed, so the
    comparison it was guarding has no meaning."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
