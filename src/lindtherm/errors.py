"""Exception hierarchy for the library.

Every error raised deliberately by lindtherm derives from LindthermError,
so callers can catch one type at an application boundary.  Validation of
plain argument domains (wrong python types, malformed sequences) uses the
builtin ValueError/TypeError instead.
"""

__all__ = [
    "LindthermError",
    "InvalidDimension",
    "ShapeError",
    "NotAState",
    "NotAnEigenoperator",
    "NonUniqueStationary",
    "NotStationary",
    "NumericalDrift",
    "StepTooLarge",
    "SingularWeight",
    "SingularLogarithm",
    "SupportError",
    "IncompleteAssignment",
    "GridTooCoarse",
    "IdentityViolation",
    "ResolventSingular",
    "NotEquilibrium",
    "DetailedBalanceViolation",
    "TruncationOverflow",
    "NotAmplifying",
    "ZeroOccupation",
    "ConfigError",
]


class LindthermError(Exception):
    """Base class for all library-specific errors."""


class InvalidDimension(LindthermError):
    """A dimension argument is outside the supported range."""


class ShapeError(LindthermError):
    """Array arguments have inconsistent or non-square shapes."""


class NotAState(LindthermError):
    """A matrix fails the density-matrix invariants (trace, hermiticity, positivity)."""


class NotAnEigenoperator(LindthermError):
    """A jump operator is not a lowering eigenoperator of the given Hamiltonian."""


class NonUniqueStationary(LindthermError):
    """The generator kernel has dimension larger than one."""


class NotStationary(LindthermError):
    """A reference state is not stationary for the generator within tolerance."""


class NumericalDrift(LindthermError):
    """A propagated state drifted outside the state invariants."""


class StepTooLarge(LindthermError):
    """A time grid violates the step bound of the driven propagator."""


class SingularWeight(LindthermError):
    """The weight state of an inner product is not strictly positive."""


class SingularLogarithm(LindthermError):
    """A state eigenvalue sits below the logarithm floor."""


class SupportError(LindthermError):
    """Relative entropy requested outside the support of the second state."""


class IncompleteAssignment(LindthermError):
    """Bath assignments do not cover the generator terms exactly once."""


class GridTooCoarse(LindthermError):
    """Law residuals are not in the asymptotic regime of the sample grid."""


class IdentityViolation(LindthermError):
    """The stationary-derivative consistency identity fails beyond tolerance."""


class ResolventSingular(LindthermError):
    """The resolvent linear system is numerically singular (resonance)."""


class NotEquilibrium(LindthermError):
    """The generator does not satisfy detailed balance for the requested Gibbs state."""


class DetailedBalanceViolation(LindthermError):
    """Rates are inconsistent with the chemical detailed-balance condition."""


class TruncationOverflow(LindthermError):
    """Probability leaked to the top of a truncated ladder beyond the guard."""


class NotAmplifying(LindthermError):
    """The pumping rate does not exceed the loss rate."""


class ZeroOccupation(LindthermError):
    """An occupation number is not positive where a divergence would occur."""


class ConfigError(LindthermError):
    """A run configuration failed validation; the message carries the field path."""


def _at(sample: int, exc: Exception) -> Exception:
    """``exc``, marked as raised by sample ``sample`` of a stack (see ``thermo.law_residuals``)."""
    exc.sample = sample
    return exc
