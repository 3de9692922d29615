"""Central numerical tolerances.

All thresholds live in one frozen dataclass so tests and callers can tighten
or relax them coherently instead of scattering magic numbers.  The defaults
are calibrated for double precision and dimensions up to a few thousand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["Tolerances", "DEFAULT"]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the library.

    Attributes
    ----------
    hermiticity:
        Max allowed entrywise max|X - X^dag| for matrices required to be
        hermitian (states, observables).
    hamiltonian_hermiticity:
        Tighter bound, same entrywise measure, applied to Hamiltonians at
        construction.
    trace:
        Max allowed |tr(rho) - 1|.
    positivity:
        Magnitude of the most negative eigenvalue tolerated in a state.  It
        is certified by a Cholesky factorization of rho + positivity * I;
        eigvalsh decides only when that factorization fails.
    stationarity:
        Max allowed absolute ||L(rho)||_F for a state accepted as stationary.
    kernel_cut:
        Floor on the reciprocal condition estimate of the bordered stationary
        system; below it the stationary state counts as not unique.
    identity_residual:
        Bound on ||L'[0] rho_bar + L[0] rho_bar'||_F, the first-order
        stationarity identity residual, where rho_bar' is solved with the
        step-delta difference quotient of L'[0] and the residual uses the
        independent step-delta/2 one.  It is O(delta^2) on smooth
        families, rounding on families affine in xi and large on
        discontinuous ones.
    log_floor:
        State eigenvalues below this are treated as outside the support.
    resolvent_condition:
        Ceiling on cond(L* + i Omega)^2, from a one-norm estimate, before the
        resolvent solve is declared singular.
    detailed_balance:
        Bound on the three detailed-balance residuals for a "passed" report.
    eigenoperator:
        Bound on ||[H, A] + omega A||_F / ||A||_F in eigenoperator checks.
    """

    hermiticity: float = 1e-10
    hamiltonian_hermiticity: float = 1e-12
    trace: float = 1e-10
    positivity: float = 1e-9
    stationarity: float = 1e-8
    kernel_cut: float = 1e-9
    identity_residual: float = 1e-4
    log_floor: float = 1e-14
    resolvent_condition: float = 1e12
    detailed_balance: float = 1e-8
    eigenoperator: float = 1e-8

    def with_(self, **kwargs) -> "Tolerances":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT = Tolerances()
