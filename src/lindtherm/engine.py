"""Average output power of a weakly, periodically driven open system.

For a drive xi(t) = g sin(Omega t) entering through H(xi) and a family of
stationary states rho_bar[xi], the leading-order time-averaged power is

    resolvent form:  P = -(g^2/2) tr( rho_bar'[0] * R * L*[0] M ),
                     R = Omega^2 (Omega^2 + (L*[0])^2)^(-1)
    fast form:       P = -(g^2/2) tr( rho_bar'[0] * L*[0] M )

the second being the high-frequency limit of the first.  One bordered LU
of the assembled L[0] (gkls.stationary_state's route) gives rho_bar[0] and
then rho_bar'[0] from the first-order stationarity identity
L'[0] rho_bar[0] + L[0] rho_bar'[0] = 0, tr rho_bar'[0] = 0.  As
R L* = (Omega^2/2) [(L* + i Omega)^(-1) + (L* - i Omega)^(-1)] and L* preserves
hermiticity, one LU solve of (L* + i Omega) y = M, L* the adjoint of L[0],
gives the resolvent form as -(g^2/2) Omega^2 Re tr(rho_bar'[0] y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IdentityViolation,
    LindthermError,
    NotEquilibrium,
    NotStationary,
    ResolventSingular,
)
from .gkls import (
    GeneratorFamily,
    GklsGenerator,
    _factor,
    _stationary_factored,
    apply_heisenberg,
    apply_schrodinger,
    detailed_balance_report,
    gibbs_state,
    schrodinger_super,
    weighted_inner_product,
)
from .operators import as_operator, dag, hermitize, unvec, vec
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "StationaryDerivative",
    "PowerReport",
    "stationary_derivative",
    "average_power_resolvent",
    "average_power_fast",
    "equilibrium_power_bound",
    "power_report",
]


@dataclass(frozen=True)
class StationaryDerivative:
    """d(rho_bar)/d(xi) at xi = 0 with its diagnostics.

    ``rho_prime`` solves L[0] rho' = -L'[0] rho_bar[0], tr rho' = 0, with
    L'[0] the symmetric difference quotient at step delta;
    ``richardson_gap`` is its distance to the step-delta/2 solution (an
    O(delta^2) error estimate, rounding when L is affine in xi);
    ``identity_residual`` is ||L'[0] rho_bar[0] + L[0] rho_bar'[0]||_F with
    the independent step-delta/2 L'[0].  ``base_superop`` is L[0]'s matrix.
    """

    rho_prime: np.ndarray
    rho_bar: np.ndarray
    identity_residual: float
    delta: float
    richardson_gap: float
    base_superop: np.ndarray = field(default=None, repr=False, compare=False)


def stationary_derivative(
    family: GeneratorFamily,
    delta: float = None,
    tol: Tolerances = DEFAULT,
) -> StationaryDerivative:
    """Derivative of the stationary state at xi = 0 from one factorization.

    L[0] is assembled and its bordered system factored once; the factors
    solve for rho_bar, then for rho' at steps delta and delta/2 in one back
    substitution, with L'[0] rho_bar a symmetric difference of the direct
    actions L[+-h] rho_bar.  An identity residual above
    tol.identity_residual raises IdentityViolation.
    """
    if delta is None:
        delta = 1e-4 * max(1.0, float(np.linalg.norm(family.base.hamiltonian, 2)))
    delta = float(delta)
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")

    s = schrodinger_super(family.base)
    state, solve = _stationary_factored(s, tol)
    rho_0 = state.matrix

    def l_prime(h: float) -> np.ndarray:
        up = apply_schrodinger(family.generator_of(h), rho_0)
        down = apply_schrodinger(family.generator_of(-h), rho_0)
        return vec((up - down) / (2.0 * h))

    lp = np.stack([l_prime(delta), l_prime(delta / 2.0)], axis=1)
    rhs = -lp
    rhs[0] = 0.0  # row 0 of the bordered system is the trace: tr rho' = 0
    x = solve(rhs)
    prime, prime_half = (hermitize(unvec(x[:, k])) for k in (0, 1))
    gap = float(np.linalg.norm(prime - prime_half))
    residual = float(np.linalg.norm(lp[:, 1] + s @ vec(prime)))
    if residual > tol.identity_residual:
        raise IdentityViolation(
            f"first-order stationarity identity residual {residual:.3e} exceeds "
            f"{tol.identity_residual:.1e}; delta may be too large or the family "
            "discontinuous"
        )
    return StationaryDerivative(
        rho_prime=prime,
        rho_bar=rho_0,
        identity_residual=residual,
        delta=delta,
        richardson_gap=gap,
        base_superop=s,
    )


def _fast_value(family: GeneratorFamily, sd: StationaryDerivative) -> float:
    lm = apply_heisenberg(family.base, family.drive_observable)
    g = family.amplitude
    return -0.5 * g * g * float(np.trace(sd.rho_prime @ lm).real)


def _resolvent_value(
    family: GeneratorFamily,
    sd: StationaryDerivative,
    tol: Tolerances,
) -> float:
    ls = dag(sd.base_superop)  # L*[0]: the adjoint of the assembled L[0]
    om = family.frequency
    ls[np.diag_indices_from(ls)] += 1j * om
    y = _factor(ls, np.sqrt(tol.resolvent_condition), ResolventSingular,
                "resolvent system L* + i Omega")(vec(family.drive_observable))
    g = family.amplitude
    return -0.5 * g * g * om * om * float(np.trace(sd.rho_prime @ unvec(y)).real)


def average_power_fast(
    family: GeneratorFamily,
    delta: float = None,
    tol: Tolerances = DEFAULT,
) -> float:
    """High-frequency average power -(g^2/2) tr(rho_bar' L* M)."""
    sd = stationary_derivative(family, delta, tol)
    return _fast_value(family, sd)


def average_power_resolvent(
    family: GeneratorFamily,
    delta: float = None,
    tol: Tolerances = DEFAULT,
) -> float:
    """Average power with the full frequency-dependent resolvent factor."""
    sd = stationary_derivative(family, delta, tol)
    return _resolvent_value(family, sd, tol)


def equilibrium_power_bound(
    gen: GklsGenerator,
    m: np.ndarray,
    beta: float,
    amplitude: float,
    tol: Tolerances = DEFAULT,
) -> float:
    """Quadratic-form power (g^2/2) beta <M, L* M>_gibbs of a single thermal bath.

    The generator must satisfy detailed balance at its own Gibbs state; the
    value is then the exact leading-order average power and is never
    positive (no work from one bath in a cyclic process).  A value above
    1e-12 raises.
    """
    m = as_operator(m, "drive observable")
    gibbs = gibbs_state(gen.hamiltonian, beta)
    try:
        report = detailed_balance_report(gen, gibbs, tol=tol)
    except NotStationary as exc:
        raise NotEquilibrium(
            f"Gibbs state at beta={beta} is not stationary: {exc}"
        ) from exc
    if not report.passed:
        raise NotEquilibrium(
            "generator fails detailed balance at its Gibbs state "
            f"(residuals {report.dissipative_hermiticity_defect:.3e}, "
            f"{report.hamiltonian_antihermiticity_defect:.3e}, "
            f"{report.commutator_norm:.3e})"
        )
    form = weighted_inner_product(m, apply_heisenberg(gen, m), gibbs, tol)
    value = 0.5 * amplitude * amplitude * beta * float(form.real)
    if value > 1e-12:
        raise LindthermError(
            f"equilibrium power bound {value:.3e} is positive beyond 1e-12; "
            "the dissipative quadratic form is not negative semidefinite"
        )
    return value


@dataclass(frozen=True)
class PowerReport:
    """Both power evaluations plus diagnostics; single_bath carries the
    equilibrium bound when an inverse temperature was supplied."""

    p_bar_resolvent: float
    p_bar_fast: float
    identity_residual: float
    single_bath: float = None

    @property
    def accepted(self) -> bool:
        return self.identity_residual < 1e-6


def power_report(
    family: GeneratorFamily,
    beta: float = None,
    delta: float = None,
    tol: Tolerances = DEFAULT,
) -> PowerReport:
    """Evaluate both power formulas off one shared stationary derivative."""
    sd = stationary_derivative(family, delta, tol)
    fast = _fast_value(family, sd)
    resolvent = _resolvent_value(family, sd, tol)
    single = None
    if beta is not None:
        single = equilibrium_power_bound(
            family.base,
            family.drive_observable,
            beta,
            family.amplitude,
            tol,
        )
    return PowerReport(
        p_bar_resolvent=resolvent,
        p_bar_fast=fast,
        identity_residual=sd.identity_residual,
        single_bath=single,
    )
