"""Average output power of a weakly, periodically driven open system.

For a drive xi(t) = g sin(Omega t) entering through H(xi) and a family of
stationary states rho_bar[xi], the leading-order time-averaged power is

    resolvent form:  P = -(g^2/2) tr( rho_bar'[0] * R * L*[0] M ),
                     R = Omega^2 (Omega^2 + (L*[0])^2)^(-1)
    fast form:       P = -(g^2/2) tr( rho_bar'[0] * L*[0] M )

the second being the high-frequency limit of the first.  One bordered
factorization of L[0] (gkls.stationary_state's route) gives rho_bar[0] and
then rho_bar'[0] from the first-order stationarity identity
L'[0] rho_bar[0] + L[0] rho_bar'[0] = 0, tr rho_bar'[0] = 0.  As
R L* = (Omega^2/2) [(L* + i Omega)^(-1) + (L* - i Omega)^(-1)] and L* preserves
hermiticity, one factored solve of (L* + i Omega) y = M, L* the adjoint of
L[0], gives the resolvent form as -(g^2/2) Omega^2 Re tr(rho_bar'[0] y).
Both factorizations go by L[0]'s blocks (gkls._Blocks): one dense block for
a generator of terms, small blocks in H's eigenbasis for a Davies family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IdentityViolation,
    LindthermError,
    NotEquilibrium,
    NotStationary,
)
from .gkls import (
    GeneratorFamily,
    GklsGenerator,
    _action,
    _blocks,
    detailed_balance_report,
    gibbs_state,
    weighted_inner_product,
)
from .operators import as_operator, hermitize, unvec, vec
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
    the independent step-delta/2 L'[0].  ``stationary_rcond`` and
    ``stationarity_residual`` are the health of rho_bar[0]'s bordered solve,
    and ``blocks`` is L[0] as gkls._Blocks, in whose basis the factors act.
    """

    rho_prime: np.ndarray
    rho_bar: np.ndarray
    identity_residual: float
    delta: float
    richardson_gap: float
    stationary_rcond: float = None
    stationarity_residual: float = None
    blocks: object = field(default=None, repr=False, compare=False)


def stationary_derivative(
    family: GeneratorFamily,
    delta: float = None,
    tol: Tolerances = DEFAULT,
) -> StationaryDerivative:
    """Derivative of the stationary state at xi = 0 from one factorization.

    L[0]'s bordered system is factored once, by its blocks; the factors
    solve for rho_bar, then for rho' at steps delta and delta/2 in one back
    substitution, with L'[0] rho_bar a symmetric difference of the direct
    actions L[+-h] rho_bar (in their own eigenbases for a Davies family, so
    no lab-frame table is built).  An identity residual above
    tol.identity_residual raises IdentityViolation.
    """
    if delta is None:
        delta = 1e-4 * max(1.0, float(np.linalg.norm(family.base.hamiltonian, 2)))
    delta = float(delta)
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")

    blocks = _blocks(family.base)
    (state,), solve, (rcond,), (stationarity,) = blocks.stationary(tol)
    rho_0 = state.matrix

    def l_prime(h: float) -> np.ndarray:
        up = _action(family.generator_of(h), rho_0)
        down = _action(family.generator_of(-h), rho_0)
        return vec(blocks.basis((up - down) / (2.0 * h)))

    lp = np.stack([l_prime(delta), l_prime(delta / 2.0)], axis=1)
    rhs = -lp
    rhs[0] = 0.0  # row 0 of the bordered system is the trace: tr rho' = 0
    x = solve(rhs)
    prime, prime_half = (hermitize(unvec(x[:, k])) for k in (0, 1))
    gap = float(np.linalg.norm(prime - prime_half))
    residual = float(np.linalg.norm(lp[:, 1] + vec(blocks.apply(prime))))
    if residual > tol.identity_residual:
        raise IdentityViolation(
            f"first-order stationarity identity residual {residual:.3e} exceeds "
            f"{tol.identity_residual:.1e}; delta may be too large or the family "
            "discontinuous"
        )
    return StationaryDerivative(
        rho_prime=blocks.lab(prime),
        rho_bar=rho_0,
        identity_residual=residual,
        delta=delta,
        richardson_gap=gap,
        stationary_rcond=rcond,
        stationarity_residual=stationarity,
        blocks=blocks,
    )


def _fast_value(family: GeneratorFamily, sd: StationaryDerivative) -> float:
    lm = _action(family.base, family.drive_observable, adjoint=True)
    g = family.amplitude
    return -0.5 * g * g * float(np.trace(sd.rho_prime @ lm).real)


def _resolvent_value(
    family: GeneratorFamily,
    sd: StationaryDerivative,
    tol: Tolerances,
) -> tuple:
    """(P resolvent, the resolvent system's reciprocal condition estimate)."""
    om = family.frequency
    solve, rcond = sd.blocks.resolvent(om, tol)  # L*[0] + i Omega, block by block
    y = unvec(solve(vec(sd.blocks.basis(family.drive_observable))))
    g = family.amplitude
    value = float(np.trace(sd.blocks.basis(sd.rho_prime) @ y).real)
    return -0.5 * g * g * om * om * value, rcond


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
    return _resolvent_value(family, sd, tol)[0]


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
    form = weighted_inner_product(m, _action(gen, m, adjoint=True), gibbs, tol)
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
    equilibrium bound when an inverse temperature was supplied.  The solves'
    health: the stationary solve's reciprocal condition estimate and its
    residual ||L rho_bar||_F, and the resolvent system's condition estimate."""

    p_bar_resolvent: float
    p_bar_fast: float
    identity_residual: float
    single_bath: float = None
    stationary_rcond: float = None
    stationarity_residual: float = None
    resolvent_rcond: float = None

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
    resolvent, resolvent_rcond = _resolvent_value(family, sd, tol)
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
        stationary_rcond=sd.stationary_rcond,
        stationarity_residual=sd.stationarity_residual,
        resolvent_rcond=resolvent_rcond,
    )
