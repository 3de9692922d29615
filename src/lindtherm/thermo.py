"""Thermodynamic functionals along open-system trajectories.

Internal energy, output power, per-bath heat currents, von Neumann and
relative entropies, entropy production against a stationary reference,
First/Second Law residuals on a sampled trajectory, and passivity/ergotropy.

Sign conventions: heat current J_k = tr(H L_k(rho)) counts energy flowing
from bath k into the system as positive; power P = -tr(rho dH/dt) counts
work delivered by the system to the drive as positive.  The First Law then
reads dU/dt = J - P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooCoarse,
    IncompleteAssignment,
    LindthermError,
    NotStationary,
    ShapeError,
    SingularLogarithm,
    SupportError,
)
from .gkls import (
    GeneratorFamily,
    GklsGenerator,
    Trajectory,
    _gkls_action,
    apply_schrodinger,
    stationary_state,
)
from .operators import DensityMatrix, _square, as_operator, dag, hermiticity_defect, hermitize
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "BathAssignment",
    "HeatCurrentReport",
    "ThermoSample",
    "internal_energy",
    "instantaneous_power",
    "heat_currents",
    "entropy_production",
    "von_neumann_entropy",
    "relative_entropy",
    "law_residuals",
    "passive_state",
    "ergotropy",
]


@dataclass(frozen=True)
class BathAssignment:
    """A bath label paired with its inverse temperature."""

    bath_label: str
    beta: float


@dataclass(frozen=True)
class HeatCurrentReport:
    """Per-bath heat currents and their total."""

    per_bath: dict
    total: float


@dataclass(frozen=True)
class ThermoSample:
    """One time sample of the thermodynamic bookkeeping along a trajectory."""

    time: float
    energy: float
    power: float
    currents: dict
    current_total: float
    entropy: float
    sigma: float
    first_law_residual: float
    second_law_residual: float


def internal_energy(rho, hamiltonian: np.ndarray) -> float:
    """U = tr(rho H)."""
    r = as_operator(rho, "state")
    h = as_operator(hamiltonian, "hamiltonian")
    if r.shape != h.shape:
        raise ShapeError(f"state shape {r.shape} does not match hamiltonian {h.shape}")
    if hermiticity_defect(h) > DEFAULT.hermiticity:
        raise ShapeError("hamiltonian is not hermitian")
    val = complex(np.trace(r @ h))
    if abs(val.imag) > 1e-12 * max(1.0, abs(val)):
        raise ShapeError(f"energy has imaginary part {val.imag:.3e}")
    return float(val.real)


def instantaneous_power(rho, dh_dt: np.ndarray) -> float:
    """P = -tr(rho dH/dt), positive when the system does work on the drive."""
    r = as_operator(rho, "state")
    d = as_operator(dh_dt, "dH/dt")
    if r.shape != d.shape:
        raise ShapeError(f"state shape {r.shape} does not match dH/dt {d.shape}")
    if hermiticity_defect(d) > DEFAULT.hermiticity:
        raise ShapeError("dH/dt is not hermitian")
    return -float(np.trace(r @ d).real)


def heat_currents(
    gen: GklsGenerator,
    baths,
    rho,
) -> HeatCurrentReport:
    """J_k = tr(H L_k(rho)) for each bath, where L_k is bath k's dissipator.

    Every term of the generator must carry a label claimed by exactly one
    BathAssignment; anything uncovered or doubly covered raises
    IncompleteAssignment.
    """
    r = as_operator(rho, "state")
    labels = [b.bath_label for b in baths]
    if len(set(labels)) != len(labels):
        dup = sorted({l for l in labels if labels.count(l) > 1})
        raise IncompleteAssignment(f"bath labels claimed more than once: {dup}")
    missing = sorted(set(gen.bath_labels()) - set(labels))
    if missing:
        raise IncompleteAssignment(f"generator terms with unassigned labels: {missing}")
    per_bath = {}
    for bath in baths:
        # L_b(rho) = -(K_b rho + rho K_b)/2 + sum over bath b of rate V rho V+
        k, jumps = gen._baths.get(bath.bath_label, (np.zeros_like(r), gen._jumps[:0]))
        flow = _gkls_action(-0.5 * k, r, jumps)
        per_bath[bath.bath_label] = float(np.trace(gen.hamiltonian @ flow).real)
    total = float(sum(per_bath.values()))
    return HeatCurrentReport(per_bath=per_bath, total=total)


def _log_spectrum(m: np.ndarray, floor: float, what: str):
    vals, vecs = np.linalg.eigh(hermitize(m))
    if float(vals[0]) <= floor:
        raise SingularLogarithm(
            f"{what} has eigenvalue {float(vals[0]):.3e} at or below the "
            f"logarithm floor {floor:.1e}"
        )
    return vals, vecs


def _matrix_log(m: np.ndarray, floor: float, what: str) -> np.ndarray:
    vals, vecs = _log_spectrum(m, floor, what)
    return (vecs * np.log(vals)) @ dag(vecs)


def entropy_production(
    gen: GklsGenerator,
    rho,
    rho_bar,
    tol: Tolerances = DEFAULT,
) -> float:
    """Irreversibility rate sigma = -tr[ L(rho) (ln rho - ln rho_bar) ].

    rho_bar must be stationary for the generator; both states must be
    strictly positive so the logarithms exist.  The value is nonnegative
    for any GKLS generator; a violation beyond -1e-10 means the inputs
    broke a precondition and raises.
    """
    r = as_operator(rho, "state")
    rb = as_operator(rho_bar, "state")
    resid = float(np.linalg.norm(apply_schrodinger(gen, rb)))
    if resid > tol.stationarity:
        raise NotStationary(
            f"reference state has generator-image norm {resid:.3e} "
            f"(tolerance {tol.stationarity:.1e})"
        )
    log_r = _matrix_log(r, tol.log_floor, "state")
    log_rb = _matrix_log(rb, tol.log_floor, "stationary state")
    flow = apply_schrodinger(gen, r)
    sigma = -float(np.trace(flow @ (log_r - log_rb)).real)
    if sigma < -1e-10:
        raise LindthermError(
            f"entropy production {sigma:.3e} below -1e-10; "
            "stationarity or positivity preconditions are broken"
        )
    return sigma


def von_neumann_entropy(rho) -> float:
    """S = -tr(rho ln rho), with 0 ln 0 = 0 on the kernel."""
    r = as_operator(rho, "state")
    vals = np.linalg.eigvalsh(hermitize(r))
    pos = vals[vals > DEFAULT.log_floor]
    s = -float(np.sum(pos * np.log(pos)))
    return max(s, 0.0)


def relative_entropy(rho1, rho2, tol: Tolerances = DEFAULT) -> float:
    """S(rho1 | rho2) = tr(rho1 ln rho1) - tr(rho1 ln rho2).

    Requires support(rho1) inside support(rho2): weight of rho1 on the
    numerical kernel of rho2 above 1e-12 raises SupportError.
    """
    r1 = as_operator(rho1, "state")
    r2 = as_operator(rho2, "state")
    if r1.shape != r2.shape:
        raise ShapeError(f"states differ in shape: {r1.shape} vs {r2.shape}")
    vals1 = np.linalg.eigvalsh(hermitize(r1))
    pos1 = vals1[vals1 > tol.log_floor]
    term1 = float(np.sum(pos1 * np.log(pos1)))
    vals2, vecs2 = np.linalg.eigh(hermitize(r2))
    inside = vals2 > tol.log_floor
    if not np.all(inside):
        overlap = np.einsum(
            "ij,jk,ki->i", dag(vecs2[:, ~inside]), r1, vecs2[:, ~inside]
        ).real
        worst = float(np.max(overlap)) if overlap.size else 0.0
        if worst > 1e-12:
            raise SupportError(
                f"first state carries weight {worst:.3e} outside the "
                "support of the second"
            )
    vk = vecs2[:, inside]
    diag = np.einsum("ij,jk,ki->i", dag(vk), r1, vk).real
    term2 = float(np.sum(diag * np.log(vals2[inside])))
    return term1 - term2


# --- law bookkeeping ---------------------------------------------------------

def _gradient(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    if t.size < 3:
        return np.gradient(y, t, edge_order=1)
    return np.gradient(y, t, edge_order=2)


def _first_law_residuals(u, j_tot, p, t):
    return _gradient(np.asarray(u), np.asarray(t)) - np.asarray(j_tot) + np.asarray(p)


def law_residuals(
    trajectory: Trajectory,
    family: GeneratorFamily,
    baths,
    tol: Tolerances = DEFAULT,
    grid_check: bool = True,
) -> list:
    """ThermoSample bookkeeping for a (possibly driven) trajectory.

    Per sample: U, P, per-bath J, S, sigma against the instantaneous
    stationary state, and the two law residuals

        first  = dU/dt - J + P
        second = dS/dt - sum_k beta_k J_k

    with time derivatives by central differences.  When grid_check is on,
    the first-law residual is recomputed on the half-resolution subgrid;
    if coarsening does not grow the residual (it must, once discretization
    error dominates roundoff), the grid is declared too coarse to trust.
    """
    t = trajectory.times
    n = t.size
    betas = {b.bath_label: b.beta for b in baths}
    g, om, m = family.amplitude, family.frequency, family.drive_observable

    u = np.empty(n)
    p = np.empty(n)
    s = np.empty(n)
    sig = np.empty(n)
    j_tot = np.empty(n)
    bj = np.empty(n)
    currents = []
    ness_cache = {}
    for i in range(n):
        xi = family.xi(t[i])
        gen = family.generator_of(xi)
        rho = trajectory.states[i]
        u[i] = internal_energy(rho, gen.hamiltonian)
        p[i] = instantaneous_power(rho, g * om * np.cos(om * t[i]) * m)
        rep = heat_currents(gen, baths, rho)
        currents.append(rep.per_bath)
        j_tot[i] = rep.total
        bj[i] = sum(betas[k] * v for k, v in rep.per_bath.items())
        s[i] = von_neumann_entropy(rho)
        key = round(float(xi), 14)
        if key not in ness_cache:
            ness_cache[key] = stationary_state(gen, tol)
        sig[i] = entropy_production(gen, rho, ness_cache[key], tol)

    first = _first_law_residuals(u, j_tot, p, t)
    second = _gradient(s, t) - bj

    if grid_check and n >= 7:
        fine = float(np.max(np.abs(first[2:-2])))
        coarse_r = _first_law_residuals(u[::2], j_tot[::2], p[::2], t[::2])
        coarse = float(np.max(np.abs(coarse_r[1:-1])))
        if fine > 1e-10 and coarse < 2.0 * fine:
            raise GridTooCoarse(
                f"half-resolution residual {coarse:.3e} is not at least twice "
                f"the full-resolution residual {fine:.3e}; the grid does not "
                "resolve the drive"
            )

    return [
        ThermoSample(
            time=float(t[i]),
            energy=float(u[i]),
            power=float(p[i]),
            currents=currents[i],
            current_total=float(j_tot[i]),
            entropy=float(s[i]),
            sigma=float(sig[i]),
            first_law_residual=float(first[i]),
            second_law_residual=float(second[i]),
        )
        for i in range(n)
    ]


# --- passivity ---------------------------------------------------------------

def passive_state(rho, hamiltonian: np.ndarray) -> DensityMatrix:
    """State with rho's spectrum arranged to be passive for the Hamiltonian.

    Populations are sorted in decreasing order against increasing energy in
    the Hamiltonian eigenbasis (eigh order; degenerate energies are filled
    in that stable order, which leaves the energy unchanged).
    """
    r = as_operator(rho, "state")
    h = as_operator(hamiltonian, "hamiltonian")
    if r.shape != h.shape:
        raise ShapeError(f"state shape {r.shape} does not match hamiltonian {h.shape}")
    vecs_h = np.linalg.eigh(hermitize(h))[1]
    p = np.linalg.eigvalsh(hermitize(r))[::-1]
    return DensityMatrix((vecs_h * p) @ dag(vecs_h))


def ergotropy(rho, hamiltonian: np.ndarray) -> float:
    """Maximal cyclic-unitary work W = tr(rho H) - sum_i r_i eps_i.

    r_1 >= r_2 >= ... is the spectrum of rho and eps_1 <= eps_2 <= ... that
    of H, so the sum is the energy of the passive state; only the two
    spectra and an elementwise tr(rho H) are computed.  The sorted pairing
    makes the raw value nonnegative up to rounding (trace inequality);
    negative dust is clamped to zero.  A diagonal H gives its levels by a
    sort, with no eigensolver.  Real input (float arrays) stays real, in
    float64 throughout, so a real state's spectrum comes from the real
    symmetric eigensolver.
    """
    r = _square(rho, "state", keep_real=True)
    h = _square(hamiltonian, "hamiltonian", keep_real=True)
    if r.shape != h.shape:
        raise ShapeError(f"state shape {r.shape} does not match hamiltonian {h.shape}")
    energy = float(np.sum(r * h.T).real)
    populations = np.linalg.eigvalsh(hermitize(r))[::-1]
    diagonal = np.diagonal(h)
    if np.count_nonzero(h) == np.count_nonzero(diagonal):
        levels = np.sort(diagonal.real)
    else:
        levels = np.linalg.eigvalsh(hermitize(h))
    w = energy - float(np.dot(populations, levels))
    return max(w, 0.0)
