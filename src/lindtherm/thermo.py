"""Thermodynamic functionals along open-system trajectories.

Internal energy, output power, per-bath heat currents, von Neumann and
relative entropies, entropy production against a stationary reference,
First/Second Law residuals on a sampled trajectory, and passivity/ergotropy.
U, P, the heat currents, S and sigma are each the batch of one of a private
function on stacked (n, d, d) arrays, which ``law_residuals`` runs on a grid.

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
    ShapeError,
    SingularLogarithm,
    SupportError,
    _at,
)
from .gkls import (
    GeneratorFamily,
    GklsGenerator,
    Trajectory,
    _Blocks,
    _check_stationary,
    _first_uses,
    _gkls_action,
    _raise_first,
    _superops,
    apply_schrodinger,
)
from .operators import DensityMatrix, _square, as_operator, dag, hermitize
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


def _traces(r: np.ndarray, x: np.ndarray, name: str) -> np.ndarray:
    """tr(rho_i X_i) over stacks of one shape, each X_i (called ``name``) checked finite and
    hermitian; ShapeError names the first failing X_i's first failing check."""
    if r.shape != x.shape:
        raise _at(0, ShapeError(f"state shape {r.shape[1:]} does not match {name} {x.shape[1:]}"))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite X_i's defect is too
        defect = np.abs(x - dag(x)).max(axis=(1, 2))
    _raise_first(~(defect <= DEFAULT.hermiticity), lambda j: ShapeError(
        f"{name} is not hermitian" if np.isfinite(x[j]).all() else f"{name} has non-finite entries"))
    return np.einsum("nij,nji->n", r, x)


def _energies(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    val = _traces(r, h, "hamiltonian")
    _raise_first(np.abs(val.imag) > 1e-12 * np.maximum(1.0, np.abs(val)),
                 lambda j: ShapeError(f"energy has imaginary part {val[j].imag:.3e}"))
    return val.real


def internal_energy(rho, hamiltonian: np.ndarray) -> float:
    """U = tr(rho H)."""
    r, h = as_operator(rho, "state"), as_operator(hamiltonian, "hamiltonian")
    return float(_energies(r[None], h[None])[0])


def instantaneous_power(rho, dh_dt: np.ndarray) -> float:
    """P = -tr(rho dH/dt), positive when the system does work on the drive."""
    r, d = as_operator(rho, "state"), as_operator(dh_dt, "dH/dt")
    return -float(_traces(r[None], d[None], "dH/dt")[0].real)


def _bath_flows(gens: list, baths, r: np.ndarray) -> np.ndarray:
    """flows[i, b] = L_b(rho_i) = -{K_b, rho_i}/2 + sum_(j in b) v_j rho_i v_j+ of generator i."""
    labels = [b.bath_label for b in baths]
    if len(set(labels)) != len(labels):
        dup = sorted({l for l in labels if labels.count(l) > 1})
        raise _at(0, IncompleteAssignment(f"bath labels claimed more than once: {dup}"))
    flows = np.zeros((len(r), len(labels)) + r.shape[1:], dtype=complex)
    ids, firsts = _first_uses([id(gen._record) for gen in gens])
    for rec, first in enumerate(firsts):
        idx, own = ids == rec, gens[first]._baths
        missing = sorted(set(own) - set(labels))
        if missing:
            raise _at(first, IncompleteAssignment(
                f"generator terms with unassigned labels: {missing}"))
        for b, label in enumerate(labels):
            if label in own:
                flows[idx, b] = _gkls_action(-0.5 * own[label][0], r[idx], own[label][1])
    return flows


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
    flows = _bath_flows([gen], baths, as_operator(rho, "state")[None])[0]
    currents = np.einsum("ij,bji->b", gen.hamiltonian, flows).real
    per_bath = {b.bath_label: float(j) for b, j in zip(baths, currents)}
    return HeatCurrentReport(per_bath=per_bath, total=float(sum(per_bath.values())))


def _sigmas(flow, spectra, ref_spectra, tol: Tolerances) -> np.ndarray:
    """-tr[L_i(rho_i) (ln rho_i - ln rho_bar_i)] from L_i(rho_i) and both spectra; each
    rho_bar_i is certified stationary already, by its solve or ``entropy_production``."""
    logs = []
    for (vals, vecs), what in ((spectra, "state"), (ref_spectra, "stationary state")):
        _raise_first(vals[:, 0] <= tol.log_floor, lambda j: SingularLogarithm(
            f"{what} has eigenvalue {float(vals[j, 0]):.3e} at or below the "
            f"logarithm floor {tol.log_floor:.1e}"))
        logs.append((vecs * np.log(vals)[:, None, :]) @ dag(vecs))
    sigma = -np.einsum("nij,nji->n", flow, logs[0] - logs[1]).real
    _raise_first(sigma < -1e-10, lambda j: LindthermError(
        f"entropy production {sigma[j]:.3e} below -1e-10; "
        "stationarity or positivity preconditions are broken"))
    return sigma


def entropy_production(
    gen: GklsGenerator,
    rho,
    rho_bar,
    tol: Tolerances = DEFAULT,
) -> float:
    """Irreversibility rate sigma = -tr[ L(rho) (ln rho - ln rho_bar) ].

    rho_bar must be stationary for the generator (L by ``apply_schrodinger``);
    both states must be strictly positive so the logarithms exist.  The value
    is nonnegative for any GKLS generator; a violation beyond -1e-10 means
    the inputs broke a precondition and raises.
    """
    pair = np.array([as_operator(rho_bar, "state"), as_operator(rho, "state")])
    ref, flow = (apply_schrodinger(gen, x)[None] for x in pair)
    _check_stationary("reference state", ref, tol)
    vals, vecs = np.linalg.eigh(hermitize(pair))
    return float(_sigmas(flow, (vals[1:], vecs[1:]), (vals[:1], vecs[:1]), tol)[0])


def _entropies(vals: np.ndarray) -> np.ndarray:
    """-sum p ln p over each row of eigenvalues, on those above DEFAULT.log_floor."""
    logs = np.log(np.where(vals > DEFAULT.log_floor, vals, 1.0))
    return np.maximum(-np.sum(vals * logs, axis=-1), 0.0)


def von_neumann_entropy(rho) -> float:
    """S = -tr(rho ln rho), with 0 ln 0 = 0 on the kernel."""
    return float(_entropies(np.linalg.eigvalsh(hermitize(as_operator(rho, "state")))))


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
    vals2, vecs2 = np.linalg.eigh(hermitize(r2))
    inside = vals2 > tol.log_floor
    weights = np.einsum("ji,jk,ki->i", vecs2.conj(), r1, vecs2).real  # on rho2's eigenvectors
    worst = float(weights[~inside].max(initial=0.0))
    if worst > 1e-12:
        raise SupportError(
            f"first state carries weight {worst:.3e} outside the support of the second")
    term2 = float(np.sum(weights[inside] * np.log(vals2[inside])))
    return float(np.sum(pos1 * np.log(pos1))) - term2


# --- law bookkeeping ---------------------------------------------------------

def _gradient(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.gradient(y, t, edge_order=1 if t.size < 3 else 2)


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

    The grid is evaluated as stacked arrays: U and P as einsums, each
    bath's flow as one stacked kernel per channel record, S and both
    logarithms from one batched ``eigh``, the rho_bar of the distinct
    round(xi, 14) by one stacked bordered solve and state check per chunk
    of their generator matrices (below ``gkls._CHUNK_BYTES``, each released
    before the next is built; one LU per matrix), and sigma from L(rho) =
    -i[H, rho] plus the bath flows.  The generators and their H come from one
    ``family._generators`` call on the samples' xi (as one stack for a
    ``modulated_family``, else per sample by ``generator_of``).  Each
    per-sample check runs on every sample; a failure raises at the first
    failing sample and, within it, the first failing check in the order
    energy, power, currents, stationary state, sigma.
    """
    t, states = trajectory.times, trajectory.states
    om, xi = family.frequency, family.xi(t)
    end, failure = t.size, None

    def upto(check):
        # check(e) on the first e = end samples; a failure at sample j is kept and cuts e to j
        nonlocal end, failure
        while True:
            try:
                return check(end)
            except LindthermError as exc:
                end, failure = getattr(exc, "sample", 0), exc
                if end == 0:
                    raise

    def stationary(e):
        kidx, starts = _first_uses([round(float(x), 14) for x in xi[:e]])
        rbar = []
        for chunk in _superops([gens[j] for j in starts], r.shape[-1]):
            try:
                rbar += [rho.matrix for rho in _Blocks(chunk).stationary(tol)[0]]
            except LindthermError as exc:
                raise _at(starts[len(rbar) + exc.sample], exc)
            del chunk  # released before the next one is built
        return np.array(rbar), kidx

    h, gens = upto(lambda e: family._generators(xi[:e]))
    r = np.array([rho.matrix for rho in states[:end]])
    with np.errstate(over="ignore", invalid="ignore"):  # _traces names a non-finite dH/dt
        dh = (family.amplitude * om * np.cos(om * t))[:, None, None] * family.drive_observable
    u = upto(lambda e: _energies(r[:e], h[:e]))
    p = -upto(lambda e: _traces(r[:e], dh[:e], "dH/dt")).real
    flows = upto(lambda e: _bath_flows(gens[:e], baths, r[:e]))
    rbar, kidx = upto(stationary)
    n = end
    flow = -1j * (h[:n] @ r[:n] - r[:n] @ h[:n]) + flows[:n].sum(axis=1)
    vals, vecs = np.linalg.eigh(hermitize(np.concatenate([r[:n], rbar])))
    sig = upto(lambda e: _sigmas(flow[:e], (vals[:e], vecs[:e]),
                                 (vals[n + kidx[:e]], vecs[n + kidx[:e]]), tol))
    if failure is not None:
        raise failure

    currents = np.einsum("nij,nbji->nb", h, flows).real
    j_tot = currents.sum(axis=1)
    s = _entropies(vals[:n])
    first = _gradient(u, t) - j_tot + p
    second = _gradient(s, t) - currents @ np.array([b.beta for b in baths], dtype=float)
    if grid_check and n >= 7:
        fine = float(np.max(np.abs(first[2:-2])))
        coarse_r = _gradient(u[::2], t[::2]) - j_tot[::2] + p[::2]
        coarse = float(np.max(np.abs(coarse_r[1:-1])))
        if fine > 1e-10 and coarse < 2.0 * fine:
            raise GridTooCoarse(
                f"half-resolution residual {coarse:.3e} is not at least twice "
                f"the full-resolution residual {fine:.3e}; the grid does not "
                "resolve the drive"
            )
    labels = [b.bath_label for b in baths]
    return [ThermoSample(*row) for row in zip(
        t.tolist(), u.tolist(), p.tolist(), [dict(zip(labels, c)) for c in currents.tolist()],
        j_tot.tolist(), s.tolist(), sig.tolist(), first.tolist(), second.tolist())]


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
    populations = np.linalg.eigvalsh(hermitize(r))
    diagonal = np.diagonal(h)
    if np.count_nonzero(h) == np.count_nonzero(diagonal):
        levels = diagonal.real
    else:
        levels = np.linalg.eigvalsh(hermitize(h))
    return _passive_work(energy, populations, levels)


def _passive_work(energy: float, populations: np.ndarray, levels: np.ndarray) -> float:
    """energy - sum_i r_i eps_i over r sorted down and eps sorted up, clamped at 0.

    The sorted pairing gives the passive state's energy; negative rounding
    dust in the difference is clamped to zero.
    """
    w = energy - float(np.dot(np.sort(populations)[::-1], np.sort(levels)))
    return max(w, 0.0)
