"""Two-band photovoltaic cell as a quantum heat engine.

The cell is a set of fermionic conduction modes (energies E_c(k)) and
valence modes (energies E_v(l)).  Phonons at inverse temperature beta drive
intraband hopping; the radiation field, assigned the effective inverse
temperature beta1 of its frequency window, drives interband transitions.
The work coordinate couples to the conduction charge N_c, and the voltage
is the chemical-potential split eV = mu_c - mu_v of the two-band
grand-canonical ansatz.

Mode ordering is conduction first, then valence, matching the sign-string
order of operators.fermion_mode; mode q occupies bit q of the basis index.
H0 and every jump are formed directly from those bits.

Every jump operator conserves the total electron number, so the full
generator's kernel is one state per charge sector; the sector tools below
(sector_indices, sector_stationary_state, pv_conditioned_ansatz,
pv_floating_voltage) work within a fixed total charge, which is where the
grand-canonical ansatz can be compared against the true kernel.

Every jump is c_dst+ c_src for a pair of modes: a signed partial
permutation of the occupation states, held as the index arrays of its
nonzeros (_hop).  _channels lists the cell's jumps and is the only code
that knows them.  H0 is diagonal too, so the generator maps diagonal
states to diagonal states, and the populations obey the Pauli master
equation with rates W[b', b] = sum_j rate_j |V_j[b', b]|^2 (Davies 1974;
Spohn 1977), scattered from the index arrays: at most d entries per
channel.  A sector's stationary state solves its block of W.

Both power routes read the interband current in the Heisenberg picture,
tr(N_c L rho) = tr(L*(N_c) rho).  N_c is diagonal, so L*(N_c) is the
diagonal lm = W^T n - (1^T W) n, with n the conduction count of each basis
state.  Only the grand-canonical state, diagonal as well, depends on the
voltage, so pv_power_current and pv_power_fast_ansatz take a 1-d array of
voltages: a sweep forms W and lm once, builds no generator, and pays O(d)
per voltage for its population vector (_gc_diagonal), with no DensityMatrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidDimension, NumericalDrift, ShapeError, ZeroOccupation, _at
from ..gkls import (
    GeneratorFamily,
    GklsGenerator,
    LindbladTerm,
    _bordered_solve,
    _state_tol,
    modulated_family,
)
from ..operators import DensityMatrix
from ..tolerances import DEFAULT, Tolerances

__all__ = [
    "PvSpec",
    "effective_inverse_temperature",
    "build_pv_family",
    "pv_number_operator",
    "pv_grand_canonical",
    "pv_analytic_power",
    "pv_power_current",
    "pv_power_fast_ansatz",
    "pv_ansatz_derivative",
    "open_circuit_voltage",
    "sector_indices",
    "sector_stationary_state",
    "pv_conditioned_ansatz",
    "pv_floating_voltage",
]


def effective_inverse_temperature(n: float, omega: float) -> float:
    """Frequency-local inverse temperature of a photon mode.

    Inverts the Boltzmann ratio of the mode occupation:
    beta[omega] = ln(1 + 1/n) / omega.
    """
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    if np.isnan(n):
        raise ValueError(f"occupation n must be a number, got {n}")
    if n <= 0:
        raise ZeroOccupation(
            f"occupation {n} is not positive; the effective temperature diverges"
        )
    return float(np.log1p(1.0 / n) / omega)


def _rate_matrix(m, shape, name) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    if np.any(a < 0):
        raise ValueError(f"{name} has negative entries")
    return a


@dataclass(frozen=True)
class PvSpec:
    """Cell geometry, bath temperatures, rates, chemical potentials, drive.

    Intraband rate matrices are read as rates[k, k'] for the hop k -> k';
    populate one direction per mode pair, the reverse hop is generated with
    the phonon Gibbs factor.  Interband rates inter_rates[k, l] set the
    recombination k -> l; radiative excitation is generated with the photon
    Gibbs factor at beta1.
    """

    conduction_energies: tuple
    valence_energies: tuple
    beta: float
    beta1: float
    inter_rates: np.ndarray
    intra_rates_c: np.ndarray = None
    intra_rates_v: np.ndarray = None
    mu_c: float = 0.0
    mu_v: float = 0.0
    amplitude: float = 0.0
    frequency: float = 1.0

    def __post_init__(self):
        ec = tuple(float(e) for e in self.conduction_energies)
        ev = tuple(float(e) for e in self.valence_energies)
        if not ec or not ev:
            raise InvalidDimension("each band needs at least one mode")
        if len(ec) + len(ev) > 12:
            raise InvalidDimension(
                f"{len(ec) + len(ev)} fermionic modes exceed the cap of 12"
            )
        object.__setattr__(self, "conduction_energies", ec)
        object.__setattr__(self, "valence_energies", ev)
        for name in ("conduction_energies", "valence_energies", "beta1", "mu_c", "mu_v",
                     "amplitude", "frequency"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if min(ec) <= max(ev):
            raise ValueError(
                f"band gap must be positive: min E_c = {min(ec)} "
                f"<= max E_v = {max(ev)}"
            )
        nc, nv = len(ec), len(ev)
        gc = self.intra_rates_c if self.intra_rates_c is not None else np.zeros((nc, nc))
        gv = self.intra_rates_v if self.intra_rates_v is not None else np.zeros((nv, nv))
        object.__setattr__(self, "intra_rates_c", _rate_matrix(gc, (nc, nc), "intra_rates_c"))
        object.__setattr__(self, "intra_rates_v", _rate_matrix(gv, (nv, nv), "intra_rates_v"))
        object.__setattr__(self, "inter_rates", _rate_matrix(self.inter_rates, (nc, nv), "inter_rates"))
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        _channels(self)  # every Gibbs-ratio reverse rate must be finite

    @property
    def n_conduction(self) -> int:
        return len(self.conduction_energies)

    @property
    def n_valence(self) -> int:
        return len(self.valence_energies)

    @property
    def n_modes(self) -> int:
        return self.n_conduction + self.n_valence

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    @property
    def gap(self) -> float:
        return min(self.conduction_energies) - max(self.valence_energies)

    @property
    def voltage(self) -> float:
        return self.mu_c - self.mu_v


def open_circuit_voltage(spec: PvSpec) -> float:
    """Zero-power voltage omega_g (1 - beta1/beta): the Carnot-factored gap."""
    return spec.gap * (1.0 - spec.beta1 / spec.beta)


def _filled(b: np.ndarray, n_modes: int) -> np.ndarray:
    """Occupied modes among modes 0 .. n_modes - 1 of each basis index in b."""
    return sum(((b >> q) & 1 for q in range(n_modes)), np.zeros_like(b))


def pv_number_operator(spec: PvSpec) -> np.ndarray:
    """Conduction charge N_c = sum_k c_k+ c_k (diagonal in occupation basis)."""
    return np.diag(_filled(np.arange(spec.dim), spec.n_conduction)).astype(complex)


def _mode_energies(spec: PvSpec) -> np.ndarray:
    return np.array(spec.conduction_energies + spec.valence_energies)


def _hop(n_modes: int, src: int, dst: int) -> tuple:
    """c_dst+ c_src on the 2^n occupation basis as (rows, cols, signs).

    A basis state with mode src filled and, once src is emptied, mode dst
    empty goes to the state with src emptied and dst filled; every other
    state goes to 0.  The sign is the Jordan-Wigner parity of both moves,
    as in operators.fermion_mode, so the operator is a signed partial
    permutation: entry [rows[i], cols[i]] is signs[i], every other is 0.
    """
    b = np.arange(1 << n_modes)
    mid = b ^ (1 << src)
    ok = (((b >> src) & 1) == 1) & (((mid >> dst) & 1) == 0)
    parity = _filled(b, src) + _filled(mid, dst)
    return (mid | (1 << dst))[ok], b[ok], 1.0 - 2.0 * (parity[ok] & 1)


def _channels(spec: PvSpec) -> list:
    """The cell's jumps as (src mode, dst mode, rate, bath label), jump c_dst+ c_src.

    Intraband hops in the conduction band, then in the valence band, then
    interband recombination; each channel is followed by its reverse at the
    Gibbs ratio of its bath (phonons at beta, photons at beta1).
    """
    e = _mode_energies(spec)
    c, v = range(spec.n_conduction), range(spec.n_conduction, spec.n_modes)
    blocks = ((c, c, spec.intra_rates_c, "intra_rates_c", spec.beta, "phonon"),
              (v, v, spec.intra_rates_v, "intra_rates_v", spec.beta, "phonon"),
              (c, v, spec.inter_rates, "inter_rates", spec.beta1, "photon"))
    out = []
    for srcs, dsts, rates, name, beta, label in blocks:
        for (i, src), (j, dst) in itertools.product(enumerate(srcs), enumerate(dsts)):
            if src == dst or rates[i, j] == 0:
                continue
            with np.errstate(over="ignore"):
                back = rates[i, j] * np.exp(-beta * (e[src] - e[dst]))
            if not np.isfinite(back):
                raise ValueError(f"{name}[{i}, {j}] has a reverse rate that overflows")
            out += [(src, dst, rates[i, j], label), (dst, src, back, label)]
    return out


def build_pv_family(spec: PvSpec) -> GeneratorFamily:
    """Assemble the cell's driven generator family.

    H0 is the free two-band Hamiltonian; the drive coordinate shifts the
    conduction band rigidly, H(xi) = H0 + xi N_c.  Intraband hops couple to
    the phonon bath at beta, interband transitions to the photon bath at
    beta1; each channel comes with its Gibbs-ratio reverse.  H0 and every
    jump are formed from the occupation bits of the basis index.
    """
    energies = _mode_energies(spec)
    b = np.arange(spec.dim)
    e0 = np.zeros(spec.dim)
    for q in range(spec.n_modes):
        e0 += energies[q] * ((b >> q) & 1)
    terms = []
    for src, dst, rate, label in _channels(spec):
        rows, cols, signs = _hop(spec.n_modes, src, dst)
        jump = np.zeros((spec.dim, spec.dim), dtype=complex)
        jump[rows, cols] = signs
        terms.append(LindbladTerm(jump, rate, label))
    return modulated_family(
        GklsGenerator(np.diag(e0).astype(complex), tuple(terms)),
        pv_number_operator(spec),
        spec.amplitude,
        spec.frequency,
    )


def _pauli_rates(spec: PvSpec) -> np.ndarray:
    """W[b', b] = sum_j rate_j |V_j[b', b]|^2, the Pauli rates between basis states.

    For the cell's generator the populations decouple from the coherences
    (Davies 1974; Spohn 1977), and W is their whole dynamics:
    dp/dt = (W - diag(1^T W)) p.  Each |V_j|^2 is 1 on the channel's index
    arrays and 0 elsewhere, so its rate is added there, in channel order.
    """
    w = np.zeros((spec.dim, spec.dim))
    for src, dst, rate, _ in _channels(spec):
        rows, cols, _ = _hop(spec.n_modes, src, dst)
        w[rows, cols] += rate
    return w


def _single_particle_weights(spec: PvSpec, xi: float, voltage) -> np.ndarray:
    mu_c = spec.mu_c if voltage is None else spec.mu_v + voltage
    eps = np.empty(spec.n_modes)
    eps[: spec.n_conduction] = (
        np.array(spec.conduction_energies) + xi - mu_c
    )
    eps[spec.n_conduction:] = np.array(spec.valence_energies) - spec.mu_v
    return eps


def _gc_diagonal(spec: PvSpec, xi: float, voltage) -> np.ndarray:
    """Grand-canonical populations: products of 1s and e^{-beta eps} over their
    sum, which is >= 1 (the empty state's weight), so a finite p is a state."""
    eps = _single_particle_weights(spec, xi, voltage)
    w = np.ones(1)
    # an overflowing weight is reported below, by the voltage that caused it
    with np.errstate(over="ignore", invalid="ignore"):
        # mode q lives in bit q, so higher modes enter the kron on the left
        for q in range(spec.n_modes):
            w = np.kron(np.array([1.0, np.exp(-spec.beta * eps[q])]), w)
        w = w / w.sum()
    if not np.isfinite(w).all():
        at = "mu_c" if voltage is None else f"voltage {float(voltage):.6g}"
        raise NumericalDrift(f"grand-canonical weights are non-finite at {at}")
    return w


def pv_grand_canonical(spec: PvSpec, xi: float = 0.0, voltage: float = None) -> DensityMatrix:
    """Two-chemical-potential product state of the cell.

    exp(-beta [sum_k (E_c(k)+xi-mu_c) n_ck + sum_l (E_v(l)-mu_v) n_vl]) / Z.
    ``voltage`` overrides mu_c as mu_v + voltage; otherwise spec.mu_c is used.
    """
    return DensityMatrix(np.diag(_gc_diagonal(spec, xi, voltage)).astype(complex))


def _fermi_occupations(spec: PvSpec, voltage) -> tuple:
    f = 1.0 / (np.exp(spec.beta * _single_particle_weights(spec, 0.0, voltage)) + 1.0)
    return f[: spec.n_conduction], f[spec.n_conduction:]


def pv_analytic_power(spec: PvSpec, voltage: float = None) -> float:
    """Closed-form average power of the cell at the given voltage.

    P = g^2 beta <N_c>_0 G (e^{beta[(1 - beta1/beta) omega_g - eV]} - 1),
    G = sum_kl gamma_kl (1 - f_v(l)) f_c(k).

    Exact for degenerate gaps (all interband transition energies equal);
    for spread gaps the single-exponent form is an approximation and the
    numeric route is authoritative.
    """
    e_v = spec.voltage if voltage is None else float(voltage)
    f_c, f_v = _fermi_occupations(spec, voltage)
    n_c0 = float(np.sum(f_c))
    g_bar = float(np.sum(spec.inter_rates * np.outer(f_c, 1.0 - f_v)))
    exponent = spec.beta * ((1.0 - spec.beta1 / spec.beta) * spec.gap - e_v)
    g = spec.amplitude
    return g * g * spec.beta * n_c0 * g_bar * (np.exp(exponent) - 1.0)


def _over_voltages(spec: PvSpec, voltage, power_at):
    """power_at(n, lm, p) at each voltage, with no generator built.

    n is the diagonal of N_c and lm that of L*(N_c), both formed once (see
    the module docstring); p is the grand-canonical population vector of
    _gc_diagonal at each voltage.  A scalar or None voltage runs as a batch
    of one and returns a float; a 1-d array returns an array.
    """
    if voltage is None:
        voltages, scalar = [None], True
    else:
        v = np.asarray(voltage, dtype=float)
        if v.ndim > 1:
            raise ShapeError(f"voltage must be a scalar or 1-d array, got shape {v.shape}")
        voltages, scalar = [float(x) for x in v.reshape(-1)], v.ndim == 0
    n = _filled(np.arange(spec.dim), spec.n_conduction)
    w = _pauli_rates(spec)
    lm = w.T @ n - w.sum(axis=0) * n
    out = np.empty(len(voltages))
    for k, v in enumerate(voltages):
        try:
            p = _gc_diagonal(spec, 0.0, v)
        except NumericalDrift as exc:
            raise _at(k, exc)  # the sample tells a caller which end of a sweep failed
        out[k] = power_at(n, lm, p)
    return float(out[0]) if scalar else out


def pv_power_current(spec: PvSpec, voltage=None):
    """Average power from the many-body generator's charge current.

    Evaluates g^2 beta <N_c>_0 tr(N_c L rho_gc(V)) with the full many-body
    generator: the macroscopic-population form of the fast power formula,
    in which the interband particle current through the grand-canonical
    state carries the voltage dependence.  Crosses zero at the open-circuit
    voltage for degenerate gaps.

    The current is read in the Heisenberg picture, tr(L*(N_c) rho_gc(V)),
    from diagonals formed once per sweep (see the module docstring), so
    ``voltage`` may be a 1-d array; each voltage costs its grand-canonical
    population vector and two O(d) sums.  A scalar or None returns a
    float, an array an array.
    """
    g = spec.amplitude

    def power_at(n, lm, p):
        # the terms cancel at V_oc; einsum keeps the dense trace's rounding there, ddot can give 0.0
        return g * g * spec.beta * float(np.einsum("i,i", n, p)) * float(np.einsum("i,i", lm, p))

    return _over_voltages(spec, voltage, power_at)


def _ansatz_slope(beta: float, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Diagonal of -beta (N_c - <N_c>) rho from the diagonals n of N_c and p of rho."""
    n_rho = n * p
    return -beta * (n_rho - float(n_rho.sum()) * p)


def pv_ansatz_derivative(spec: PvSpec, voltage: float = None) -> np.ndarray:
    """Exact xi-derivative of the grand-canonical ansatz at xi = 0.

    The exponent is a commuting family, so
    d(rho)/d(xi) = -beta (N_c - <N_c>) rho with no ordering corrections.
    Both N_c and rho are diagonal, so N_c rho and <N_c> come from their
    diagonals in O(d).
    """
    p = _gc_diagonal(spec, 0.0, voltage)
    n = _filled(np.arange(spec.dim), spec.n_conduction)
    return np.diag(_ansatz_slope(spec.beta, n, p)).astype(complex)


def pv_power_fast_ansatz(spec: PvSpec, voltage=None):
    """Fast power formula fed with the grand-canonical ansatz derivative.

    -(g^2/2) tr(rho' L* N_c) with rho' from pv_ansatz_derivative.  Because
    the ansatz is a product state, this evaluates to
    (g^2 beta / 2) Cov(N_c, L* N_c), a single-particle covariance that is
    negative at every voltage; the extensive, population-proportional part
    of the power (the part that changes sign at the open-circuit voltage)
    is what pv_power_current isolates.

    Takes ``voltage`` as pv_power_current does.
    """
    g = spec.amplitude

    def power_at(n, lm, p):
        return -0.5 * g * g * float(_ansatz_slope(spec.beta, n, p) @ lm)

    return _over_voltages(spec, voltage, power_at)


# --- charge sectors ----------------------------------------------------------

def sector_indices(spec: PvSpec, n_electrons: int) -> np.ndarray:
    """Basis indices of the fixed total-charge sector."""
    if not isinstance(n_electrons, (int, np.integer)) or not (0 <= n_electrons <= spec.n_modes):
        raise InvalidDimension(f"{n_electrons!r} electrons is not an integer in 0..{spec.n_modes}")
    return np.flatnonzero(_filled(np.arange(spec.dim), spec.n_modes) == n_electrons)


def sector_stationary_state(
    spec: PvSpec,
    n_electrons: int,
    tol: Tolerances = DEFAULT,
) -> DensityMatrix:
    """Unique stationary state of the generator within one charge sector,
    embedded back into the full space.

    The state is diagonal in the occupation basis: H0 is diagonal and every
    jump is a signed partial permutation of occupation states, so the
    generator maps diagonal states to diagonal states, and the sector's
    populations p obey the Pauli master equation Q p = 0 with
    Q = W - diag(1^T W), W[b', b] = sum_j rate_j |V_j[b', b]|^2 over the
    sector.  Q is solved by the bordered solve of ``stationary_state`` with
    the all-ones trace row, and the state checked with its positivity floor.
    """
    idx = sector_indices(spec, n_electrons)
    w = _pauli_rates(spec)[np.ix_(idx, idx)]
    q = w - np.diag(w.sum(axis=0))
    p = np.zeros(spec.dim)
    p[idx] = _bordered_solve([q[None]], np.ones(idx.size), tol)[0][0].real
    return DensityMatrix(np.diag(p).astype(complex), _state_tol(tol))


def _conditioned_weights(spec: PvSpec, n_electrons: int, xi: float, voltage) -> np.ndarray:
    """Diagonal of the grand-canonical ansatz conditioned on a charge sector."""
    idx = sector_indices(spec, n_electrons)
    cond = np.zeros(spec.dim)
    cond[idx] = _gc_diagonal(spec, xi, voltage)[idx]
    total = cond.sum()
    if total <= 0:
        raise ZeroOccupation(f"sector {n_electrons} carries no ansatz weight")
    return cond / total


def pv_conditioned_ansatz(
    spec: PvSpec,
    n_electrons: int,
    xi: float = 0.0,
    voltage: float = None,
) -> DensityMatrix:
    """Grand-canonical ansatz conditioned on a total-charge sector."""
    cond = _conditioned_weights(spec, n_electrons, xi, voltage)
    return DensityMatrix(np.diag(cond).astype(complex))


def pv_floating_voltage(
    spec: PvSpec,
    n_electrons: int,
    tol: Tolerances = DEFAULT,
) -> float:
    """Voltage at which the conditioned ansatz matches the sector kernel.

    Solves <N_c>_ansatz(V) = <N_c>_stationary within the sector by
    bracketed root finding; the result is the cell's self-consistent
    output voltage for that total charge.
    """
    from scipy.optimize import brentq  # imported here, not by every import of lindtherm
    n = _filled(np.arange(spec.dim), spec.n_conduction)
    target = float(n @ sector_stationary_state(spec, n_electrons, tol).matrix.diagonal().real)

    def mismatch(v: float) -> float:
        return float(n @ _conditioned_weights(spec, n_electrons, 0.0, v)) - target

    # the conditioned <N_c> is monotone in V; widen until the root is bracketed
    lo, hi = -abs(spec.gap) * 4.0, abs(spec.gap) * 4.0
    for _ in range(60):
        if mismatch(lo) * mismatch(hi) <= 0:
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ZeroOccupation("could not bracket the floating voltage")
    return float(brentq(mismatch, lo, hi, xtol=1e-12, rtol=1e-14))
