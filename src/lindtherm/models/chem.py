"""Chemically pumped oscillator engine and its classical replicator limit.

A harmonic mode (H = omega a+a) is pumped by a nonequilibrium chemical
environment: jump a+ at rate gamma_up (reaction step feeding the mode),
jump a at rate gamma_down (reverse step), and optionally pure decoherence
-Gamma [N, [N, rho]] realized as the jump N at rate 2 Gamma.  When
gamma_up > gamma_down the mode self-oscillates and the mean energy and
amplitude grow exponentially; the decoherence-dominated diagonal dynamics
is the classical birth-death replicator.

The number-conserving structure makes every diagonal rho_{n, n+k} of the
density matrix evolve independently as a tridiagonal system ("band").  All
bands share one real tridiagonal operator A of size O(dim^2), propagated by
shift-and-invert Krylov: I - gamma A is factored once, one Arnoldi basis of
its inverse serves every sample time, and the basis grows only until its
error estimate is below the output precision.  The cost is O(dim^2) per
basis vector, independent of the norm of A (which grows with the Fock
cutoff), instead of O(dim^6) for a dense superoperator exponential.  That is
what makes the amplification window (mean occupations of a few hundred)
reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np
from scipy.linalg import lapack

from ..errors import (
    DetailedBalanceViolation,
    InvalidDimension,
    NotAmplifying,
    NotAState,
    NumericalDrift,
    ShapeError,
    TruncationOverflow,
)
from ..gkls import GklsGenerator, LindbladTerm, _propagate, _time_grid
from ..operators import DensityMatrix, as_operator, fock_annihilation
from ..tolerances import DEFAULT, Tolerances

__all__ = [
    "Chemistry",
    "ChemSpec",
    "ChemTrajectory",
    "BirthDeathState",
    "GillespieStats",
    "build_chem_generator",
    "coherent_state",
    "evolve_oscillator",
    "analytic_energy",
    "analytic_amplitude",
    "storage_efficiency",
    "birth_death_evolve",
    "birth_death_mean",
    "gillespie_ensemble",
]


@dataclass(frozen=True)
class Chemistry:
    """Reservoir bookkeeping for the reaction A + B -> C + excitation."""

    beta: float
    mu_a: float
    mu_b: float
    mu_c: float


@dataclass(frozen=True)
class ChemSpec:
    """Oscillator frequency, pump/loss/decoherence rates, Fock truncation.

    When ``chemistry`` is given, the pump/loss ratio must equal the
    chemical Boltzmann factor e^{-beta dG} with dG = omega + mu_c - mu_a -
    mu_b (free energy released per reaction); a mismatch beyond 1e-10
    raises DetailedBalanceViolation.
    """

    omega: float
    gamma_up: float
    gamma_down: float
    decoherence: float = 0.0
    dim: int = 60
    chemistry: Chemistry = None

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise InvalidDimension(f"dim must be an integer >= 2, got {self.dim!r}")
        if not np.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        for name in ("gamma_up", "gamma_down", "decoherence"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.chemistry is not None:
            if self.gamma_down <= 0:
                raise DetailedBalanceViolation(
                    "chemistry validation needs gamma_down > 0"
                )
            expected = np.exp(-self.chemistry.beta * self.delta_g)
            actual = self.gamma_up / self.gamma_down
            if abs(actual - expected) >= 1e-10:
                raise DetailedBalanceViolation(
                    f"gamma_up/gamma_down = {actual:.12g} but the chemical "
                    f"Boltzmann factor is {expected:.12g} "
                    f"(dG = {self.delta_g:.12g})"
                )

    @property
    def delta_g(self) -> float:
        """Free energy released per reaction cycle (needs chemistry)."""
        if self.chemistry is None:
            raise ValueError("spec has no chemistry block")
        c = self.chemistry
        return self.omega + c.mu_c - c.mu_a - c.mu_b


def build_chem_generator(spec: ChemSpec) -> GklsGenerator:
    """H = omega a+a with pump, loss, and decoherence channels.

    The double-commutator decoherence -Gamma [N, [N, rho]] equals the
    dissipator of jump N at rate 2 Gamma, so the single assembly path
    covers it.
    """
    a = fock_annihilation(spec.dim)
    number = a.conj().T @ a
    h = spec.omega * number
    terms = []
    if spec.gamma_down > 0:
        terms.append(LindbladTerm(a, spec.gamma_down, "chem"))
    if spec.gamma_up > 0:
        terms.append(LindbladTerm(a.conj().T, spec.gamma_up, "chem"))
    if spec.decoherence > 0:
        terms.append(LindbladTerm(number, 2.0 * spec.decoherence, "decoherence"))
    return GklsGenerator(h, tuple(terms))


def coherent_state(alpha: complex, dim: int) -> DensityMatrix:
    """Truncated coherent state |alpha><alpha|, renormalized on the cutoff.

    Amplitudes are computed in log space, so large |alpha| with a generous
    cutoff stays stable; the discarded tail must be small enough that the
    renormalization is cosmetic (checked by the caller via dim choice).
    """
    if dim < 2:
        raise InvalidDimension(f"dim must be >= 2, got {dim}")
    alpha = complex(alpha)
    n = np.arange(dim)
    if alpha == 0:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
    else:
        log_mag = n * np.log(abs(alpha)) - 0.5 * np.array([lgamma(k + 1.0) for k in n])
        log_mag -= log_mag.max()
        phase = np.exp(1j * n * np.angle(alpha))
        psi = np.exp(log_mag) * phase
        psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


# --- banded propagation ------------------------------------------------------

def _band_offsets(d: int) -> np.ndarray:
    lengths = d - np.arange(d)
    return np.concatenate([[0], np.cumsum(lengths)])


def _band_layout(d: int):
    """Flat indices of band storage in a d x d matrix: (upper, lower).

    Entry i of the band vector holds rho[n, n + k] (flat index ``upper[i]``);
    its mirror rho[n + k, n] sits at ``lower[i]``.
    """
    off = _band_offsets(d)
    k = np.repeat(np.arange(d), d - np.arange(d))
    n = np.arange(off[-1]) - off[k]
    upper = n * (d + 1) + k
    return upper, upper + k * (d - 1)


def _from_bands(v: np.ndarray, layout, d: int) -> np.ndarray:
    upper, lower = layout
    rho = np.zeros((d, d), dtype=complex)
    flat = rho.reshape(-1)
    flat[lower] = v.conj()
    flat[upper] = v  # last, so the diagonal keeps the unconjugated band
    return rho


_KRYLOV_STEP = 10  # basis vectors added between two error estimates
_KRYLOV_CAP = 400  # basis size at which the propagation gives up
_KRYLOV_TOL = 1e-14  # error estimate allowed, relative to each sample's norm


def expm_multiply(sub, diag, sup, v0, tau) -> np.ndarray:
    """Rows exp(tau_i A) v0 for the real tridiagonal A and offsets tau, tau[0] = 0.

    A has ``diag`` on its diagonal, ``sub`` below it and ``sup`` above it.
    Shift-and-invert Krylov (Moret & Novati, BIT 44, 595 (2004); van den
    Eshof & Hochbruck, SIAM J. Sci. Comput. 27, 1438 (2006)): I - gamma A,
    gamma = tau[-1] / 20, is factored once (LAPACK dgttrf), and one
    orthonormal Arnoldi basis V_m of its inverse started at v0, with
    Hessenberg matrix H_m, gives every sample as

        |v0| V_m expm(tau_i (I - H_m^-1) / gamma) e_1.

    The basis grows by _KRYLOV_STEP vectors at a time.  Its error estimate is
    how far each sample moved since the previous size; the basis stops
    growing once that is below _KRYLOV_TOL of the sample's norm at every
    sample, or once it spans the whole space.  A basis that reaches
    _KRYLOV_CAP vectors first, a singular or non-finite I - gamma A, and a
    non-finite result raise NumericalDrift.  A is real, so the real and
    imaginary parts of a complex v0 run as two separate bases.  Row 0 is v0
    itself.
    """
    is_complex = np.iscomplexobj(v0) and v0.imag.any()
    out = np.empty((tau.size, v0.size), dtype=complex if is_complex else float)
    out[0] = v0 if is_complex else v0.real
    if tau.size == 1:
        return out
    gamma = tau[-1] / 20.0
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = (-gamma * sub, 1.0 - gamma * diag, -gamma * sup)
    if not all(np.isfinite(x).all() for x in shifted):
        raise NumericalDrift(
            f"band generator times the grid span {tau[-1]:.3g} is not finite"
        )
    *factors, info = lapack.dgttrf(*shifted)
    if info != 0:
        raise NumericalDrift("band generator: I - gamma A is singular")
    norms = _krylov_samples(factors, gamma, v0.real, tau, np.zeros(tau.size), out.real)
    if is_complex:
        _krylov_samples(factors, gamma, v0.imag, tau, norms, out.imag)
    return out


def _krylov_samples(factors, gamma, b, tau, scale, out) -> np.ndarray:
    """Write exp(tau_i A) b into out[1:] (see ``expm_multiply``).

    ``scale`` holds the per-sample norms of the parts already propagated, so
    the error estimate is relative to the whole sample; returns them with
    this part's norms added.
    """
    beta = np.linalg.norm(b)
    if beta == 0.0:
        out[1:] = 0.0
        return scale
    size = b.size
    cap = min(_KRYLOV_CAP, size)
    basis = np.empty((cap + 1, size))
    hess = np.zeros((cap + 1, cap))
    basis[0] = b / beta
    e1 = np.zeros(cap)
    e1[0] = 1.0
    m, prev = 0, None
    # a non-finite entry anywhere reaches the small exponential, checked there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            for j in range(m, min(m + _KRYLOV_STEP, cap)):
                w = lapack.dgttrs(*factors, basis[j])[0]
                for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
                    c = basis[: j + 1] @ w
                    w -= c @ basis[: j + 1]
                    hess[: j + 1, j] += c
                hess[j + 1, j] = h = np.linalg.norm(w)
                m = j + 1
                if h == 0.0:
                    break
                basis[m] = w / h
            try:
                small = (np.eye(m) - np.linalg.inv(hess[:m, :m])) / gamma
            except np.linalg.LinAlgError:
                raise NumericalDrift("band propagation: Krylov projection is singular") from None
            if not np.isfinite(small).all():
                raise NumericalDrift("band propagation: Krylov projection is not finite")
            u = np.array([e1[:m], *_propagate(
                e1[:m], tau, np.zeros(tau.size - 1), lambda _: small, lambda x, i: x)])
            if not np.isfinite(u).all():
                raise NumericalDrift("band propagation overflowed: non-finite samples")
            norms = np.hypot(scale, beta * np.linalg.norm(u, axis=1))
            if hess[m, m - 1] == 0.0 or m == size:
                break  # the basis spans an invariant subspace: no truncation error
            if prev is not None:
                change = u.copy()
                change[:, : prev.shape[1]] -= prev
                if np.all(beta * np.linalg.norm(change, axis=1) <= _KRYLOV_TOL * norms):
                    break
            if m == cap:
                raise NumericalDrift(
                    f"band propagation: Krylov error estimate above {_KRYLOV_TOL:.0e} "
                    f"after {cap} basis vectors"
                )
            prev = u
    out[1:] = beta * (u[1:] @ basis[:m])
    return norms


@dataclass(frozen=True)
class ChemTrajectory:
    """Sampled oscillator evolution with cheap observables alongside states.

    ``truncated`` flags that the requested grid was cut short because the
    top-level population crossed the guard.
    """

    times: np.ndarray
    states: tuple
    energies: np.ndarray
    amplitudes: np.ndarray
    top_populations: np.ndarray
    truncated: bool = False


def evolve_oscillator(
    spec: ChemSpec,
    initial,
    times,
    guard: float = 1e-8,
    on_overflow: str = "raise",
    tol: Tolerances = DEFAULT,
) -> ChemTrajectory:
    """Propagate the oscillator on its independent density-matrix bands.

    All bands live in one vector (entry i holds rho[n, n + k], band by band,
    see ``_band_layout``) under one real tridiagonal matrix: decay/pump
    balance on the diagonal, gain from the level above (decay, gamma_down s)
    on the upper diagonal and from the level below (pump, gamma_up s) on the
    lower one, s = sqrt((n + 1)(m + 1)) with m = n + k, and s = 0 at the end
    of each band, so bands never mix.  The top level uses w = 0 on the
    diagonal because the truncated a a+ has no state to pump into.  The rigid
    rotation i omega k of band k is applied afterwards as a phase.

    Bands whose initial weight cannot reach the output precision even after
    their Gershgorin growth bound over the grid span are frozen at zero
    instead of propagated; exactly-zero bands (diagonal states, Fock states)
    cost nothing.

    The kept bands are propagated by ``expm_multiply`` for any grid, uniform
    or not: one factorization of I - gamma A (gamma = span / 20) and one
    Krylov basis of its inverse give every sample.  The basis grows ten
    vectors at a time until the change of every sample since the previous
    size is below 1e-14 of its norm.  A basis that reaches 400 vectors first,
    or a non-finite result (an overflowing span or rate), raises
    NumericalDrift, as does a propagated state that fails the state checks.

    The simulation is trusted only while the top Fock level holds less
    than ``guard`` population; beyond that the truncation is biasing the
    dynamics.  on_overflow = "raise" raises TruncationOverflow at the first
    bad sample, "truncate" returns the valid prefix of the grid instead.
    """
    if on_overflow not in ("raise", "truncate"):
        raise ValueError(f"on_overflow must be 'raise' or 'truncate', got {on_overflow!r}")
    t = _time_grid(times)
    rho0 = as_operator(initial, "initial state")
    d = spec.dim
    if rho0.shape != (d, d):
        raise ShapeError(f"initial state shape {rho0.shape} does not match dim {d}")
    gu, gd = spec.gamma_up, spec.gamma_down

    off = _band_offsets(d)
    layout = _band_layout(d)
    n, k = np.divmod(layout[0], d + 1)  # flat index of rho[n, n + k] is n (d + 1) + k
    m = n + k
    w = np.arange(1.0, d + 1.0)
    w[d - 1] = 0.0
    diag = -0.5 * gd * (n + m) - 0.5 * gu * (w[n] + w[m]) - spec.decoherence * k * k
    s = np.sqrt((n + 1.0) * (m + 1.0))
    s[off[1:] - 1] = 0.0

    v0 = rho0.reshape(-1)[layout[0]]
    span = float(t[-1] - t[0])
    floor = 1e-15 * max(float(np.linalg.norm(v0)), 1e-300)
    # Gershgorin bound on each band's log growth rate: the row's diagonal
    # plus the mean of the couplings into and out of it
    row_bound = diag + 0.5 * (gd * s + gu * s)
    row_bound[1:] += 0.5 * (gd * s[:-1] + gu * s[:-1])
    mu = np.maximum(np.maximum.reduceat(row_bound, off[:-1]), 0.0)
    weight = np.sqrt(np.add.reduceat(np.abs(v0) ** 2, off[:-1]))
    kept = (weight != 0.0) & ~(weight * np.exp(np.minimum(mu * span, 700.0)) < floor)
    mask = kept[k]
    sm = s[mask][:-1]
    rel_t = t - t[0]
    compact = expm_multiply(gu * sm, diag[mask], gd * sm, v0[mask], rel_t)

    # kept bands sit in band order, so band 0, if kept, opens the compact
    # vector and band 1 follows it
    pops = compact[:, :d].real if kept[0] else np.zeros((t.size, d))
    top = pops[:, d - 1].copy()  # a view would keep all of compact alive
    bad = np.flatnonzero(top > guard)
    last = int(bad[0]) if bad.size else t.size
    if last < t.size and on_overflow == "raise":
        raise TruncationOverflow(
            f"top-level population {top[last]:.3e} exceeds guard {guard:.1e} "
            f"at t = {t[last]:.6g}"
        )
    if last == 0:
        raise TruncationOverflow(
            f"initial state already has top-level population {top[0]:.3e} "
            f"above guard {guard:.1e}"
        )

    energies = spec.omega * (pops[:last] @ np.arange(d))
    amps = np.zeros(last, dtype=complex)
    if kept[1]:
        start = d if kept[0] else 0
        band1 = compact[:last, start: start + d - 1]
        band1 = band1 * np.exp(1j * spec.omega * rel_t[:last])[:, np.newaxis]
        amps = band1.conj() @ np.sqrt(np.arange(1.0, d))

    state_tol = tol.with_(positivity=max(tol.positivity, 1e-8))
    kept_layout = (layout[0][mask], layout[1][mask])
    kc = k[mask]
    states = []
    for i in range(last):
        phase = np.exp(1j * spec.omega * np.arange(d) * rel_t[i])
        rho = _from_bands(compact[i] * phase[kc], kept_layout, d)
        try:
            states.append(DensityMatrix(rho, state_tol))
        except NotAState as exc:
            if i == 0:
                raise  # the initial state itself, not a propagated one
            raise NumericalDrift(f"state invariant violated at t = {t[i]:.6g}: {exc}") from exc
    return ChemTrajectory(
        times=t[:last],
        states=tuple(states),
        energies=energies,
        amplitudes=amps,
        top_populations=top[:last],
        truncated=last < t.size,
    )


# --- closed forms ------------------------------------------------------------

def analytic_energy(spec: ChemSpec, e0: float, t) -> np.ndarray:
    """Mean-energy growth law E(t) = e^{dt} E0 + (e^{dt} - 1) omega gu / d.

    d = gamma_up - gamma_down; the d -> 0 limit is E0 + omega gu t.
    """
    t = np.asarray(t, dtype=float)
    d = spec.gamma_up - spec.gamma_down
    if d == 0.0:
        return e0 + spec.omega * spec.gamma_up * t
    grow = np.exp(d * t)
    return grow * e0 + (grow - 1.0) * spec.omega * spec.gamma_up / d


def analytic_amplitude(spec: ChemSpec, alpha0: complex, t) -> np.ndarray:
    """Amplitude law alpha(t) = alpha0 e^{(gu-gd)t/2} e^{-i omega t} e^{-Gamma t}.

    The decoherence factor e^{-Gamma t} extends the zero-decoherence law;
    it is validated against integration rather than a printed formula.
    """
    t = np.asarray(t, dtype=float)
    rate = 0.5 * (spec.gamma_up - spec.gamma_down) - spec.decoherence
    return complex(alpha0) * np.exp((rate - 1j * spec.omega) * t)


def storage_efficiency(alpha0: complex, gamma_up: float, gamma_down: float) -> float:
    """Asymptotic ratio of extractable to total energy of the amplified mode.

    eta = |alpha0|^2 / (|alpha0|^2 + gamma_up/(gamma_up - gamma_down));
    defined in the self-oscillation regime gamma_up > gamma_down only.
    """
    if gamma_up <= gamma_down:
        raise NotAmplifying(
            f"gamma_up = {gamma_up} does not exceed gamma_down = {gamma_down}"
        )
    a2 = abs(complex(alpha0)) ** 2
    return a2 / (a2 + gamma_up / (gamma_up - gamma_down))


# --- classical replicator ------------------------------------------------------

@dataclass(frozen=True)
class BirthDeathState:
    """Probability vector over molecule numbers 0..N_max at one time.

    ``trace_slack`` loosens the unit-sum check: the replicator master
    equation loses probability over the truncation edge at rate
    gamma_up (N_max + 1) P_(N_max), so integrated evolutions carry a small
    honest deficit bounded by the guard.
    """

    probs: np.ndarray
    t: float = 0.0
    trace_slack: float = 1e-10

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ShapeError("probs must be a nonempty 1-d vector")
        if not (np.isfinite(p).all() and float(p.min()) >= -1e-12):
            raise ValueError(f"probabilities must be finite and >= 0, min {float(p.min()):.3e}")
        drift = abs(float(p.sum()) - 1.0)
        if drift > self.trace_slack:
            raise ValueError(
                f"probabilities sum to 1{drift:+.3e}, beyond the slack "
                f"{self.trace_slack:.1e}"
            )
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n_max(self) -> int:
        return self.probs.size - 1


def birth_death_mean(state: BirthDeathState) -> float:
    """Mean molecule number of a replicator state."""
    return float(np.dot(np.arange(state.probs.size), state.probs))


def _birth_death_matrix(n_max: int, gamma_up: float, gamma_down: float) -> np.ndarray:
    n = np.arange(n_max + 1, dtype=float)
    mat = np.zeros((n_max + 1, n_max + 1))
    mat[np.arange(n_max + 1), np.arange(n_max + 1)] = -(gamma_down * n + gamma_up * (n + 1.0))
    idx = np.arange(n_max)
    mat[idx, idx + 1] = gamma_down * (idx + 1.0)  # death feeds level below
    mat[idx + 1, idx] = gamma_up * (idx + 1.0)    # birth at rate gu (n+1)
    return mat


def birth_death_evolve(
    p0: BirthDeathState,
    gamma_up: float,
    gamma_down: float,
    times,
    guard: float = 1e-8,
) -> list:
    """Integrate the replicator master equation

        dP_n/dt = gd (n+1) P_(n+1) + gu n P_(n-1) - [gd n + gu (n+1)] P_n

    exactly as written, including the truncation-edge probability leak; the
    run aborts with TruncationOverflow once the top level exceeds the guard.
    """
    t = _time_grid(times)
    mat = _birth_death_matrix(p0.n_max, gamma_up, gamma_down)
    span = float(t[-1] - t[0])
    slack = max(1e-10, 2.0 * gamma_up * (p0.n_max + 1.0) * guard * span)
    first = BirthDeathState(p0.probs, float(t[0]), slack)
    if first.probs[-1] > guard:
        raise TruncationOverflow(
            f"top-level probability {first.probs[-1]:.3e} above guard at start"
        )

    def accept(p, i):
        if not np.isfinite(p).all():
            raise NumericalDrift(f"replicator probabilities are not finite at t = {t[i]:.6g}")
        if p[-1] > guard:
            raise TruncationOverflow(
                f"top-level probability {p[-1]:.3e} exceeds guard {guard:.1e} "
                f"at t = {t[i]:.6g}"
            )
        return BirthDeathState(p, float(t[i]), slack)

    return [first, *_propagate(p0.probs, t, np.zeros(t.size - 1), lambda _: mat, accept)]


@dataclass(frozen=True)
class GillespieStats:
    """Ensemble statistics of the sampled replicator at the grid times."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray
    extinction_fraction: np.ndarray
    trajectories: int


_GILLESPIE_BLOCK = 1 << 16  # trajectories that share one generator


def gillespie_ensemble(
    n0: int,
    gamma_up: float,
    gamma_down: float,
    times,
    trajectories: int,
    seed: int,
) -> GillespieStats:
    """Kinetic Monte Carlo for the replicator: birth gu (n+1), death gd n.

    Exact SSA (Gillespie, J. Phys. Chem. 81, 2340 (1977)) run in lockstep:
    the trajectories of a block advance together as numpy arrays of states
    and next-jump times, each round jumping every trajectory whose next jump
    falls before the current grid time.  The value recorded at t[j] is the
    state before any jump at a time >= t[j]; a state with total rate 0 is
    absorbing.  Blocks of 2^16 trajectories share one generator seeded by
    (seed, block), so the statistics are reproducible for a given (seed,
    trajectories) and memory stays bounded for any ensemble size.  A total
    rate that overflows to inf raises NumericalDrift.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    for rate in (gamma_up, gamma_down):
        if not (np.isfinite(rate) and rate >= 0):
            raise ValueError(f"rates must be finite and nonnegative, got {rate}")
    t = _time_grid(times)
    n_samp = t.size
    total = np.zeros(n_samp)
    total_sq = np.zeros(n_samp)
    extinct = np.zeros(n_samp)

    def jump_rates(n):
        birth = gamma_up * (n + 1.0)
        rate = birth + gamma_down * n
        if not np.isfinite(rate).all():
            raise NumericalDrift(
                f"replicator jump rate is not finite (gamma_up = {gamma_up:.3g}, "
                f"gamma_down = {gamma_down:.3g})"
            )
        return birth / rate, rate

    # a total rate of 0 is absorbing: its wait is inf (and its birth share nan,
    # never read, because the trajectory never jumps again)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for block, start in enumerate(range(0, trajectories, _GILLESPIE_BLOCK)):
            rng = np.random.default_rng((seed, block))
            n = np.full(min(_GILLESPIE_BLOCK, trajectories - start), int(n0), dtype=np.int64)
            p_birth, rate = jump_rates(n)
            nxt = t[0] + rng.standard_exponential(n.size) / rate
            for j in range(n_samp):
                live = np.flatnonzero(nxt < t[j])
                while live.size:
                    m = n[live]
                    m += np.where(rng.random(live.size) < p_birth[live], 1, -1)
                    n[live] = m
                    p_birth[live], rate = jump_rates(m)
                    nxt[live] += rng.standard_exponential(live.size) / rate
                    live = live[nxt[live] < t[j]]
                values = n.astype(float)
                total[j] += values.sum()
                total_sq[j] += np.sum(values * values)  # a multithreaded BLAS dot can cost ms
                extinct[j] += np.count_nonzero(n == 0)
    mean = total / trajectories
    if trajectories > 1:
        var = (total_sq - trajectories * mean * mean) / (trajectories - 1)
        var = np.maximum(var, 0.0)
    else:
        var = np.zeros(n_samp)
    stderr = np.sqrt(var / trajectories)
    return GillespieStats(
        times=t,
        mean=mean,
        variance=var,
        stderr=stderr,
        extinction_fraction=extinct / trajectories,
        trajectories=trajectories,
    )
