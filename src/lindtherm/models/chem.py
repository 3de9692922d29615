"""Chemically pumped oscillator engine and its classical replicator limit.

A harmonic mode (H = omega a+a) is pumped by a nonequilibrium chemical
environment: jump a+ at rate gamma_up (reaction step feeding the mode),
jump a at rate gamma_down (reverse step), and optionally pure decoherence
-Gamma [N, [N, rho]] realized as the jump N at rate 2 Gamma.  When
gamma_up > gamma_down the mode self-oscillates and the mean energy and
amplitude grow exponentially; the decoherence-dominated diagonal dynamics
is the classical birth-death replicator.

The number-conserving structure makes every diagonal rho_{n, n+k} of the
density matrix evolve independently as a tridiagonal system ("band"), so
propagation cost is O(dim^2) per time instead of O(dim^6) for a dense
superoperator exponential.  That is what makes the amplification window
(mean occupations of a few hundred) reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from ..errors import (
    DetailedBalanceViolation,
    InvalidDimension,
    NotAmplifying,
    ShapeError,
    TruncationOverflow,
)
from ..gkls import GklsGenerator, LindbladTerm
from ..operators import DensityMatrix, as_operator, fock_annihilation, hermitize
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

def _band_arrays(spec: ChemSpec, k: int):
    """Tridiagonal pieces (diag, upper, lower) of band k's real dynamics.

    The rigid rotation i*omega*k*I is factored out by the caller as a scalar
    phase, so the matrix here is real: decay/pump balance on the diagonal,
    gain from the level above (decay) on the upper diagonal, gain from below
    (pump) on the lower one.  The top level uses w = 0 because the truncated
    a a+ has no state to pump into.
    """
    d = spec.dim
    gu, gd, gam = spec.gamma_up, spec.gamma_down, spec.decoherence
    length = d - k
    n = np.arange(length)
    m = n + k
    w = np.arange(1.0, d + 1.0)
    w[d - 1] = 0.0
    diag = -0.5 * gd * (n + m) - 0.5 * gu * (w[n] + w[m]) - gam * k * k
    if length > 1:
        upper = gd * np.sqrt((n[:-1] + 1.0) * (m[:-1] + 1.0))
        lower = gu * np.sqrt(n[1:] * m[1:])
    else:
        upper = lower = np.zeros(0)
    return diag, upper, lower


def _band_growth_bound(diag, upper, lower) -> float:
    """Gershgorin bound on max Re spec of the band matrix (its log growth rate)."""
    r = diag.copy()
    if upper.size:
        s = 0.5 * (upper + lower)
        r[:-1] += s
        r[1:] += s
    return float(r.max())


def _band_offsets(d: int) -> np.ndarray:
    lengths = d - np.arange(d)
    return np.concatenate([[0], np.cumsum(lengths)])


def _to_bands(rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return np.concatenate([np.diagonal(rho, offset=k) for k in range(d)])


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

    Bands never mix, so bands whose initial weight cannot reach the output
    precision even after worst-case growth over the grid span are frozen at
    zero instead of propagated; exactly-zero bands (diagonal states, Fock
    states) cost nothing.  The rigid phase of each band is applied
    analytically, leaving real sparse dynamics for the integrator.

    The simulation is trusted only while the top Fock level holds less
    than ``guard`` population; beyond that the truncation is biasing the
    dynamics.  on_overflow = "raise" raises TruncationOverflow at the first
    bad sample, "truncate" returns the valid prefix of the grid instead.
    """
    if on_overflow not in ("raise", "truncate"):
        raise ValueError(f"on_overflow must be 'raise' or 'truncate', got {on_overflow!r}")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1 or (t.size > 1 and np.any(np.diff(t) <= 0)):
        raise ShapeError("times must be a strictly increasing 1-d grid")
    rho0 = initial.matrix if isinstance(initial, DensityMatrix) else as_operator(initial)
    d = spec.dim
    if rho0.shape != (d, d):
        raise ShapeError(f"initial state shape {rho0.shape} does not match dim {d}")

    off = _band_offsets(d)
    v0 = _to_bands(rho0)
    span = float(t[-1] - t[0])
    floor = 1e-15 * max(float(np.linalg.norm(v0)), 1e-300)
    kept, rows_, cols_, data_, coff = [], [], [], [], [0]
    for k in range(d):
        seg = v0[off[k]: off[k + 1]]
        nrm = float(np.linalg.norm(seg))
        if nrm == 0.0:
            continue
        diag, upper, lower = _band_arrays(spec, k)
        mu = max(_band_growth_bound(diag, upper, lower), 0.0)
        if nrm * np.exp(min(mu * span, 700.0)) < floor:
            continue
        base = coff[-1]
        idx = base + np.arange(diag.size)
        rows_.append(idx)
        cols_.append(idx)
        data_.append(diag)
        if upper.size:
            rows_.append(idx[:-1])
            cols_.append(idx[1:])
            data_.append(upper)
            rows_.append(idx[1:])
            cols_.append(idx[:-1])
            data_.append(lower)
        kept.append(k)
        coff.append(base + diag.size)
    size = coff[-1]
    gen = sp.csr_matrix(
        (np.concatenate(data_), (np.concatenate(rows_), np.concatenate(cols_))),
        shape=(size, size),
    )
    v0c = np.concatenate([v0[off[k]: off[k + 1]] for k in kept])
    if v0c.size and not np.abs(v0c.imag).max():
        v0c = np.ascontiguousarray(v0c.real)  # real bands halve the matvec cost

    if t.size == 1:
        compact = v0c[np.newaxis, :]
    else:
        dt = np.diff(t)
        if np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            compact = expm_multiply(
                gen, v0c, start=0.0, stop=span, num=t.size, endpoint=True
            )
        else:
            steps = [v0c]
            v = v0c
            for step in dt:
                v = expm_multiply(gen * float(step), v)
                steps.append(v)
            compact = np.array(steps)

    samples = np.zeros((t.size, off[-1]), dtype=complex)
    rel_t = t - t[0]
    for j, k in enumerate(kept):
        block = compact[:, coff[j]: coff[j + 1]]
        if k and spec.omega != 0.0:
            block = block * np.exp(1j * spec.omega * k * rel_t)[:, np.newaxis]
        samples[:, off[k]: off[k + 1]] = block
    n_idx = np.arange(d)
    top = samples[:, off[0] + d - 1].real
    band1 = samples[:, off[1]: off[2]]

    last = t.size
    for i in range(t.size):
        if top[i] > guard:
            if on_overflow == "raise":
                raise TruncationOverflow(
                    f"top-level population {top[i]:.3e} exceeds guard {guard:.1e} "
                    f"at t = {t[i]:.6g}"
                )
            last = i
            break
    if last == 0:
        raise TruncationOverflow(
            f"initial state already has top-level population {top[0]:.3e} "
            f"above guard {guard:.1e}"
        )

    state_tol = tol.with_(positivity=max(tol.positivity, 1e-8))
    layout = _band_layout(d)
    ladder = np.sqrt(np.arange(1.0, d))
    states = []
    energies = np.empty(last)
    amps = np.empty(last, dtype=complex)
    for i in range(last):
        band0 = samples[i, off[0]: off[1]].real
        energies[i] = spec.omega * float(np.dot(n_idx, band0))
        amps[i] = complex(np.dot(ladder, band1[i].conj()))
        states.append(DensityMatrix(_from_bands(samples[i], layout, d), state_tol))
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
        if float(p.min()) < -1e-12:
            raise ValueError(f"negative probability {float(p.min()):.3e}")
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
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1 or (t.size > 1 and np.any(np.diff(t) <= 0)):
        raise ShapeError("times must be a strictly increasing 1-d grid")
    mat = _birth_death_matrix(p0.n_max, gamma_up, gamma_down)
    span = float(t[-1] - t[0]) if t.size > 1 else 0.0
    slack = max(1e-10, 2.0 * gamma_up * (p0.n_max + 1.0) * guard * span)
    out = [BirthDeathState(p0.probs, float(t[0]), slack)]
    if out[0].probs[-1] > guard:
        raise TruncationOverflow(
            f"top-level probability {out[0].probs[-1]:.3e} above guard at start"
        )
    props = {}
    p = p0.probs.copy()
    for i in range(1, t.size):
        dt = float(t[i] - t[i - 1])
        key = round(dt, 15)
        if key not in props:
            props[key] = expm(mat * dt)
        p = props[key] @ p
        if p[-1] > guard:
            raise TruncationOverflow(
                f"top-level probability {p[-1]:.3e} exceeds guard {guard:.1e} "
                f"at t = {t[i]:.6g}"
            )
        out.append(BirthDeathState(p, float(t[i]), slack))
    return out


@dataclass(frozen=True)
class GillespieStats:
    """Ensemble statistics of the sampled replicator at the grid times."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray
    extinction_fraction: np.ndarray
    trajectories: int


def gillespie_ensemble(
    n0: int,
    gamma_up: float,
    gamma_down: float,
    times,
    trajectories: int,
    seed: int,
) -> GillespieStats:
    """Kinetic Monte Carlo for the replicator: birth gu (n+1), death gd n.

    Each trajectory draws from its own generator seeded by (seed, index),
    so the ensemble is reproducible and independent of evaluation order.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    for rate in (gamma_up, gamma_down):
        if not (np.isfinite(rate) and rate >= 0):
            raise ValueError(f"rates must be finite and nonnegative, got {rate}")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1 or (t.size > 1 and np.any(np.diff(t) <= 0)):
        raise ShapeError("times must be a strictly increasing 1-d grid")
    n_samp = t.size
    total = np.zeros(n_samp)
    total_sq = np.zeros(n_samp)
    extinct = np.zeros(n_samp)
    values = np.empty(n_samp)
    for idx in range(trajectories):
        rng = np.random.default_rng((seed, idx))
        now = float(t[0])
        n = int(n0)
        cursor = 0
        while cursor < n_samp:
            birth = gamma_up * (n + 1.0)
            death = gamma_down * n
            rate = birth + death
            if rate == 0.0:
                values[cursor:] = n
                cursor = n_samp
                break
            wait = rng.exponential(1.0 / rate)
            jump_at = now + wait
            while cursor < n_samp and t[cursor] <= jump_at:
                values[cursor] = n
                cursor += 1
            if cursor >= n_samp:
                break
            now = jump_at
            if rng.random() < birth / rate:
                n += 1
            else:
                n -= 1
        total += values
        total_sq += values * values
        extinct += values == 0
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
