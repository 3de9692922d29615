"""Chemically pumped oscillator engine and its classical replicator limit.

A harmonic mode (H = omega a+a) is pumped by a nonequilibrium chemical
environment: jump a+ at rate gamma_up (reaction step feeding the mode),
jump a at rate gamma_down (reverse step), and optionally pure decoherence
-Gamma [N, [N, rho]] realized as the jump N at rate 2 Gamma.  When
gamma_up > gamma_down the mode self-oscillates and the mean energy and
amplitude grow exponentially; the decoherence-dominated diagonal dynamics
is the classical birth-death replicator.

The number-conserving structure makes every diagonal rho_{n+k, n} of the
density matrix, row k of its LAPACK lower band storage, evolve on its own
as a tridiagonal system ("band").  The generator commutes with
e^{i theta N}, so in the frame co-rotating with omega N the bands feel no
rotation: a real start (a coherent state of real alpha) stays real there,
and the lab-frame state differs from it only by the phase e^{-i omega k t}
on band k.  All bands share one real tridiagonal operator A of size
O(dim^2), propagated by shift-and-invert Krylov: I - gamma A is factored
once, one Arnoldi basis of its inverse serves every sample time, and the
basis grows only until its error estimate reaches the output precision.
The cost is O(dim^2) per basis vector, independent of the norm of A (which
grows with the Fock cutoff), instead of O(dim^6) for a dense superoperator
exponential.  That is what makes the amplification window (mean
occupations of a few hundred) reachable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import lgamma

import numpy as np
from scipy.linalg import lapack

from .. import thermo
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
from ..operators import DensityMatrix, _square, fock_annihilation, hermiticity_defect
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

    def __post_init__(self):
        for name in ("beta", "mu_a", "mu_b", "mu_c"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


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
    number = np.diag(np.arange(float(spec.dim)))
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
    psi = _coherent_amplitudes(alpha, dim)
    return DensityMatrix(np.outer(psi, psi.conj()))


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """The unit vector |alpha> of ``coherent_state``, as a complex array.

    A real alpha >= 0 gives exactly zero imaginary parts.
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
    return psi


# --- banded propagation ------------------------------------------------------

def _dense(bands: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The hermitian d x d matrix whose lower bands are ``bands``.

    ``bands`` holds the rows ``rows`` (ascending, from 0) of LAPACK lower
    band storage: the row of band k holds rho[n + k, n] for n < d - k, then
    k zeros; unlisted bands are zero.  Its nonzero entries are scattered
    into the lower triangle as they are (scipy's DIA layout with offsets -k,
    converted to dense).  The upper triangle mirrors it conjugated; the
    diagonal is band 0 as it is.
    """
    d = bands.shape[1]
    b, n = np.nonzero((np.arange(d) < d - rows[:, None]) & (bands != 0))
    low = np.zeros((d, d), dtype=bands.dtype)
    low[n + rows[b], n] = bands[b, n]
    rho = low + low.conj().T
    np.fill_diagonal(rho, bands[0])
    return rho


_KRYLOV_STEP = 10  # basis vectors added between two error estimates
_KRYLOV_CAP = 400  # basis size at which the propagation gives up
_KRYLOV_TOL = 1e-14  # least error estimate asked for, relative to each sample's norm


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
    growing once that is below max(_KRYLOV_TOL, eps ||A||_inf tau[-1]) of
    the sample's norm at every sample (eps the float64 epsilon: rounding A
    alone moves the result that much), or once it spans the whole space.
    A basis that reaches _KRYLOV_CAP vectors first, a singular or
    non-finite I - gamma A, and a non-finite result raise NumericalDrift.
    A is real, so the real and imaginary parts of a complex v0 run as two
    separate bases.  Row 0 is v0 itself.
    """
    is_complex = np.iscomplexobj(v0) and v0.imag.any()
    out = np.empty((tau.size, v0.size), dtype=complex if is_complex else float)
    out[0] = v0 if is_complex else v0.real
    if tau.size == 1:
        return out
    if v0.size == 2:  # scipy's dgttrf wrapper rejects n = 2: add a decoupled zero entry
        return expm_multiply(*(np.append(x, 0.0) for x in (sub, diag, sup, v0)), tau)[:, :2]
    gamma = tau[-1] / 20.0
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = (-gamma * sub, 1.0 - gamma * diag, -gamma * sup)
        row_sums = np.abs(diag) + np.abs(np.append(0.0, sub)) + np.abs(np.append(sup, 0.0))
        target = max(_KRYLOV_TOL, np.finfo(float).eps * float(row_sums.max()) * tau[-1])
    if not all(np.isfinite(x).all() for x in shifted):
        raise NumericalDrift(
            f"band generator times the grid span {tau[-1]:.3g} is not finite"
        )
    *factors, info = lapack.dgttrf(*shifted)
    if info != 0:
        raise NumericalDrift("band generator: I - gamma A is singular")
    norms = _krylov_samples(factors, gamma, v0.real, tau, target, np.zeros(tau.size), out.real)
    if is_complex:
        _krylov_samples(factors, gamma, v0.imag, tau, target, norms, out.imag)
    return out


def _krylov_samples(factors, gamma, b, tau, target, scale, out) -> np.ndarray:
    """Write exp(tau_i A) b into out[1:] (see ``expm_multiply``).

    ``target`` is the relative error estimate at which the basis stops
    growing.  ``scale`` holds the per-sample norms of the parts already
    propagated, so the estimate is relative to the whole sample; returns
    them with this part's norms added.
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
            u = np.array([e1[:m], *_propagate(e1[:m], tau, np.zeros(tau.size - 1), lambda ks: [
                np.repeat(small[None], len(ks), 0)], lambda x, i: x)])
            if not np.isfinite(u).all():
                raise NumericalDrift("band propagation overflowed: non-finite samples")
            norms = np.hypot(scale, beta * np.linalg.norm(u, axis=1))
            if hess[m, m - 1] == 0.0 or m == size:
                break  # the basis spans an invariant subspace: no truncation error
            if prev is not None:
                change = u.copy()
                change[:, : prev.shape[1]] -= prev
                if np.all(beta * np.linalg.norm(change, axis=1) <= target * norms):
                    break
            if m == cap:
                raise NumericalDrift(
                    f"band propagation: Krylov error estimate above {target:.2g} "
                    f"after {cap} basis vectors"
                )
            prev = u
    out[1:] = beta * (u[1:] @ basis[:m])
    return norms


class _LabFrameStates(Sequence):
    """Read-only sequence of a trajectory's lab-frame states, built on access."""

    __slots__ = ("_traj",)

    def __init__(self, traj: ChemTrajectory):
        self._traj = traj

    def __len__(self) -> int:
        return self._traj.times.size

    def __getitem__(self, i):
        # a range indexes, slices and raises exactly as a tuple of this length
        picked = range(len(self))[i]
        if isinstance(picked, range):
            return tuple(self._traj._lab_state(j) for j in picked)
        return self._traj._lab_state(picked)


@dataclass(frozen=True)
class ChemTrajectory:
    """Sampled oscillator evolution with cheap observables alongside states.

    The trajectory keeps each sample only as its propagated bands, in the
    frame co-rotating with omega N: rho_rot = e^{i omega N t} rho
    e^{-i omega N t}, real whenever the initial state is real.
    ``evolve_oscillator`` certified every sample there, and the certificate
    holds in the lab frame too: the rotation is a diagonal unitary, so it
    keeps the trace, the diagonal (the only entries whose hermiticity defect
    band storage can carry) and the spectrum.

    ``states`` is a read-only sequence of the lab-frame density matrices
    (``len``, integer and negative indices, slices and iteration, as a
    tuple): reading sample i multiplies band k (rho[n + k, n]) by
    e^{-i omega k t_i} and returns a validated DensityMatrix, so a run that
    reads no state builds no lab-frame matrix.  ``ergotropy(i)`` reads the
    ergotropy of sample i from its co-rotating band rows, by a dense
    eigensolve of only a leading block whose left-out mass is below the
    rounding of the energy.  ``truncated`` flags
    that the requested grid was cut short because the top-level population
    crossed the guard.
    """

    times: np.ndarray
    energies: np.ndarray
    amplitudes: np.ndarray
    top_populations: np.ndarray
    truncated: bool = False
    # co-rotating samples as (samples, kept bands, dim) rows of LAPACK lower
    # band storage, the kept band indices (see ``_dense``), omega and the
    # tolerances the samples were certified with
    _bands: np.ndarray = field(default=None, repr=False, compare=False)
    _rows: np.ndarray = field(default=None, repr=False, compare=False)
    _omega: float = field(default=0.0, repr=False, compare=False)
    _tol: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    @property
    def states(self) -> Sequence:
        """Lab-frame DensityMatrix of every sample, built when read."""
        return _LabFrameStates(self)

    def _lab_state(self, i: int) -> DensityMatrix:
        phase = np.exp(-1j * self._omega * self._rows * (self.times[i] - self.times[0]))
        return DensityMatrix(_dense(self._bands[i] * phase[:, np.newaxis], self._rows), self._tol)

    def ergotropy(self, i: int) -> float:
        """Ergotropy of sample i against H = omega N, from its co-rotating bands.

        H is diagonal and commutes with the rotation, so the co-rotating
        matrix has the lab-frame energy and spectrum.  The energy E is band 0
        times omega n, summed in full.  The populations are the eigenvalues
        of the leading N x N block (a dense ``eigvalsh`` of the block built
        from its kept band rows), padded with d - N zeros, for the smallest
        N whose left-out mass m(N) (see ``_leading_block``) meets

            omega_max m(N) <= eps (|E| + |omega|),

        omega_max = |omega| (d - 1) the largest |level| and eps the float64
        epsilon.  The left-out entries form a matrix of trace norm at most
        m(N), so by Lidskii's theorem the sorted spectra of the matrix and of
        the padded block differ by at most m(N) in l1, and the passive energy
        by at most omega_max m(N): below the rounding of E itself.  The cut
        follows from eps and the inputs; a state with mass up to the top
        level takes N = d.
        """
        bands, rows = self._bands[i], self._rows
        d = bands.shape[1]
        levels = self._omega * np.arange(float(d))
        energy = float(bands[0].real @ levels)
        size = _leading_block(bands, rows, abs(levels[-1]),
                              np.finfo(float).eps * (abs(energy) + abs(self._omega)))
        populations = np.zeros(d)
        if size:
            inside = rows < size
            populations[:size] = np.linalg.eigvalsh(_dense(bands[inside, :size], rows[inside]))
        return thermo._passive_work(energy, populations, levels)


def _leading_block(bands: np.ndarray, rows: np.ndarray, weight: float, limit: float) -> int:
    """Smallest N whose left-out mass m(N) meets weight m(N) <= limit.

    m(N) is the l1 mass of the entries of the hermitian matrix with band rows
    ``bands`` (band indices ``rows``, see ``_dense``) outside its leading
    N x N block, an off-diagonal entry counted twice (for its mirror).  Band
    entry (k, n) sits in matrix row n + k, so one bincount of the per-row
    masses and a reversed cumulative sum give m for every N; m(d) = 0, so
    N = d always qualifies.
    """
    d = bands.shape[1]
    mass = np.abs(bands) * np.where(rows > 0, 2.0, 1.0)[:, np.newaxis]
    in_row = np.arange(d) + rows[:, np.newaxis]  # the padding lands at d and beyond
    per_row = np.bincount(in_row.reshape(-1), mass.reshape(-1))[:d]
    tail = np.append(np.cumsum(per_row[::-1])[::-1], 0.0)
    return int(np.argmax(weight * tail <= limit))


def _band_certified(bands: np.ndarray, rows: np.ndarray, tol: Tolerances) -> bool:
    """Whether the hermitian matrix ``_dense(bands, rows)`` passes the state checks.

    The checks are DensityMatrix's, read off the band storage: finiteness,
    the trace as the sum of band 0, the hermiticity defect as 2 max|Im band
    0| (every other entry mirrors its conjugate exactly), and positivity by a
    banded Cholesky (dpbtrf/zpbtrf, O(d K^2) for the widest kept band K) of
    the matrix plus tol.positivity I, in a copy that holds every band up to
    K, the frozen ones as zero rows.  False means undecided, not rejected:
    the caller lets DensityMatrix decide on the dense matrix.
    """
    if not np.isfinite(bands).all():
        return False
    if abs(complex(bands[0].sum()) - 1.0) > tol.trace:
        return False
    if 2.0 * float(np.max(np.abs(bands[0].imag))) > tol.hermiticity:
        return False
    ab = np.zeros((rows[-1] + 1, bands.shape[1]), dtype=bands.dtype, order="F")
    ab[rows] = bands  # a fresh copy: the factorization overwrites it
    ab[0] += tol.positivity
    pbtrf = lapack.zpbtrf if np.iscomplexobj(ab) else lapack.dpbtrf
    return pbtrf(ab, lower=1, overwrite_ab=True)[1] == 0


def evolve_oscillator(
    spec: ChemSpec,
    initial,
    times,
    guard: float = 1e-8,
    on_overflow: str = "raise",
    tol: Tolerances = DEFAULT,
) -> ChemTrajectory:
    """Propagate the oscillator on its independent density-matrix bands.

    A sample is LAPACK lower band storage: row k holds band k, rho[n + k, n]
    for n < d - k, then k zeros.  The kept rows laid end to end are one
    vector under one real tridiagonal matrix A: decay/pump balance on the
    diagonal, gain from the level above (decay, gamma_down s) on the upper
    diagonal and from the level below (pump, gamma_up s) on the lower one,
    s = sqrt((n + 1)(m + 1)) with m = n + k, and s = 0 from the end of each
    band on, so bands never mix and the padding stays zero.  The top level
    uses w = 0 on the diagonal because the truncated a a+ has no state to
    pump into.  The rows are the state in the frame co-rotating with
    omega N, and the trajectory keeps only them (see ChemTrajectory).

    Band 0 (the populations) is always kept; another band is frozen at zero
    when its initial weight cannot reach the output precision even after
    its Gershgorin growth bound over the grid span.

    ``expm_multiply`` propagates the kept rows for any grid: one
    factorization of I - gamma A (gamma = span / 20) and one Krylov basis of
    its inverse give every sample, and the basis grows until every sample
    changes by less than max(1e-14, eps ||A||_inf span) of its norm.  A
    basis of 400 vectors, or a non-finite result (an overflowing span or
    rate), raises NumericalDrift.

    Only the lower triangle of the initial matrix is read, so it must be
    hermitian within tol.hermiticity (NotAState otherwise; a DensityMatrix
    is hermitian by construction and skips that O(dim^2) check).  Each kept
    sample is certified once, in the co-rotating frame, from its band
    storage (``_band_certified``, positivity at least 1e-8), and that holds
    for the lab-frame state too.  Only a sample it does not certify goes
    through DensityMatrix on its dense co-rotating matrix, where the
    smallest eigenvalue decides: an initial state that fails raises
    NotAState, a propagated one NumericalDrift naming its time.

    The simulation is trusted only while the top Fock level holds less
    than ``guard`` population; beyond that the truncation is biasing the
    dynamics.  on_overflow = "raise" raises TruncationOverflow at the first
    bad sample, "truncate" returns the valid prefix of the grid instead.
    """
    if on_overflow not in ("raise", "truncate"):
        raise ValueError(f"on_overflow must be 'raise' or 'truncate', got {on_overflow!r}")
    t = _time_grid(times)
    rho0 = _square(initial, "initial state", keep_real=True)
    d = spec.dim
    if rho0.shape != (d, d):
        raise ShapeError(f"initial state shape {rho0.shape} does not match dim {d}")
    defect = 0.0 if isinstance(initial, DensityMatrix) else hermiticity_defect(rho0)
    if defect > tol.hermiticity:
        raise NotAState(f"hermiticity defect {defect:.3e} exceeds {tol.hermiticity:.1e}")
    gu, gd = spec.gamma_up, spec.gamma_down
    span = float(t[-1] - t[0])
    weight = np.sqrt([np.vdot(b, b).real for b in (np.diagonal(rho0, -k) for k in range(d))])
    floor = 1e-15 * max(float(np.linalg.norm(weight)), 1e-300)
    k = np.arange(d)
    # every row's Gershgorin bound below is at most gd + gu d / 2 - Gamma k^2
    # (each coupling s is at most (n + m + 2) / 2), so rows are built only for
    # the bands that reach the floor at that rate, taken with a margin
    crude = np.maximum(2.0 * gd + gu * d - spec.decoherence * k * k, 0.0)
    top = np.flatnonzero(weight * np.exp(np.minimum(crude * span, 700.0)) >= floor).max(initial=0)
    k = k[: top + 1, np.newaxis]
    n = np.arange(d)
    w = np.arange(1.0, 2.0 * d + 1.0)  # pump factor n + 1, none out of the top level
    w[d - 1:] = 0.0
    diag = -0.5 * gd * (2 * n + k) - 0.5 * gu * (w[n] + w[n + k]) - spec.decoherence * k * k
    s = np.where(n < d - 1 - k, np.sqrt((n + 1.0) * (n + k + 1.0)), 0.0)
    # Gershgorin bound on each band's log growth rate: the row's diagonal
    # plus the mean of the couplings into and out of it (diag <= 0 in the
    # padding, so it never raises the bound)
    row_bound = diag + 0.5 * (gd * s + gu * s)
    row_bound[:, 1:] += 0.5 * (gd * s[:, :-1] + gu * s[:, :-1])
    mu = np.maximum(row_bound.max(axis=1), 0.0)
    weight = weight[: top + 1]
    kept = (weight != 0.0) & ~(weight * np.exp(np.minimum(mu * span, 700.0)) < floor)
    kept[0] = True
    rows = np.flatnonzero(kept)
    m = n + rows[:, np.newaxis]
    v0 = np.where(m < d, rho0[np.minimum(m, d - 1), n], 0.0)
    s = s[rows].reshape(-1)[:-1]
    rel_t = t - t[0]
    bands = expm_multiply(gu * s, diag[rows].reshape(-1), gd * s, v0.reshape(-1),
                          rel_t).reshape(t.size, rows.size, d)

    pops = bands[:, 0].real
    top = pops[:, d - 1].copy()  # a view would keep all of bands alive
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
    if rows.size > 1 and rows[1] == 1:  # <a> = sum_n sqrt(n + 1) rho[n + 1, n]
        lab = bands[:last, 1, : d - 1] * np.exp(-1j * spec.omega * rel_t[:last])[:, np.newaxis]
        amps = lab @ np.sqrt(np.arange(1.0, d))

    state_tol = tol.with_(positivity=max(tol.positivity, 1e-8))
    for i in range(last):
        if _band_certified(bands[i], rows, state_tol):
            continue
        try:
            DensityMatrix(_dense(bands[i], rows), state_tol)
        except NotAState as exc:
            if i == 0:
                raise  # the initial state itself, not a propagated one
            raise NumericalDrift(f"state invariant violated at t = {t[i]:.6g}: {exc}") from exc
    return ChemTrajectory(
        times=t[:last],
        energies=energies,
        amplitudes=amps,
        top_populations=top[:last],
        truncated=last < t.size,
        _bands=bands if last == t.size else bands[:last].copy(),
        _rows=rows,
        _omega=spec.omega,
        _tol=state_tol,
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

    return [first, *_propagate(p0.probs, t, np.zeros(t.size - 1),
                               lambda ks: [np.repeat(mat[None], len(ks), 0)],
                               lambda ps, i: [accept(p, i + k) for k, p in enumerate(ps)])]


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
# expected jumps per trajectory above which sampling is refused: each jump is
# one lockstep round of roughly 20 us, so the limit is about 20 s of rounds
_GILLESPIE_JUMPS = 10**6
# expected jump events of the whole ensemble (trajectories x jumps) above
# which sampling is refused: at 25-50 ns per event, about 25-50 s of work
_GILLESPIE_EVENTS = 10**9


def _expected_jumps(n0: int, gamma_up: float, gamma_down: float, span: float) -> float:
    """Mean SSA jumps of one trajectory over ``span``, in closed form.

    J = int_0^span ((gu + gd) <n> + gu) dt with d<n>/dt = (gu - gd) <n> + gu,
    so int <n> dt = span (n0 phi1(x) + gu span phi2(x)) with x = (gu - gd) span,
    phi1 = expm1(x)/x and phi2 = (expm1(x) - x)/x^2.  An overflow gives inf
    or nan, neither of which passes a ``<=`` check against a limit.
    """
    x = (gamma_up - gamma_down) * span
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(x) < 1e-6:  # series: the closed forms cancel catastrophically here
            phi1, phi2 = 1.0 + x / 2.0, 0.5 + x / 6.0
        else:
            e = np.expm1(x)
            phi1, phi2 = e / x, (e - x) / (x * x)
        mean_area = span * (n0 * phi1 + gamma_up * span * phi2)
        return float((gamma_up + gamma_down) * mean_area + gamma_up * span)


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

    Each jump costs one round of array operations, so the run time grows
    with the expected number of jumps per trajectory over the grid span,
    J = int ((gu + gd) <n> + gu) dt, taken in closed form before sampling,
    and the total work with trajectories x J.  A J above 10^6 (or one that
    overflows), or more than 10^9 expected events in all, raises
    NumericalDrift instead of running for minutes or hours.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    for rate in (gamma_up, gamma_down):
        if not (np.isfinite(rate) and rate >= 0):
            raise ValueError(f"rates must be finite and nonnegative, got {rate}")
    t = _time_grid(times)
    jumps = _expected_jumps(n0, gamma_up, gamma_down, t[-1] - t[0])
    if not jumps <= _GILLESPIE_JUMPS:
        raise NumericalDrift(
            f"replicator needs {jumps:.3g} expected jumps per trajectory, above "
            f"the limit {_GILLESPIE_JUMPS:.0e} (gamma_up = {gamma_up:.3g}, "
            f"gamma_down = {gamma_down:.3g})"
        )
    if not trajectories * jumps <= _GILLESPIE_EVENTS:
        raise NumericalDrift(
            f"replicator needs {trajectories} trajectories x {jumps:.3g} expected "
            f"jumps = {trajectories * jumps:.3g} events, above the limit "
            f"{_GILLESPIE_EVENTS:.0e}"
        )
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
