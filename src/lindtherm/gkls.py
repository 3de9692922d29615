"""GKLS generator assembly, stationary states, propagation, detailed balance.

A generator with Hamiltonian H and jump terms (rate_j, V_j) acts on states as

    L(rho) = G rho + rho G+ + sum_j rate_j V_j rho V_j+,
    G = -iH - K/2,  K = sum_j rate_j V_j+ V_j,

and on observables as its Hilbert-Schmidt adjoint

    L*(X) = G+ X + X G + sum_j rate_j V_j+ X V_j.

On column-stacked operators (see operators.py for the convention) the
matrix of L is I (x) G + conj(G) (x) I + sum_j rate_j conj(V_j) (x) V_j, and
the matrix of L* is its conjugate transpose.

Every generator keeps one jump table, built on first use: the scaled jumps
sqrt(rate_j) V_j stacked as a C-contiguous (n, d, d) array, grouped by bath
label so that each bath is one slice.  Everything else reads that table.
Flattened to (n, d^2) it is the matrix W whose Gram matrix W^T conj(W) is
the jump part of the superoperator, up to an index permutation; K_b is one
GEMM over bath b's slice; and the direct actions and per-bath heat
currents evaluate the kernel a X + X a+ + sum_j v_j X v_j+ as two GEMMs
per chunk of the table: Y = [v_j X]_j, then [Y_1 ... Y_m] [v_1+; ...; v_m+].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import blas, expm, lapack

from .errors import (
    NonUniqueStationary,
    NotAnEigenoperator,
    NotAState,
    NotStationary,
    NumericalDrift,
    ShapeError,
    SingularWeight,
    StepTooLarge,
)
from .operators import (
    DensityMatrix,
    as_operator,
    dag,
    hermiticity_defect,
    hermitize,
    left_mul,
    right_mul,
    unvec,
    vec,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "LindbladTerm",
    "GklsGenerator",
    "GeneratorFamily",
    "Trajectory",
    "DetailedBalanceReport",
    "schrodinger_super",
    "heisenberg_super",
    "apply_schrodinger",
    "apply_heisenberg",
    "gibbs_state",
    "thermal_pair",
    "davies_terms",
    "thermal_family",
    "modulated_family",
    "stationary_state",
    "evolve",
    "evolve_driven",
    "weighted_inner_product",
    "detailed_balance_report",
]


@dataclass(frozen=True)
class LindbladTerm:
    """One dissipative channel: jump operator, nonnegative rate, bath label."""

    jump: np.ndarray
    rate: float
    bath_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "jump", as_operator(self.jump, "jump operator"))
        if not np.isfinite(self.jump).all():
            raise ValueError("jump operator has non-finite entries")
        object.__setattr__(self, "rate", float(self.rate))
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate}")

    @property
    def scaled_jump(self) -> np.ndarray:
        return np.sqrt(self.rate) * self.jump


@dataclass(frozen=True)
class GklsGenerator:
    """Hamiltonian plus a tuple of LindbladTerm channels.

    On first use the generator builds its jump table, sqrt(rate_j) V_j for
    every term as one C-contiguous (n, d, d) array with the terms grouped
    by bath label (in order of first appearance), and keeps it together
    with the d x d matrices K_b (per bath) and G.  The table costs
    n d^2 16 bytes, as much as the terms themselves.
    """

    hamiltonian: np.ndarray
    terms: tuple

    def __post_init__(self):
        h = as_operator(self.hamiltonian, "hamiltonian")
        if not np.isfinite(h).all():
            raise ShapeError("hamiltonian has non-finite entries")
        defect = hermiticity_defect(h)
        if defect > DEFAULT.hamiltonian_hermiticity:
            raise ShapeError(
                f"hamiltonian hermiticity defect {defect:.3e} exceeds "
                f"{DEFAULT.hamiltonian_hermiticity:.1e}"
            )
        object.__setattr__(self, "hamiltonian", h)
        terms = tuple(self.terms)
        for k, term in enumerate(terms):
            if not isinstance(term, LindbladTerm):
                raise TypeError(f"terms[{k}] is not a LindbladTerm")
            if term.jump.shape != h.shape:
                raise ShapeError(
                    f"terms[{k}] jump shape {term.jump.shape} does not match "
                    f"hamiltonian shape {h.shape}"
                )
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def bath_labels(self) -> tuple:
        return tuple(self._baths)

    @property
    def _jumps(self) -> np.ndarray:
        """The jump table: row j is sqrt(rate_j) V_j, grouped by bath label."""
        return self._table[0]

    @cached_property
    def _table(self) -> tuple:
        """(jump table, {bath label: slice of the table})."""
        groups = {}
        for term in self.terms:
            groups.setdefault(term.bath_label, []).append(term)
        jumps = np.empty((len(self.terms), self.dim, self.dim), dtype=complex)
        slices = {}
        j = 0
        for label, ts in groups.items():
            slices[label] = slice(j, j + len(ts))
            for t in ts:
                np.multiply(t.jump, np.sqrt(t.rate), out=jumps[j])
                j += 1
        return jumps, slices

    @cached_property
    def _baths(self) -> dict:
        """{bath label: (K_b, the bath's slice of the jump table)}.

        K_b = sum of rate V+ V over the bath is one GEMM U^H U with U the
        slice flattened to (n_b d, d); BLAS is handed U^T, F-contiguous, so
        nothing is copied.
        """
        jumps, slices = self._table
        baths = {}
        for label, sl in slices.items():
            u = jumps[sl].reshape(-1, self.dim).T
            baths[label] = (blas.zgemm(1.0, u, u, trans_b=2).T, jumps[sl])
        return baths

    @cached_property
    def _g(self) -> np.ndarray:
        """G = -iH - K/2, so that L(X) = G X + X G+ + sum rate V X V+."""
        return -1j * self.hamiltonian - 0.5 * sum(k for k, _ in self._baths.values())


@dataclass(frozen=True)
class GeneratorFamily:
    """A xi-parametrized generator with a sinusoidal drive xi(t) = g sin(Omega t).

    ``generator_of`` maps the drive coordinate xi to a GklsGenerator, and
    ``base`` holds its value at xi = 0, evaluated once at construction.  The
    drive observable M is the operator conjugate to xi; the perturbative
    power formulas assume [H0, M] = 0, which is checked with a warning
    rather than enforced.
    """

    generator_of: object
    drive_observable: np.ndarray
    amplitude: float
    frequency: float
    base: GklsGenerator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_operator(self.drive_observable, "drive observable")
        defect = hermiticity_defect(m)
        if defect > DEFAULT.hamiltonian_hermiticity:
            raise ShapeError(
                f"drive observable hermiticity defect {defect:.3e} exceeds "
                f"{DEFAULT.hamiltonian_hermiticity:.1e}"
            )
        object.__setattr__(self, "drive_observable", m)
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "frequency", float(self.frequency))
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        object.__setattr__(self, "base", self.generator_of(0.0))
        h0 = self.base.hamiltonian
        comm = h0 @ m - m @ h0
        if np.linalg.norm(comm) > 1e-10:
            warnings.warn(
                "drive observable does not commute with the static hamiltonian "
                f"(||[H0, M]|| = {np.linalg.norm(comm):.3e}); the perturbative "
                "power formulas are derived under [H0, M] = 0",
                stacklevel=2,
            )

    def xi(self, t: float) -> float:
        """Drive coordinate at time t."""
        return self.amplitude * np.sin(self.frequency * t)


@dataclass(frozen=True)
class Trajectory:
    """Time grid, states, and (for driven runs) the frozen drive samples."""

    times: np.ndarray
    states: tuple
    xi_midpoints: np.ndarray = None

    def __post_init__(self):
        t = _time_grid(self.times)
        object.__setattr__(self, "times", t)
        states = tuple(self.states)
        if len(states) != t.size:
            raise ShapeError(
                f"{len(states)} states for {t.size} grid points"
            )
        for s in states:
            if not isinstance(s, DensityMatrix):
                raise TypeError("states must be DensityMatrix instances")
        object.__setattr__(self, "states", states)
        if self.xi_midpoints is not None:
            x = np.asarray(self.xi_midpoints, dtype=float)
            if x.shape != (t.size - 1,):
                raise ShapeError(
                    f"xi_midpoints must have length {t.size - 1}, got {x.shape}"
                )
            object.__setattr__(self, "xi_midpoints", x)

    def __len__(self) -> int:
        return len(self.states)


# --- superoperator assembly -------------------------------------------------

def schrodinger_super(gen: GklsGenerator) -> np.ndarray:
    """Full generator matrix acting on vectorized states.

    The jump part sum_j rate_j conj(V_j) (x) V_j is an index permutation of
    the hermitian Gram matrix R = W^T conj(W) of the jump table flattened
    to W, shape (n, d^2).  One rank-n update (BLAS zherk, reading W^T
    without a copy) gives its upper triangle U, and R = U + (U - diag U)^H
    is added in place through two permuted views of U.
    """
    g = gen._g
    s = left_mul(g)
    s += right_mul(dag(g))
    if gen.terms:
        d = gen.dim
        s4 = s.reshape(d, d, d, d)
        # u[(a, b), (c, e)] = sum_j V_j[a, b] conj(V_j[c, e]) for (a, b) <= (c, e),
        # pairs in row-major order.  The kron entry [(i, k), (l, m)] is
        # R[(k, m), (i, l)]: its upper part is read through u.T, its strict
        # lower part through the transpose of conj(u) with the diagonal cleared
        u = blas.zherk(1.0, gen._jumps.reshape(-1, d * d).T)
        s4 += u.T.reshape(d, d, d, d).transpose(0, 2, 1, 3)
        np.fill_diagonal(u, 0.0)
        np.conjugate(u, out=u)
        s4 += u.T.reshape(d, d, d, d).transpose(2, 0, 3, 1)
    return s


def heisenberg_super(gen: GklsGenerator) -> np.ndarray:
    """Full adjoint generator matrix acting on vectorized observables."""
    return dag(schrodinger_super(gen))


# temporaries of one chunk of the jump table in _gkls_action stay below this
_CHUNK_BYTES = 16 << 20


def _gkls_action(a: np.ndarray, x: np.ndarray, jumps: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """a X + X a+ + sum_j v_j X v_j+ with v_j = jumps[j], or jumps[j]+ if adjoint.

    ``jumps`` is a C-contiguous (n, d, d) stack, summed in chunks whose
    temporaries stay below _CHUNK_BYTES.  Per chunk, one batched product
    P_j = Y u_j and one GEMM over the stacked index (j, row) give
    sum_j P_j^T conj(u_j) = sum_j u_j^T Y^T conj(u_j).  For L, u_j = V_j^T
    (copied out) and Y = X^T, so the GEMM is [V_1 X ... V_m X] times
    [V_1+; ...; V_m+]; for L*, u_j = V_j in place and Y = X, which gives
    the transpose of sum_j V_j+ X V_j.
    """
    out = a @ x + x @ dag(a)
    d = x.shape[0]
    y = x if adjoint else x.T
    step = max(1, _CHUNK_BYTES // (32 * d * d))
    for lo in range(0, len(jumps), step):
        u = jumps[lo:lo + step]
        if not adjoint:
            u = np.ascontiguousarray(u.transpose(0, 2, 1))
        z = blas.zgemm(1.0, np.matmul(y, u).reshape(-1, d).T, u.reshape(-1, d).T, trans_b=2)
        out += z.T if adjoint else z
    return out


def apply_schrodinger(gen: GklsGenerator, x: np.ndarray) -> np.ndarray:
    """L(X) by direct matrix products (no superoperator assembly)."""
    return _gkls_action(gen._g, as_operator(x), gen._jumps)


def apply_heisenberg(gen: GklsGenerator, x: np.ndarray) -> np.ndarray:
    """L*(X) by direct matrix products."""
    return _gkls_action(dag(gen._g), as_operator(x), gen._jumps, adjoint=True)


# --- thermal building blocks -------------------------------------------------

def gibbs_state(hamiltonian: np.ndarray, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z; the ground energy is subtracted first."""
    h = as_operator(hamiltonian, "hamiltonian")
    vals, vecs = np.linalg.eigh(hermitize(h))
    w = np.exp(-beta * (vals - vals.min()))
    w /= w.sum()
    return DensityMatrix((vecs * w) @ dag(vecs))


def thermal_pair(
    a: np.ndarray,
    base_rate: float,
    bohr_frequency: float,
    beta: float,
    bath_label: str = "",
    hamiltonian: np.ndarray = None,
    tol: Tolerances = DEFAULT,
) -> tuple:
    """Gibbs-ratio pair of terms: (A, rate) and (A+, rate e^{-beta omega}).

    When ``hamiltonian`` is supplied, A is checked to be a lowering
    eigenoperator, [H, A] = -omega A, within the relative tolerance.
    """
    a = as_operator(a, "jump operator")
    if base_rate <= 0:
        raise ValueError(f"base_rate must be positive, got {base_rate}")
    if hamiltonian is not None:
        h = as_operator(hamiltonian, "hamiltonian")
        resid = np.linalg.norm(h @ a - a @ h + bohr_frequency * a)
        scale = np.linalg.norm(a)
        if scale == 0 or resid > tol.eigenoperator * scale:
            raise NotAnEigenoperator(
                f"[H, A] + omega A has norm {resid:.3e} "
                f"(relative {resid / max(scale, 1e-300):.3e}) "
                f"for omega = {bohr_frequency}"
            )
    down = LindbladTerm(a, base_rate, bath_label)
    up = LindbladTerm(dag(a), base_rate * np.exp(-beta * bohr_frequency), bath_label)
    return down, up


_FREQ_TOL = 1e-9  # Bohr gaps closer than this are one frequency


def davies_terms(
    hamiltonian: np.ndarray,
    coupling: np.ndarray,
    beta: float,
    base_rate: float = 1.0,
    bath_label: str = "",
) -> list:
    """Thermal jump terms from the Bohr decomposition of a coupling operator.

    The coupling A is split into eigenoperators A_w of the Hamiltonian, one
    per distinct positive Bohr gap w: sorted gaps whose neighbours lie within
    _FREQ_TOL (1e-9) form one group, valued at its first gap in row-major order;
    each contributes a Gibbs-ratio pair (A_w, rate), (A_w+, rate e^{-beta w}).
    The zero-frequency block enters once with its identity component removed
    (that component is dynamically inert).  The Gibbs state of H is exactly
    stationary for the resulting channel set.
    """
    h = as_operator(hamiltonian, "hamiltonian")
    a = as_operator(coupling, "coupling")
    if a.shape != h.shape:
        raise ShapeError(f"coupling shape {a.shape} does not match {h.shape}")
    vals, vecs = np.linalg.eigh(hermitize(h))
    at = dag(vecs) @ a @ vecs
    d = h.shape[0]
    rows, cols = np.nonzero(at)  # row-major order
    if not rows.size:
        return []
    gaps = vals[cols] - vals[rows]
    order = np.argsort(gaps, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(gaps[order]) > _FREQ_TOL) + 1)
    terms = []
    for group in groups:
        w = gaps[group.min()]  # the group's first gap in row-major order
        block = np.zeros((d, d), dtype=complex)
        block[rows[group], cols[group]] = at[rows[group], cols[group]]
        if abs(w) <= _FREQ_TOL:
            block -= (np.trace(block) / d) * np.eye(d)
            if np.linalg.norm(block) > 1e-12:
                terms.append(LindbladTerm(vecs @ block @ dag(vecs), base_rate, bath_label))
        elif w > 0:
            aw = vecs @ block @ dag(vecs)
            terms.extend(
                thermal_pair(aw, base_rate, w, beta, bath_label, hamiltonian=h)
            )
    return terms


def thermal_family(
    h0: np.ndarray,
    m: np.ndarray,
    couplings,
    amplitude: float,
    frequency: float,
) -> GeneratorFamily:
    """Driven family whose baths rethermalize to H(xi) = H0 + xi M.

    ``couplings`` is an iterable of (coupling operator, beta, base_rate,
    bath_label).  The Davies decomposition is rebuilt at every xi, so each
    bath's Gibbs state of H(xi) is exactly stationary for its own channel
    set at that xi.
    """
    h0 = as_operator(h0, "h0")
    m = as_operator(m, "drive observable")
    spec = [
        (as_operator(c, "coupling"), float(b), float(r), str(lbl))
        for (c, b, r, lbl) in couplings
    ]

    def generator_of(xi: float) -> GklsGenerator:
        h = h0 + xi * m
        terms = []
        for coupling, beta, rate, label in spec:
            terms.extend(davies_terms(h, coupling, beta, rate, label))
        return GklsGenerator(h, tuple(terms))

    return GeneratorFamily(generator_of, m, amplitude, frequency)


def modulated_family(
    gen: GklsGenerator,
    m: np.ndarray,
    amplitude: float,
    frequency: float,
) -> GeneratorFamily:
    """Family where xi shifts the Hamiltonian only: H0 + xi M, frozen terms."""
    m = as_operator(m, "drive observable")

    def generator_of(xi: float) -> GklsGenerator:
        return GklsGenerator(gen.hamiltonian + xi * m, gen.terms)

    return GeneratorFamily(generator_of, m, amplitude, frequency)


# --- stationary states -------------------------------------------------------

def _factor(a: np.ndarray, limit: float, error, what: str):
    """One LU factorization of a, returned as its solver b -> a^(-1) b.

    a is overwritten when it is Fortran-ordered.  Raises ``error`` when a is
    exactly singular or its one-norm reciprocal condition estimate (LAPACK
    ?gecon) is below 1/limit; NaN fails too.
    """
    anorm = np.linalg.norm(a, 1)
    lu, piv, info = lapack.zgetrf(a, overwrite_a=True)
    rcond = lapack.zgecon(lu, anorm)[0] if info == 0 else 0.0
    if not rcond * limit >= 1:
        raise error(f"{what}: reciprocal condition estimate {rcond:.3e} below {1 / limit:.1e}")
    return lambda b: lapack.zgetrs(lu, piv, b)[0]


def _bordered_solve(s: np.ndarray, trace: np.ndarray, tol: Tolerances) -> tuple:
    """(x, solve): the kernel vector of s with trace . x = 1, and the solver.

    Row 0 of s, redundant when s preserves the trace functional ``trace``,
    is replaced by that functional scaled by ||s||_1 (by 1 when s = 0, whose
    kernel is unique only in dimension one), and the system is factored
    once; solve(b) is y with s[1:] y = b[1:] and scale * trace . y = b[0],
    for one right-hand side or a column stack.  A reciprocal condition
    estimate below tol.kernel_cut raises NonUniqueStationary, and
    ||s x|| > tol.stationarity raises NotStationary.
    """
    scale = float(np.linalg.norm(s, 1)) or 1.0
    a = np.array(s, dtype=complex, order="F")
    a[0] = scale * trace
    solve = _factor(a, 1.0 / tol.kernel_cut, NonUniqueStationary,
                    "bordered stationary system")
    b = np.zeros(s.shape[0], dtype=complex)
    b[0] = scale
    x = solve(b)
    resid = float(np.linalg.norm(s @ x))
    if resid > tol.stationarity:
        raise NotStationary(
            f"stationary candidate has generator-image norm {resid:.3e} "
            f"(tolerance {tol.stationarity:.1e})"
        )
    return x, solve


def _stationary_factored(s: np.ndarray, tol: Tolerances) -> tuple:
    """(state, solve) of the generator matrix s; see ``stationary_state``."""
    dim = int(round(np.sqrt(s.shape[0])))
    x, solve = _bordered_solve(s, vec(np.eye(dim)), tol)
    return DensityMatrix(hermitize(unvec(x)), tol.with_(positivity=1e-8)), solve


def stationary_state(gen: GklsGenerator, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Unique stationary state by one bordered linear solve.

    Trace preservation makes row 0 of the generator matrix L redundant, so
    it is replaced by the trace functional scaled by ||L||_1 (by 1 when
    L = 0, as for a one-level system) and the system is solved against
    that scale times e_0.  A kernel of dimension other than one makes that
    system singular: its reciprocal condition estimate below tol.kernel_cut
    raises NonUniqueStationary.  The solution is checked against
    ||L rho||_F <= tol.stationarity, hermitized and validated as a state
    with positivity 1e-8.
    """
    return _stationary_factored(schrodinger_super(gen), tol)[0]


# --- propagation -------------------------------------------------------------

def _time_grid(times, points: int = 1) -> np.ndarray:
    """``times`` as a float array: finite, 1-d, strictly increasing, >= ``points`` long."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < points or not np.isfinite(t).all() or np.any(np.diff(t) <= 0):
        raise ShapeError(
            f"times must be a finite, strictly increasing 1-d grid of at least {points} points"
        )
    return t


def _propagate(v0: np.ndarray, t: np.ndarray, keys, matrix_of, accept) -> list:
    """[accept(v_i, i) for i = 1 .. len(t) - 1] along a piecewise-constant linear flow.

    Step i maps v_{i-1} to v_i = expm(matrix_of(keys[i-1]) dt_i) v_{i-1}; one
    exponential is built per distinct (key, dt) pair.  ``accept`` checks the
    vector (raising to stop the flow) and returns what the caller keeps.
    """
    props = {}
    out = []
    v = v0
    for i in range(1, t.size):
        dt = t[i] - t[i - 1]
        key = (round(float(keys[i - 1]), 15), round(float(dt), 15))
        if key not in props:
            props[key] = expm(matrix_of(keys[i - 1]) * dt)
        v = props[key] @ v
        out.append(accept(v, i))
    return out


def _state_flow(rho0: DensityMatrix, dim: int, t, keys, superop_of, tol: Tolerances) -> tuple:
    """States of a piecewise-constant GKLS flow, each validated against ``tol``."""
    if rho0.dim != dim:
        raise ShapeError(f"initial state has dimension {rho0.dim}, the generator {dim}")

    def accept(v, i):
        try:
            return DensityMatrix(unvec(v), tol)
        except NotAState as exc:
            raise NumericalDrift(f"state invariant violated at step {i}: {exc}") from exc

    return (rho0, *_propagate(vec(rho0.matrix), t, keys, superop_of, accept))


def evolve(
    gen: GklsGenerator, rho0: DensityMatrix, times, tol: Tolerances = DEFAULT
) -> Trajectory:
    """Propagate a state by exponentials of the static generator.

    One exponential is computed per distinct step size (grids from linspace
    reuse a single propagator); every state is re-validated against ``tol``,
    and a violation raises NumericalDrift carrying the step index.
    """
    t = _time_grid(times)
    s = schrodinger_super(gen)
    return Trajectory(t, _state_flow(rho0, gen.dim, t, np.zeros(t.size - 1), lambda xi: s, tol))


def evolve_driven(
    family: GeneratorFamily, rho0: DensityMatrix, times, tol: Tolerances = DEFAULT
) -> Trajectory:
    """Piecewise-frozen propagation of the driven family.

    On each step the generator is frozen at the midpoint drive value
    xi(t_mid) and exponentiated.  The step size must satisfy
    dt <= min(0.05/Omega, 0.1/max rate) for the freeze to be a faithful
    quasi-static approximation.  States are validated as in ``evolve``.
    """
    t = _time_grid(times, points=2)
    bound = 0.05 / family.frequency
    mr = max((term.rate for term in family.base.terms), default=0.0)
    if mr > 0:
        bound = min(bound, 0.1 / mr)
    dt_max = float(np.max(np.diff(t)))
    if dt_max > bound * (1 + 1e-12):
        raise StepTooLarge(
            f"max step {dt_max:.3e} exceeds the freeze bound {bound:.3e} "
            f"(Omega = {family.frequency}, max rate = {mr})"
        )
    mids = family.xi(0.5 * (t[1:] + t[:-1]))
    states = _state_flow(
        rho0, family.base.dim, t, mids, lambda xi: schrodinger_super(family.generator_of(xi)), tol
    )
    return Trajectory(t, states, xi_midpoints=mids)


# --- detailed balance --------------------------------------------------------

def weighted_inner_product(x, y, rho_bar, tol: Tolerances = DEFAULT) -> complex:
    """Stationary-state-weighted scalar product tr(rho_bar X+ Y)."""
    x = as_operator(x, "x")
    y = as_operator(y, "y")
    w = as_operator(rho_bar, "weight")
    if x.shape != y.shape or x.shape != w.shape:
        raise ShapeError("operands and weight must share one shape")
    lo = float(np.linalg.eigvalsh(hermitize(w))[0])
    if lo <= 1e-12:
        raise SingularWeight(f"weight minimum eigenvalue {lo:.3e} not > 1e-12")
    return complex(np.trace(w @ dag(x) @ y))


@dataclass(frozen=True)
class DetailedBalanceReport:
    """Residuals of the quantum detailed-balance structure at a stationary state.

    All three are absolute Frobenius norms measured in the frame where the
    weighted scalar product is the plain one: the dissipative part of L*
    should be hermitian there, the Hamiltonian part anti-hermitian, and the
    two should commute.
    """

    dissipative_hermiticity_defect: float
    hamiltonian_antihermiticity_defect: float
    commutator_norm: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.dissipative_hermiticity_defect <= self.tolerance
            and self.hamiltonian_antihermiticity_defect <= self.tolerance
            and self.commutator_norm <= self.tolerance
        )


def detailed_balance_report(
    gen: GklsGenerator,
    rho_bar: DensityMatrix,
    tol: Tolerances = DEFAULT,
) -> DetailedBalanceReport:
    """Diagnose quantum detailed balance of ``gen`` at the stationary state.

    Requires rho_bar stationary (within tol.stationarity) and strictly
    positive.  The Heisenberg generator is split into Hamiltonian and
    dissipative parts; both are conjugated into the orthonormal frame of
    the rho_bar-weighted scalar product, where hermiticity statements
    become plain matrix symmetry.
    """
    w = as_operator(rho_bar, "reference state")
    resid = float(np.linalg.norm(apply_schrodinger(gen, w)))
    if resid > tol.stationarity:
        raise NotStationary(
            f"reference state has generator-image norm {resid:.3e} "
            f"(tolerance {tol.stationarity:.1e})"
        )
    vals, vecs = np.linalg.eigh(hermitize(w))
    if float(vals[0]) <= 1e-12:
        raise SingularWeight(
            f"stationary state minimum eigenvalue {float(vals[0]):.3e} not > 1e-12"
        )
    root = (vecs * np.sqrt(vals)) @ dag(vecs)
    root_inv = (vecs * (1.0 / np.sqrt(vals))) @ dag(vecs)
    d = gen.dim
    eye = np.eye(d)

    # T S T^-1 with T = right multiplication by root is one O(d^5)
    # contraction.  The Hamiltonian part X -> i[H, X] of S maps to
    # Y -> i(H Y - Y M), M = root^-1 H root; the dissipative part is the rest.
    dis_gns = np.einsum(
        "aj,iakb,lb->ijkl",
        root, heisenberg_super(gen).reshape(d, d, d, d, order="F"), root_inv,
        optimize=True,
    ).reshape(d * d, d * d, order="F")
    m = root_inv @ gen.hamiltonian @ root
    ham_gns = 1j * (np.kron(eye, gen.hamiltonian) - np.kron(m.T, eye))
    dis_gns -= ham_gns

    r_d = float(np.linalg.norm(0.5 * (dis_gns - dag(dis_gns))))
    r_h = float(np.linalg.norm(0.5 * (ham_gns + dag(ham_gns))))
    r_c = float(np.linalg.norm(ham_gns @ dis_gns - dis_gns @ ham_gns))
    return DetailedBalanceReport(
        dissipative_hermiticity_defect=r_d,
        hamiltonian_antihermiticity_defect=r_h,
        commutator_norm=r_c,
        tolerance=tol.detailed_balance,
    )
