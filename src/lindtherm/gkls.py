"""GKLS generator assembly, stationary states, propagation, detailed balance.

A generator with Hamiltonian H and jump terms (rate_j, V_j) acts on states as

    L(rho) = G rho + rho G+ + sum_j rate_j V_j rho V_j+,
    G = -iH - K/2,  K = sum_j rate_j V_j+ V_j,

and on observables as its Hilbert-Schmidt adjoint

    L*(X) = G+ X + X G + sum_j rate_j V_j+ X V_j.

On column-stacked operators (see operators.py for the convention) the
matrix of L is I (x) G + conj(G) (x) I + sum_j rate_j conj(V_j) (x) V_j, and
the matrix of L* is its conjugate transpose.

A generator is its Hamiltonian plus one channel record, whose jump table
holds the scaled jumps sqrt(rate_j) V_j stacked as a C-contiguous
(n, d, d) array, grouped by bath label so that each bath is one slice,
with the rate vector beside it.  Flattened to (n, d^2) it is the matrix W
whose Gram matrix W^T conj(W) is the jump part of the superoperator, up to
an index permutation; K_b is one GEMM over bath b's slice; and the direct
actions and per-bath heat currents evaluate the kernel a X + X a+ + sum_j
v_j X v_j+ as two GEMMs per chunk of the table: Y = [v_j X]_j, then [Y_1
... Y_m] [v_1+; ...; v_m+].  ``GklsGenerator(hamiltonian, terms)`` stacks
its terms into a record at construction; ``modulated_family`` generators
share their base generator's record, table and K_b included.  Their
stationary states and engine solves take one dense d^2 x d^2 LU.

A ``thermal_family`` generator's record is a Davies record instead: the
eigendecomposition of H(xi), from which every bath's Bohr entries are read
in that eigenbasis, with one rate per table row.  Such a generator commutes
with [H, .], so its matrix splits into blocks of the operator entries (i, j)
of one Bohr gap E_i - E_j (distinct gaps: the populations, and a 1 x 1
block per coherence).  Its stationary state, the engine's solves and
detailed balance go block by block (``_Blocks``), acting in the eigenbasis
(``_action``, the public direct actions), with no d^2 x d^2 matrix.  Its
lab-frame table and ``terms`` are built only when first read: by the
propagators and the bath flows of the heat currents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import blas, expm, lapack

from .errors import (
    LindthermError,
    NonUniqueStationary,
    NotAnEigenoperator,
    NotAState,
    NotStationary,
    NumericalDrift,
    ResolventSingular,
    ShapeError,
    SingularWeight,
    StepTooLarge,
    _at,
)
from .operators import (
    DensityMatrix,
    as_operator,
    dag,
    hermitize,
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


def _hermitian_stack(h: np.ndarray, name: str) -> np.ndarray:
    """A complex (k, d, d) stack of finite matrices, hermitian within tolerance; ShapeError
    names the first failing one's first failing check, marked (``_at``) with it."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(h).all(axis=(1, 2))
        defect = np.abs(h - dag(h)).max(axis=(1, 2), initial=0.0)
    _raise_first(~finite | (defect > DEFAULT.hamiltonian_hermiticity), lambda j: ShapeError(
        f"{name} has non-finite entries" if not finite[j] else
        f"{name} hermiticity defect {defect[j]:.3e} exceeds {DEFAULT.hamiltonian_hermiticity:.1e}"))
    return h


def _checked_hermitian(x, name: str) -> np.ndarray:
    """``x`` as a complex matrix, finite and hermitian within tolerance: a stack of one."""
    return _hermitian_stack(as_operator(x, name)[None], name)[0]


class _Record:
    """Jump table, rates and bath slices, shared by the generators that hold it.

    ``jumps`` is the (n, d, d) table of rows sqrt(rate_j) V_j, grouped by
    bath label in order of first appearance (``slices``, {label: slice of
    the table}), with the ``rates`` beside it.  ``terms`` is built by
    ``_terms_of()`` when first read, and K_b per bath on first use, so each
    exists once per record.
    """

    @cached_property
    def terms(self) -> tuple:
        return self._terms_of()

    @cached_property
    def baths(self) -> dict:
        """{bath label: (K_b, the bath's slice of the jump table)}.

        K_b = sum of rate V+ V over the bath is one GEMM U^H U with U the
        slice flattened to (n_b d, d); BLAS is handed U^T, F-contiguous, so
        nothing is copied.
        """
        d = self.jumps.shape[-1]
        baths = {}
        for label, sl in self.slices.items():
            u = self.jumps[sl].reshape(-1, d).T
            baths[label] = (blas.zgemm(1.0, u, u, trans_b=2).T, self.jumps[sl])
        return baths


class _Channels(_Record):
    """The record of unscaled rows ``jumps`` (n, d, d), finite, with finite ``rates`` >= 0.

    The rows are grouped by their bath ``labels`` stably, then row j is
    scaled by sqrt(rate_j) in place.  Should d^2 sum_(j <= k) rate_j
    ||V_j||_F^2, a bound on L's one-norm, overflow first at row k,
    NumericalDrift names terms[k]'s rate or jump, whichever factor is
    larger.  ``terms_of()`` returns the LindbladTerm tuple.
    """

    def __init__(self, jumps: np.ndarray, rates: np.ndarray, labels, terms_of):
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.einsum("nij,nij->n", jumps.conj(), jumps).real
            bad = ~np.isfinite(np.cumsum(rates * norms) * jumps.shape[-1] ** 2)
        if bad.any():
            k = int(bad.argmax())
            raise NumericalDrift(
                f"terms[{k}].{'rate' if rates[k] >= norms[k] else 'jump'}: the generator's "
                f"scale d^2 sum_j rate_j ||V_j||^2 overflows at rate {rates[k]:.3e}, "
                f"||V||^2 {norms[k]:.3e}"
            )
        first = {}
        key = np.array([first.setdefault(label, len(first)) for label in labels], dtype=int)
        order = np.argsort(key, kind="stable")
        if np.any(order != np.arange(key.size)):
            jumps, rates = jumps[order], rates[order]
        ends = np.cumsum(np.bincount(key, minlength=len(first)))
        self.slices = {label: slice(int(ends[k - 1]) if k else 0, int(ends[k]))
                       for label, k in first.items()}
        jumps *= np.sqrt(rates)[:, None, None]
        self.jumps, self.rates, self._terms_of = jumps, rates, terms_of


class GklsGenerator:
    """Hamiltonian plus jump channels, held as one shared channel record, ``_record``.

    ``GklsGenerator(hamiltonian, terms)`` stacks its LindbladTerm channels
    into a new record (``_Channels``) at construction, whose jump table
    costs n d^2 16 bytes; ``modulated_family`` generators share their base
    generator's record.  A ``thermal_family`` generator's record is a
    Davies record (``_Davies``) in the eigenbasis of its Hamiltonian, which
    builds its jump table, and ``terms``, only when they are first read.
    K_b (per bath) lives on the record and G on the generator; both are
    built on first use and kept.
    """

    def __init__(self, hamiltonian, terms):
        h = _checked_hermitian(hamiltonian, "hamiltonian")
        terms = tuple(terms)
        for k, term in enumerate(terms):
            if not isinstance(term, LindbladTerm):
                raise TypeError(f"terms[{k}] is not a LindbladTerm")
            if term.jump.shape != h.shape:
                raise ShapeError(
                    f"terms[{k}] jump shape {term.jump.shape} does not match "
                    f"hamiltonian shape {h.shape}"
                )
        self.hamiltonian, self._record = h, _Channels(
            np.array([t.jump for t in terms], dtype=complex).reshape(-1, *h.shape),
            np.array([t.rate for t in terms], dtype=float), [t.bath_label for t in terms],
            lambda: terms,
        )

    @classmethod
    def _of(cls, hamiltonian: np.ndarray, record: _Record, g: np.ndarray = None) -> GklsGenerator:
        """Generator of ``record`` under a checked ``hamiltonian`` (and G = g)."""
        gen = cls.__new__(cls)
        gen.hamiltonian, gen._record = hamiltonian, record
        if g is not None:
            gen._g = g
        return gen

    terms = property(lambda self: self._record.terms,
                     doc="The LindbladTerm channels, in the order they were given.")
    _jumps = property(lambda self: self._record.jumps)
    _baths = property(lambda self: self._record.baths)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def bath_labels(self) -> tuple:
        return tuple(self._record.slices)

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
    rather than enforced.  ``_generators(xis)`` builds a drive grid's
    generators: by ``_batch`` (xis -> (H, generators), whose batch of one is
    ``generator_of``) for ``modulated_family``, else by ``generator_of`` per xi.
    """

    _batch = None  # set by ``modulated_family``

    generator_of: object
    drive_observable: np.ndarray
    amplitude: float
    frequency: float
    base: GklsGenerator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _checked_hermitian(self.drive_observable, "drive observable")
        object.__setattr__(self, "drive_observable", m)
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "frequency", float(self.frequency))
        for name in ("amplitude", "frequency"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        object.__setattr__(self, "base", self.generator_of(0.0))
        h0 = self.base.hamiltonian
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm does not commute
            comm = np.linalg.norm(h0 @ m - m @ h0)
        if not comm <= 1e-10:
            warnings.warn(
                "drive observable does not commute with the static hamiltonian "
                f"(||[H0, M]|| = {comm:.3e}); the perturbative "
                "power formulas are derived under [H0, M] = 0",
                stacklevel=2,
            )

    def xi(self, t: float) -> float:
        """Drive coordinate at time t."""
        return self.amplitude * np.sin(self.frequency * t)

    def _generators(self, xis) -> tuple:
        """(H, gens): the generators of ``xis`` and their Hamiltonians as one (k, d, d)
        stack; a LindthermError is marked (``_at``) with the first xi that fails."""
        xis = np.asarray(xis, dtype=float)
        if self._batch is not None:
            return self._batch(xis)
        gens = []
        for j, xi in enumerate(xis):
            try:
                gens.append(self.generator_of(xi))
            except LindthermError as exc:
                raise _at(j, exc)
        return np.array([gen.hamiltonian for gen in gens]), gens


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

# bounds on chunked temporaries: superoperator stacks, and cache-sized direct-action products
_CHUNK_BYTES, _ACTION_BYTES = 16 << 20, 1 << 19


def _two_sided(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Add the matrix of X -> A X + X B on column-stacked operators into s.

    I (x) A + B^T (x) I, for matrices or stacks a, b and s: both Kronecker
    products are diagonals of s's (k, d, d, d, d) reshape, each added
    through one writable diagonal view, with no d^2 x d^2 temporary.
    """
    d = a.shape[-1]
    s5 = s.reshape(-1, d, d, d, d)
    left = np.einsum("nkakb->nkab", s5)  # s5[n, k, a, k, b] = A_n[a, b]
    left += a.reshape(-1, 1, d, d)
    right = np.einsum("naibi->niab", s5)  # s5[n, a, i, b, i] = B_n[b, a]
    right += np.swapaxes(b, -1, -2).reshape(-1, 1, d, d)
    return s


def _first_uses(keys) -> tuple:
    """(ids, firsts): each key's index among the distinct keys, and their first uses."""
    index = {}
    ids = np.array([index.setdefault(k, len(index)) for k in keys], dtype=int)
    return ids, np.unique(ids, return_index=True)[1]


def _superops(gens, d: int):
    """Generator matrices of ``gens`` (dimension d), as (k, d^2, d^2) chunks of <= _CHUNK_BYTES.

    The jump part sum_j rate_j conj(V_j) (x) V_j permutes the hermitian Gram
    matrix R = W^T conj(W) of the jump table flattened to W, (n, d^2): once
    per channel record, one rank-n update (BLAS zherk, reading W^T without
    a copy) gives its upper triangle U, and R = U + (U - diag U)^H is added
    through two permuted views of U.  I (x) G + conj(G) (x) I: ``_two_sided``.
    """
    step = max(1, _CHUNK_BYTES // (16 * d ** 4))
    for lo in range(0, len(gens), step):
        chunk = gens[lo:lo + step]
        s = np.zeros((len(chunk), d * d, d * d), dtype=complex)
        ids, firsts = _first_uses([id(gen._record) for gen in chunk])
        for rec, first in enumerate(firsts):  # the jump part once per channel record
            jumps = chunk[first]._jumps
            if len(jumps):
                s4 = s[first].reshape(d, d, d, d)
                # u[(a, b), (c, e)] = sum_j V_j[a, b] conj(V_j[c, e]) for (a, b) <= (c, e);
                # the kron entry [(i, k), (l, m)] is R[(k, m), (i, l)]: the upper part is
                # read through u.T, the strict lower one through conj(u).T, diagonal cleared
                u = blas.zherk(1.0, jumps.reshape(-1, d * d).T)
                s4 += u.T.reshape(d, d, d, d).transpose(0, 2, 1, 3)
                np.fill_diagonal(u, 0.0)
                np.conjugate(u, out=u)
                s4 += u.T.reshape(d, d, d, d).transpose(2, 0, 3, 1)
                s[np.flatnonzero(ids == rec)[1:]] = s[first]
        g = np.array([gen._g for gen in chunk])
        yield _two_sided(g, dag(g), s)
        s = s4 = None  # a chunk the consumer has released is freed before the next is built


def schrodinger_super(gen: GklsGenerator) -> np.ndarray:
    """Full generator matrix acting on vectorized states: ``_superops`` of one generator."""
    return next(_superops([gen], gen.dim))[0]


def heisenberg_super(gen: GklsGenerator) -> np.ndarray:
    """Full adjoint generator matrix acting on vectorized observables."""
    return dag(schrodinger_super(gen))


def _gkls_action(a: np.ndarray, x: np.ndarray, jumps: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """a X + X a+ + sum_j v_j X v_j+ with v_j = jumps[j], or jumps[j]+ if adjoint.

    X is one (d, d) operator or a (k, d, d) stack, with one a or one per X_i.
    ``jumps`` is a C-contiguous (n, d, d) stack, summed in chunks whose
    temporaries stay below _ACTION_BYTES (or one copy of the X stack).  Per
    chunk, one batched product P_j = Y u_j (the Y_i stacked as rows of Y)
    and one GEMM over the stacked index (j, row) give sum_j u_j^T Y_i^T
    conj(u_j) for every i: [V_1 X_i ... V_m X_i]_i [V_1+; ...; V_m+] for L,
    with u_j = V_j^T copied out and Y_i = X_i^T; (sum_j V_j+ X_i V_j)^T
    for L*, with u_j = V_j in place and Y_i = X_i.
    """
    out = a @ x + x @ dag(a)
    d = x.shape[-1]
    xs = x.reshape(-1, d, d)
    y = (xs.transpose(1, 0, 2) if adjoint else xs.transpose(2, 0, 1)).reshape(-1, d)
    step = max(1, _ACTION_BYTES // (32 * x.size))
    for lo in range(0, len(jumps), step):
        u = jumps[lo:lo + step]
        if not adjoint:
            u = np.ascontiguousarray(u.transpose(0, 2, 1))
        z = blas.zgemm(1.0, np.matmul(y, u).reshape(-1, len(y)).T, u.reshape(-1, d).T,
                       trans_b=2).reshape(xs.shape)
        out += (z.swapaxes(1, 2) if adjoint else z).reshape(out.shape)
    return out


def _action(gen: GklsGenerator, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """L(X), or L*(X), of a lab-frame operator X, with no superoperator assembly.

    A Davies generator acts as U D(U+ X U) U+ in its Hamiltonian's
    eigenbasis U, whether or not its table exists, and builds none; a
    generator of terms by direct matrix products with its jump table.
    """
    record, x = gen._record, as_operator(x)
    if isinstance(record, _Davies):
        return record.lab(record.apply(record.basis(x), adjoint))
    return _gkls_action(dag(gen._g) if adjoint else gen._g, x, gen._jumps, adjoint)


def apply_schrodinger(gen: GklsGenerator, x: np.ndarray) -> np.ndarray:
    """L(X) by ``_action``: direct products, or a Davies generator's eigenbasis (no table)."""
    return _action(gen, x)


def apply_heisenberg(gen: GklsGenerator, x: np.ndarray) -> np.ndarray:
    """L*(X) by ``_action``, as ``apply_schrodinger``."""
    return _action(gen, x, adjoint=True)


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

    When ``hamiltonian`` is supplied, it is checked hermitian, and A is
    checked to be a lowering eigenoperator, [H, A] = -omega A, within the
    relative tolerance, on all its entries in H's eigenbasis as one group.
    """
    a = as_operator(a, "jump operator")
    if base_rate <= 0:
        raise ValueError(f"base_rate must be positive, got {base_rate}")
    if hamiltonian is not None:
        vals, vecs = np.linalg.eigh(hermitize(_checked_hermitian(hamiltonian, "hamiltonian")))
        _check_eigenoperators(np.zeros(a.size, dtype=int), (dag(vecs) @ a @ vecs).ravel(),
                              (vals - vals[:, None]).ravel(), np.array([bohr_frequency]), tol)
    down = LindbladTerm(a, base_rate, bath_label)
    up = LindbladTerm(dag(a), base_rate * np.exp(-beta * bohr_frequency), bath_label)
    return down, up


def _check_eigenoperators(group: np.ndarray, values: np.ndarray, gaps: np.ndarray,
                          w: np.ndarray, tol: Tolerances):
    """Raise NotAnEigenoperator unless ||[H, A_k] + w_k A_k||_F <= tol.eigenoperator ||A_k||_F.

    A_k is given by its entries in H's eigenbasis: values[e], at Bohr gap
    gaps[e] = E_j - E_i, belongs to A_{group[e]}, where [H, A_k] + w_k A_k
    holds (w_k - gaps[e]) values[e].  The first failing A_k is reported.
    """
    resid, scale = (np.sqrt(np.bincount(group, np.abs(x) ** 2, minlength=w.size))
                    for x in ((w[group] - gaps) * values, values))
    bad = (scale == 0) | (resid > tol.eigenoperator * scale)
    if bad.any():
        k = bad.argmax()
        raise NotAnEigenoperator(
            f"[H, A] + omega A has norm {resid[k]:.3e} "
            f"(relative {resid[k] / max(scale[k], 1e-300):.3e}) "
            f"for omega = {w[k]}"
        )


_FREQ_TOL = 1e-9  # Bohr gaps closer than this are one frequency


def _bohr_split(vals: np.ndarray, vecs: np.ndarray, vd: np.ndarray, coupling: np.ndarray) -> tuple:
    """A coupling's Bohr decomposition in the eigenbasis (vals, vecs = vd+) of H.

    The coupling's nonzero eigenbasis entries (i, j), sorted stably by their
    gap vals[j] - vals[i], form one group wherever neighbouring gaps lie
    within _FREQ_TOL, valued at the group's first gap in row-major order.
    Sorted, the groups run negative, zero (|w| <= _FREQ_TOL), positive; each
    positive A_w is checked on its entries to satisfy [H, A_w] = -w A_w.
    Returns (zero, group, rows, cols, values, w): the zero-frequency jumps
    in the eigenbasis with their identity component removed (that
    component is dynamically inert), each kept when its norm exceeds 1e-12;
    and the entries of the positive groups, sorted by group, entry e
    belonging to group[e], whose gap is w[group[e]].
    """
    d = vals.size
    at = vd @ coupling @ vecs
    rows, cols = at.nonzero()  # row-major order
    gaps = vals[cols] - vals[rows]
    order = gaps.argsort(kind="stable")
    sorted_gaps = gaps[order]
    new = np.empty(order.size, dtype=bool)
    new[:1] = True
    np.greater(sorted_gaps[1:] - sorted_gaps[:-1], _FREQ_TOL, out=new[1:])
    starts = new.nonzero()[0]
    group = new.cumsum() - 1
    w = gaps[np.minimum.reduceat(order, starts)] if order.size else gaps
    z0 = w.searchsorted(-_FREQ_TOL, side="left")
    p0 = w.searchsorted(_FREQ_TOL, side="right")
    zero = []
    for k in range(z0, p0):
        g = order[group == k]
        block = np.zeros((d, d), dtype=complex)
        block[rows[g], cols[g]] = at[rows[g], cols[g]]
        block -= (np.trace(block) / d) * np.eye(d)
        if np.linalg.norm(block) > 1e-12:
            zero.append(block)
    first = group.searchsorted(p0)
    pos = order[first:]
    values = at[rows[pos], cols[pos]]
    _check_eigenoperators(group[first:] - p0, values, gaps[pos], w[p0:], DEFAULT)
    return zero, group[first:] - p0, rows[pos], cols[pos], values, w[p0:]


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
    stationary for the resulting channel set.  These are the rows of
    ``thermal_family``'s jump table for one coupling.
    """
    h = _checked_hermitian(hamiltonian, "hamiltonian")
    davies = _Davies(h, [(as_operator(coupling, "coupling"), beta, base_rate, bath_label)])
    return [LindbladTerm(v, r, bath_label) for v, r in zip(davies.table(), davies.rates)]


def _hamiltonians(h0: np.ndarray, xis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The stack of H(xi) = H0 + xi M; ``_hermitian_stack`` names an overflow as non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return h0 + xis[:, None, None] * m


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
    set at that xi: one eigendecomposition of H(xi) serves every bath, and
    the generator holds the channels as its Davies record, in that
    eigenbasis.  A generator's ``terms``, when read, are ``davies_terms`` of
    each coupling in turn.  H(xi) is checked as a stack of one, per xi.
    """
    h0 = as_operator(h0, "h0")
    m = as_operator(m, "drive observable")
    spec = [
        (as_operator(c, "coupling"), float(b), float(r), str(lbl))
        for (c, b, r, lbl) in couplings
    ]

    def generator_of(xi: float) -> GklsGenerator:
        h = _hermitian_stack(_hamiltonians(h0, np.array([xi], dtype=float), m), "hamiltonian")[0]
        return GklsGenerator._of(h, _Davies(h, spec, lambda: tuple(
            t for c, b, r, lbl in spec for t in davies_terms(h, c, b, r, lbl))))

    return GeneratorFamily(generator_of, m, amplitude, frequency)


def modulated_family(
    gen: GklsGenerator,
    m: np.ndarray,
    amplitude: float,
    frequency: float,
) -> GeneratorFamily:
    """Family where xi shifts the Hamiltonian only: H0 + xi M, frozen terms.

    Every generator shares ``gen``'s channel record, so its jump table and
    K_b.  A drive grid's H(xi) are one checked stack, and its G = -iH - K/2
    one array expression, each generator holding its row.
    """
    m = as_operator(m, "drive observable")

    def batch(xis: np.ndarray) -> tuple:
        h = _hermitian_stack(_hamiltonians(gen.hamiltonian, xis, m), "hamiltonian")
        g = -1j * h - 0.5 * sum(k for k, _ in gen._baths.values())
        return h, [GklsGenerator._of(hj, gen._record, g=gj) for hj, gj in zip(h, g)]

    family = GeneratorFamily(lambda xi: batch(np.array([xi], dtype=float))[1][0], m,
                             amplitude, frequency)
    object.__setattr__(family, "_batch", batch)
    return family


# --- stationary states -------------------------------------------------------

_NONE = np.zeros(0, dtype=int)  # no entries: no 1 x 1 blocks


def _factor(blocks: list, norms: list, limit: float, error, what: str, lam: np.ndarray) -> tuple:
    """(lus, rcond): an LU per block of a block-diagonal matrix whose 1 x 1 blocks are ``lam``.

    The blocks (overwritten if Fortran-ordered) have one-norms ``norms``.
    rcond, the one-norm estimate min_k 1/||A_k^-1|| / max_k ||A_k|| from
    LAPACK ?gecon, raises ``error`` below 1/limit, or on NaN; an exactly
    singular block counts as 0.
    """
    lus = [lapack.zgetrf(a, overwrite_a=True) for a in blocks]
    inverse = [lapack.zgecon(lu, n)[0] * n if info == 0 else 0.0
               for (lu, _, info), n in zip(lus, norms)]
    if lam.size:
        norms, inverse = [*norms, np.abs(lam).max()], inverse + [np.abs(lam).min()]
    finite = all(map(math.isfinite, [*norms, *inverse]))
    rcond = float(min(inverse) / max(norms)) if finite else math.nan
    if not rcond * limit >= 1:
        raise error(f"{what}: reciprocal condition estimate {rcond:.3e} below {1 / limit:.1e}")
    return lus, rcond


def _solve(lus: list, b: np.ndarray, lam: np.ndarray, index: list, single: np.ndarray):
    """x with block k's LU (of ``_factor``) solved on the entries index[k] and b / lam on
    ``single``, for a vector b or a column stack."""
    x = np.empty_like(b)
    for idx, (lu, piv, _) in zip(index, lus):
        x[idx] = lapack.zgetrs(lu, piv, b[idx])[0]
    if lam.size:
        x[single] = (b[single].T / lam).T
    return x


def _raise_first(bad: np.ndarray, error):
    """Raise error(j), marked with j, at the first sample j whose ``bad`` flag is set."""
    if np.any(bad):
        j = int(np.argmax(bad))
        raise _at(j, error(j))


def _check_stationary(what: str, images: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Norms of stacked generator images; NotStationary at the first > tol.stationarity."""
    resid = np.linalg.norm(images.reshape(len(images), -1), axis=1)
    _raise_first(resid > tol.stationarity, lambda j: NotStationary(
        f"{what} has generator-image norm {resid[j]:.3e} (tolerance {tol.stationarity:.1e})"))
    return resid


def _bordered_solve(blocks: list, trace: np.ndarray, tol: Tolerances, *split) -> tuple:
    """(x, solve, rcond, residual): x[j] the kernel vector of blocks[0][j] with trace . x[j] = 1.

    Each block is a (k, n, n) stack, one matrix per system.  Row 0 of a copy
    of blocks[0][j], redundant when it preserves the trace functional
    ``trace``, is replaced by that functional scaled by the largest one-norm
    of system j's blocks (by 1 when all are 0, whose kernel is unique only
    in dimension one), and the copies are factored by ``_factor`` and solved
    by ``_solve`` (``split``: lam, index and single; by default blocks[0] is
    the whole matrix).  The copies, Fortran-ordered, are made a sub-stack of
    at most _ACTION_BYTES at a time; the one-norms, raw and bordered, are its
    column sums, as ``np.linalg.norm(., 1)`` sums each matrix.
    solve(b), of the last system, is y with its other rows and scale *
    trace . y = b[0], for one right-hand side or a column stack.  rcond
    below tol.kernel_cut raises NonUniqueStationary, ||blocks[0][j] x[j]||
    > tol.stationarity NotStationary, marked (``_at``) with the first such j.
    """
    lam, index, single = split or (_NONE, (slice(None),), _NONE)
    b = np.zeros(sum(s.shape[1] for s in blocks) + lam.size, dtype=complex)
    x, rcond = np.empty((len(blocks[0]), b.size), dtype=complex), np.empty(len(blocks[0]))
    step = max(1, _ACTION_BYTES // (16 * blocks[0].shape[1] ** 2))
    for lo in range(0, len(x), step):
        subs = [s[lo:lo + step] for s in blocks]
        scale = np.max([np.abs(s).sum(axis=1).max(-1) for s in subs], axis=0,
                       initial=np.abs(lam).max(initial=0.0))
        scale[scale == 0] = 1.0
        # the copies, each matrix Fortran-ordered for LAPACK to overwrite, and their one-norms
        a = [np.array(s.swapaxes(1, 2), dtype=complex, order="C").swapaxes(1, 2) for s in subs]
        a[0][:, 0] = scale[:, None] * trace
        norms = [np.abs(f).sum(axis=1).max(-1).tolist() for f in a]
        for j, (scale_j, *nrm) in enumerate(zip(scale.tolist(), *norms)):
            b[0] = scale_j
            try:
                lus, rcond[lo + j] = _factor([f[j] for f in a], nrm, 1.0 / tol.kernel_cut,
                                             NonUniqueStationary, "bordered stationary system", lam)
            except NonUniqueStationary as exc:
                raise _at(lo + j, exc)
            x[lo + j] = _solve(lus, b, lam, index, single)
    residual = _check_stationary("stationary candidate", blocks[0] @ x[:, index[0], None], tol)
    return x, lambda y: _solve(lus, y, lam, index, single), rcond, residual


@lru_cache(maxsize=16)
def _state_tol(tol: Tolerances) -> Tolerances:
    """A computed state's tolerances: ``tol``, positivity at least 1e-8; formed once per ``tol``."""
    return tol.with_(positivity=max(tol.positivity, 1e-8))


def _accumulate(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The complex sums of ``values`` over equal ``index`` in 0 .. n - 1."""
    return np.bincount(index, values.real, n) + 1j * np.bincount(index, values.imag, n)


def _sided(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The matrix of X -> A X + X B on the operator entries (i[p], j[p])."""
    return a[np.ix_(i, i)] * (j[:, None] == j) + (i[:, None] == i) * b[np.ix_(j, j)].T


class _Blocks:
    """A generator matrix as invariant blocks, operators held in the basis ``u`` (None: lab).

    ``split`` is (index, mats, single, lam): mats[k] acts on the stacked
    entries index[k], block 0 on entry 0 and the diagonal (the trace), and
    lam on the 1 x 1 blocks ``single``.  Here ``matrix`` is one block, or a
    (k, d^2, d^2) stack of generator matrices, solved as one by ``stationary``.
    """

    u = None

    def __init__(self, matrix: np.ndarray):
        self.matrix, self.dim = matrix, round(matrix.shape[-1] ** 0.5)
        self.split = [slice(None)], [matrix], _NONE, _NONE

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L(X) of an operator X in the blocks' basis."""
        return unvec(self.matrix @ vec(x))

    def basis(self, x: np.ndarray) -> np.ndarray:
        """The lab-frame operator x in the blocks' basis."""
        return x if self.u is None else dag(self.u) @ x @ self.u

    def lab(self, x: np.ndarray) -> np.ndarray:
        """The lab-frame operator of x, an operator in the blocks' basis."""
        return x if self.u is None else self.u @ x @ dag(self.u)

    def stationary(self, tol: Tolerances) -> tuple:
        """(states, solve, rcond, residual) of ``stationary_state`` by ``_bordered_solve``;
        states, rcond and residual are lists, one entry per generator of a stack."""
        index, mats, single, lam = self.split
        x, solve, rcond, residual = _bordered_solve(
            [m.reshape(-1, *m.shape[-2:]) for m in mats], np.eye(self.dim).ravel()[index[0]],
            tol, lam, index, single)
        x = np.swapaxes(x.reshape(-1, self.dim, self.dim), 1, 2)  # unvec of each x[j]
        return (DensityMatrix._stack(hermitize(self.lab(x)), _state_tol(tol)), solve,
                rcond.tolist(), residual.tolist())

    def resolvent(self, omega: float, tol: Tolerances) -> tuple:
        """(solve, rcond) of L* + i omega; rcond^-2 above tol.resolvent_condition raises."""
        index, mats, single, lam = self.split
        shifted = [dag(m) for m in mats]
        for a in shifted:
            a[np.diag_indices_from(a)] += 1j * omega
        lam = lam.conj() + 1j * omega
        lus, rcond = _factor(shifted, [np.linalg.norm(a, 1) for a in shifted],
                             np.sqrt(tol.resolvent_condition), ResolventSingular,
                             "resolvent system L* + i Omega", lam)
        return (lambda b: _solve(lus, b, lam, index, single)), rcond


def _blocks(gen: GklsGenerator) -> _Blocks:
    """gen's matrix as blocks: its Davies record's, else one dense block."""
    return gen._record if isinstance(gen._record, _Davies) else _Blocks(schrodinger_super(gen))


def stationary_state(gen: GklsGenerator, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Unique stationary state by one bordered linear solve.

    Row 0 of the generator matrix L, redundant under trace preservation, is
    replaced by the trace functional scaled by ||L||_1 (by 1 when L = 0).  A
    kernel of dimension other than one (condition estimate below
    tol.kernel_cut) raises NonUniqueStationary, ||L rho||_F above
    tol.stationarity NotStationary; rho is hermitized and validated with
    positivity at least 1e-8.  It is the batch of one of the stacked solve that
    ``law_residuals`` runs per chunk (``_Blocks.stationary``).  A Davies
    generator solves by its blocks: the bordered system is its population block.
    """
    return _blocks(gen).stationary(tol)[0][0]


def _row_pairs(rows: np.ndarray) -> tuple:
    """(e, f): every pair of entries in one row, for entries sorted by row."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    sizes = np.diff(np.append(starts, rows.size))
    size = np.repeat(sizes, sizes)
    e = np.repeat(np.arange(rows.size), size)
    return e, np.arange(e.size) - np.repeat(np.cumsum(size) - size - np.repeat(starts, sizes), size)


class _Davies(_Blocks, _Record):
    """The Davies channels of baths (coupling, beta, base_rate, label) of H, in its eigenbasis.

    Each coupling gives its zero-frequency jump, then per positive gap w,
    ascending, A_w and A_w+ (rows ``up``) at base_rate and base_rate
    e^{-beta w}: table rows, grouped by bath, kept as row-sorted entries
    (row, a, b, v).  L's blocks are the entries i + d j whose gaps vals[i] -
    vals[j] chain within _FREQ_TOL (all one should L couple two).  Should
    the gap bound 2d max|H_kl| or d^2 sum_j rate_j ||A_j||^2 overflow,
    NumericalDrift names the Hamiltonian, or the bath where the sum first does.
    """

    def __init__(self, h: np.ndarray, couplings, terms_of=None):
        with np.errstate(over="ignore"):  # |E_i - E_j| <= 2d max|H_kl|
            if not np.isfinite(2 * h.shape[0] * np.abs(h).max()):
                raise NumericalDrift("hamiltonian: the Bohr-gap bound 2d max|H_kl| overflows")
        self.vals, self.u = np.linalg.eigh(hermitize(h))
        self.dim, vd, baths = h.shape[0], dag(self.u), {}
        for c, beta, base_rate, label in couplings:
            if c.shape != h.shape:
                raise ShapeError(f"coupling shape {c.shape} does not match {h.shape}")
            if not np.isfinite(c).all():
                raise ValueError("jump operator has non-finite entries")
            split = _bohr_split(self.vals, self.u, vd, c)
            baths.setdefault(label, []).append((split, beta, base_rate))
        rates, ups, self.slices, self._terms_of = [np.zeros(0)], [np.zeros(0, int)], {}, terms_of
        pieces, j = [(np.zeros(0, int),) * 3 + (np.zeros(0, complex),)], 0
        for label, parts in baths.items():
            first = j
            for (zero, group, rows, cols, values, w), beta, base_rate in parts:
                if w.size and base_rate <= 0:
                    raise ValueError(f"base_rate must be positive, got {base_rate}")
                for block in zero:
                    a, b = block.nonzero()
                    pieces.append((np.full(a.size, j), a, b, block[a, b]))
                    j += 1
                down = j + 2 * group
                pieces += [(down, rows, cols, values), (down + 1, cols, rows, values.conj())]
                ups.append(j + 1 + 2 * np.arange(w.size))
                rates += [np.full(len(zero), base_rate), np.column_stack(
                    [np.full(w.size, base_rate), base_rate * np.exp(-beta * w)]).ravel()]
                j += 2 * w.size
            if j > first:  # as for terms, a bath without channels has no label
                self.slices[label] = slice(first, j)
        self.rates, self.up = np.concatenate(rates), np.concatenate(ups)
        bad = ~np.isfinite(self.rates) | (self.rates < 0)
        if bad.any():
            raise ValueError(f"rate must be finite and nonnegative, got {self.rates[bad.argmax()]}")
        r, a, b, v = map(np.concatenate, zip(*pieces))
        order = np.argsort(r, kind="stable")
        self.row, self.a, self.b, self.v = r[order], a[order], b[order], v[order]
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.bincount(self.row, np.abs(self.v) ** 2, self.rates.size)
            bad = ~np.isfinite(np.cumsum(self.rates * norms) * self.dim ** 2)
        if bad.any():
            label = next(label for label, sl in self.slices.items() if bad.argmax() < sl.stop)
            raise NumericalDrift(f"bath {label!r}: the generator's scale "
                                 "d^2 sum_j rate_j ||V_j||^2 overflows")

    def table(self) -> np.ndarray:
        """The unscaled lab-frame rows u A u+, a chunk at a time as stacked products into one
        preallocated (n, d, d) table, A_w+ as A_w's adjoint."""
        d, ud = self.dim, dag(self.u)
        jumps = np.empty((self.rates.size, d, d), dtype=complex)
        step = max(1, _CHUNK_BYTES // (16 * d * d))
        for lo in range(0, len(jumps), step):
            hi = min(lo + step, len(jumps))
            e = slice(*self.row.searchsorted((lo, hi)))
            blocks = np.zeros((hi - lo, d, d), dtype=complex)
            blocks[self.row[e] - lo, self.a[e], self.b[e]] = self.v[e]
            np.matmul(self.u @ blocks, ud, out=jumps[lo:hi])
            up = self.up[(self.up >= lo) & (self.up < hi)]
            jumps[up] = dag(jumps[up - 1])
        return jumps

    @cached_property
    def jumps(self) -> np.ndarray:
        """The lab-frame jump table: ``table()``, row j scaled by sqrt(rate_j) in place."""
        jumps = self.table()
        jumps *= np.sqrt(self.rates)[:, None, None]
        return jumps

    @cached_property
    def _parts(self) -> tuple:
        """(G, t, s, val): G = -iE - K/2 and sum_v conj(v) (x) v, val at [t, s] from
        the pairs of entries in a scaled row v; pairs at diagonal targets sum to K."""
        d, v = self.dim, self.v * np.sqrt(self.rates[self.row])
        e, f = _row_pairs(self.row)
        val, (a, b) = v[e] * v[f].conj(), (self.a, self.b)
        on = a[e] == a[f]
        k = _accumulate(b[f][on] * d + b[e][on], val[on], d * d).reshape(d, d)
        return -1j * np.diag(self.vals) - 0.5 * k, a[e] + d * a[f], b[e] + d * b[f], val

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """L(X), or L*(X), of an operator X in the eigenbasis."""
        g, t, s, val = self._parts
        if adjoint:
            g, t, s, val = dag(g), s, t, val.conj()
        return g @ x + x @ dag(g) + unvec(_accumulate(t, val * vec(x)[s], self.dim ** 2))

    @cached_property
    def split(self) -> tuple:
        (g, t, s, val), d = self._parts, self.dim
        gaps = (self.vals[:, None] - self.vals).ravel(order="F")
        order = gaps.argsort(kind="stable")
        blk = np.empty(d * d, dtype=int)
        blk[order] = np.concatenate([[0], np.cumsum(np.diff(gaps[order]) > _FREQ_TOL)])
        at, (gi, gk) = blk.reshape(d, d, order="F"), np.nonzero(g - np.diag(g.diagonal()))
        if np.any(blk[t] != blk[s]) or np.any(at[gi] != at[gk]) or np.any(at[:, gi] != at[:, gk]):
            blk[:] = 0  # the gaps do not separate L: one block
        sizes = np.bincount(blk)
        by, ends = np.argsort(blk, kind="stable"), np.cumsum(sizes)
        index = [by[ends[k] - sizes[k]:ends[k]]
                 for k in [blk[0]] + [k for k in np.flatnonzero(sizes > 1) if k != blk[0]]]
        single = np.flatnonzero((sizes[blk] == 1) & (blk != blk[0]))
        by_t = np.argsort(blk[t], kind="stable")
        starts, pos, mats = blk[t][by_t], np.empty(d * d, dtype=int), []
        for idx in index:
            n, e = idx.size, by_t[slice(*starts.searchsorted([blk[idx[0]], blk[idx[0]] + 1]))]
            pos[idx] = np.arange(n)
            mats.append(_sided(g, dag(g), idx % d, idx // d)
                        + _accumulate(pos[t[e]] * n + pos[s[e]], val[e], n * n).reshape(n, n))
        lam = _accumulate(t[t == s], val[t == s], d * d)[single]
        return index, mats, single, lam + g.diagonal()[single % d] + g.diagonal().conj()[single // d]


# --- propagation -------------------------------------------------------------

def _time_grid(times, points: int = 1) -> np.ndarray:
    """``times`` as a float array: finite, 1-d, strictly increasing, >= ``points`` long."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < points or not np.isfinite(t).all() or np.any(np.diff(t) <= 0):
        raise ShapeError(
            f"times must be a finite, strictly increasing 1-d grid of at least {points} points"
        )
    return t


def _propagate(v0: np.ndarray, t: np.ndarray, keys, matrices_of, accept) -> list:
    """What accept(vs, i) keeps of v_i, v_(i+1), ... (stacked as vs), chunk by chunk, i >= 1.

    Step i maps v_{i-1} to v_i = expm(S(keys[i-1]) dt_i) v_{i-1}, one
    exponential per distinct (key, dt) pair.  ``matrices_of(ks)`` yields
    the S of the pairs' keys ks, in order of first use, as new stacked
    chunks, each exponentiated in place (``expm`` of _ACTION_BYTES at a
    time) and released before the next is built; a propagator is kept while
    a later step uses it.  ``accept`` checks the vectors of the steps a
    chunk completes (raising to stop the flow).
    """
    dt = np.diff(t)
    ids, firsts = _first_uses([(round(float(k), 15), round(float(h), 15)) for k, h in zip(keys, dt)])
    last = dict(zip(ids, range(len(ids))))  # the last step of each pair
    props, out, v, i, lo = {}, [], v0, 0, 0
    for chunk in matrices_of([keys[j] for j in firsts]):
        hi, sub = lo + len(chunk), max(1, _ACTION_BYTES // (chunk.itemsize * chunk.shape[-1] ** 2))
        chunk *= dt[firsts[lo:hi], None, None]
        for a in range(0, len(chunk), sub):  # in place, a cache-sized stack at a time
            chunk[a:a + sub] = expm(chunk[a:a + sub])
        props.update(zip(range(lo, hi), chunk))
        del chunk
        vs = []
        while i < len(ids) and ids[i] < hi:
            v = props[ids[i]] @ v
            i += 1
            vs.append(v)
        out.extend(accept(np.array(vs), i + 1 - len(vs)))
        # copied out, a kept propagator frees the rest of its chunk
        props = {p: e if p < lo else e.copy() for p, e in props.items() if last[p] >= i}
        lo = hi
    return out


def _state_flow(rho0: DensityMatrix, dim: int, t, keys, superops_of, tol: Tolerances) -> tuple:
    """States of a piecewise-constant GKLS flow, each chunk's as one ``DensityMatrix._stack``."""
    if rho0.dim != dim:
        raise ShapeError(f"initial state has dimension {rho0.dim}, the generator {dim}")

    def accept(vs, i):
        try:
            return DensityMatrix._stack(np.swapaxes(vs.reshape(-1, dim, dim), 1, 2), tol)
        except NotAState as exc:
            raise NumericalDrift(f"state invariant violated at step {i + exc.sample}: {exc}") from exc

    return (rho0, *_propagate(vec(rho0.matrix), t, keys, superops_of, accept))


def evolve(
    gen: GklsGenerator, rho0: DensityMatrix, times, tol: Tolerances = DEFAULT
) -> Trajectory:
    """Propagate a state by exponentials of the static generator.

    One exponential is computed per distinct step size (grids from linspace
    reuse a single propagator); the states of each chunk are validated
    against ``tol`` as one stack, and NumericalDrift names the first failing step.
    """
    t = _time_grid(times)
    return Trajectory(t, _state_flow(rho0, gen.dim, t, np.zeros(t.size - 1),
                                     lambda xis: _superops([gen] * len(xis), gen.dim), tol))


def evolve_driven(
    family: GeneratorFamily, rho0: DensityMatrix, times, tol: Tolerances = DEFAULT
) -> Trajectory:
    """Piecewise-frozen propagation of the driven family.

    On each step the generator is frozen at the midpoint drive value
    xi(t_mid); the generators of the distinct (xi, dt) midpoints are built
    by one ``family._generators`` call and their matrices in chunks, each
    exponentiated by one stacked ``expm``.  The step size must satisfy dt <=
    min(0.05/Omega, 0.1/max rate) for the freeze to be a faithful
    quasi-static approximation.  States are validated as in ``evolve``.
    """
    t = _time_grid(times, points=2)
    bound = 0.05 / family.frequency
    mr = float(family.base._record.rates.max(initial=0.0))
    if mr > 0:
        bound = min(bound, 0.1 / mr)
    dt_max = float(np.max(np.diff(t)))
    if dt_max > bound * (1 + 1e-12):
        raise StepTooLarge(
            f"max step {dt_max:.3e} exceeds the freeze bound {bound:.3e} "
            f"(Omega = {family.frequency}, max rate = {mr})"
        )
    mids = family.xi(0.5 * (t[1:] + t[:-1]))
    states = _state_flow(rho0, family.base.dim, t, mids, lambda xis: _superops(
        family._generators(xis)[1], family.base.dim), tol)
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


class _RowMix:
    """R(b)[p, q] = [i_p = i_q] b[j_q, j_p], the matrix of Y -> Y b on the operator entries
    (i[p], j[p]) of a set that Y -> Y b keeps.

    R(b) mixes the entries of one row i by b's submatrix on their columns,
    so the entries are grouped by row, and the rows with m entries form one
    (count, m) group each: R(b) z is one batched product per group, O(d^5)
    on all d^2 entries and O(n^2) on n entries with one per row, and R(b)
    itself is a scatter of the groups' submatrices.
    """

    def __init__(self, i: np.ndarray, j: np.ndarray):
        order = np.lexsort((j, i))
        starts = np.flatnonzero(np.diff(i[order], prepend=-1))
        sizes = np.diff(np.append(starts, i.size))
        self.j, self.groups = j, [order[starts[sizes == m][:, None] + np.arange(m)]
                                  for m in np.unique(sizes)]

    def _sub(self, b: np.ndarray, p: np.ndarray) -> np.ndarray:
        """R(b) on group p: b[j_(p[g, c]), j_(p[g, a])] at [g, a, c]."""
        return b[self.j[p][:, None, :], self.j[p][:, :, None]]

    def times(self, b: np.ndarray, z: np.ndarray) -> np.ndarray:
        """R(b) z."""
        z, out = np.ascontiguousarray(z), np.empty(z.shape, dtype=complex)
        for p in self.groups:
            out[p] = self._sub(b, p) @ z[p]
        return out

    def add_to(self, b: np.ndarray, out: np.ndarray):
        """out += R(b)."""
        for p in self.groups:
            out[p[:, :, None], p[:, None, :]] += self._sub(b, p)


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
    become plain matrix symmetry.  This runs on the generator's blocks
    (``_Blocks``), which right multiplication by rho_bar^(1/2) keeps when
    rho_bar lies in the stationary block: for a Davies generator, rho_bar's
    norm outside that block (coherences between levels of distinct
    energies) above tol.stationarity raises NotStationary.
    """
    w = as_operator(rho_bar, "reference state")
    _check_stationary("reference state", _action(gen, w)[None], tol)
    blocks = _blocks(gen)
    index, mats, single, lam = blocks.split
    d = gen.dim
    full = vec(blocks.basis(w))
    p = np.zeros_like(full)
    p[index[0]] = full[index[0]]
    off = float(np.linalg.norm(full - p))
    if off > tol.stationarity:
        raise NotStationary(f"reference state has norm {off:.3e} outside the stationary "
                            f"block (tolerance {tol.stationarity:.1e})")
    vals, vecs = np.linalg.eigh(hermitize(unvec(p)))
    if float(vals[0]) <= 1e-12:
        raise SingularWeight(
            f"stationary state minimum eigenvalue {float(vals[0]):.3e} not > 1e-12"
        )
    root = (vecs * np.sqrt(vals)) @ dag(vecs)
    root_inv = (vecs * (1.0 / np.sqrt(vals))) @ dag(vecs)
    h = blocks.basis(gen.hamiltonian)

    # T S T^-1 with T = right multiplication by root, S the matrix of L*; the
    # Hamiltonian part X -> i[H, X] of S maps to Y -> i(H Y - Y M), M = root^-1
    # H root, and the dissipative part is the rest.  Per block, T, T^-1 and
    # Y -> Y M mix the entries of one row (``_RowMix`` on (i, j)), Y -> H Y
    # those of one column (on (j, i), with H^T); and z R(b) = (R(b^T) z^T)^T
    m = root_inv @ h @ root
    squares = np.zeros(3)
    for idx, s in zip(index, mats):
        i, j = np.divmod(np.arange(d * d)[idx], d)[::-1]
        right, left = _RowMix(i, j), _RowMix(j, i)
        ham = np.zeros_like(s)
        right.add_to(-1j * m, ham)
        left.add_to(1j * h.T, ham)
        dis = right.times(root, right.times(root_inv.T, s.conj()).T) - ham
        comm = right.times(-1j * m, dis) + left.times(1j * h.T, dis)
        comm -= (right.times(-1j * m.T, dis.T) + left.times(1j * h, dis.T)).T
        squares += (np.linalg.norm(dis - dag(dis)) ** 2 / 4,
                    np.linalg.norm(ham + dag(ham)) ** 2 / 4, np.linalg.norm(comm) ** 2)
    hv = 1j * (h.diagonal()[single % d] - m.diagonal()[single // d])
    squares += (np.sum((lam.conj() - hv).imag ** 2), np.sum(hv.real ** 2), 0.0)
    r_d, r_h, r_c = np.sqrt(squares).tolist()
    return DetailedBalanceReport(
        dissipative_hermiticity_defect=r_d,
        hamiltonian_antihermiticity_defect=r_h,
        commutator_norm=r_c,
        tolerance=tol.detailed_balance,
    )
