"""Dense complex operator algebra and vectorization.

Conventions fixed here and used by every other module:

* Operators are plain numpy complex arrays of shape (d, d).
* Vectorization is column-stacking: ``vec(X)[i + d*j] = X[i, j]``.
  Equivalently ``vec(X) = X.reshape(-1, order="F")``.
* Under that convention ``vec(A X B) = kron(B.T, A) @ vec(X)``, which is
  what ``left_mul``/``right_mul``/``sandwich_mul`` implement.
* Fermionic modes use a Jordan-Wigner sign string over lower mode indices,
  with mode 0 stored in the least significant bit of the basis index.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidDimension, NotAState, ShapeError
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "dag",
    "hermitize",
    "hermiticity_defect",
    "as_operator",
    "expectation",
    "vec",
    "unvec",
    "left_mul",
    "right_mul",
    "sandwich_mul",
    "choi_matrix",
    "trace_preservation_defect",
    "unitality_defect",
    "fock_annihilation",
    "fermion_mode",
    "fermion_modes",
    "DensityMatrix",
    "basis_state",
    "trace_distance",
]


def dag(x: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return x.conj().T


def hermitize(x: np.ndarray) -> np.ndarray:
    """Project onto the hermitian part, (X + X†)/2."""
    return 0.5 * (x + x.conj().T)


def hermiticity_defect(x: np.ndarray) -> float:
    """Largest entrywise deviation from hermiticity, max|X - X†|."""
    return float(np.max(np.abs(x - x.conj().T))) if x.size else 0.0


def as_operator(x, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex array; raise ShapeError otherwise.

    Accepts plain arrays and anything exposing a .matrix array (states).
    """
    return _square(x, name, keep_real=False)


def _square(x, name: str, keep_real: bool) -> np.ndarray:
    """``as_operator``; with ``keep_real`` a real input stays float64."""
    matrix = getattr(x, "matrix", None)
    if isinstance(matrix, np.ndarray):
        x = matrix
    try:
        dtype = float if keep_real and np.isrealobj(x) else complex
        arr = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not matrix-like: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def expectation(observable: np.ndarray, state: np.ndarray) -> float:
    """Real expectation value tr(rho A) for hermitian A and state rho."""
    return float(np.trace(observable @ state).real)


# --- vectorization ---------------------------------------------------------

def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector: vec(X)[i + d*j] = X[i, j]."""
    a = as_operator(x, "vec argument")
    return a.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec; the length must be a perfect square."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(w.size)))
    if d * d != w.size:
        raise ShapeError(f"cannot unvec a vector of length {w.size}")
    return w.reshape((d, d), order="F")


def left_mul(a: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X."""
    a = as_operator(a)
    return np.kron(np.eye(a.shape[0]), a)


def right_mul(b: np.ndarray) -> np.ndarray:
    """Superoperator of X -> X B."""
    b = as_operator(b)
    return np.kron(b.T, np.eye(b.shape[0]))


def sandwich_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ShapeError(f"sandwich factors differ in shape: {a.shape} vs {b.shape}")
    return np.kron(b.T, a)


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix sum_kl |k><l| (x) Phi(|k><l|) of the map encoded by ``superop``.

    The reshuffle below is the index permutation relating the column-stacking
    superoperator matrix to the Choi block structure; it is exercised against
    the direct sum-over-matrix-units construction in the tests.
    """
    s = as_operator(superop, "superoperator")
    d = int(round(np.sqrt(s.shape[0])))
    if d * d != s.shape[0]:
        raise ShapeError(f"superoperator side {s.shape[0]} is not a perfect square")
    s4 = s.reshape(d, d, d, d)
    return s4.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def trace_preservation_defect(superop: np.ndarray) -> float:
    """Norm of tr(L(X)) over unit X, for a Schrodinger-picture generator.

    Zero means every output of the generator is traceless, which is the
    generator-level form of trace preservation of the flow.
    """
    s = as_operator(superop, "superoperator")
    d = int(round(np.sqrt(s.shape[0])))
    iv = vec(np.eye(d))
    return float(np.linalg.norm(iv.conj() @ s))


def unitality_defect(superop: np.ndarray) -> float:
    """Norm of L(I) for a Heisenberg-picture generator (should annihilate I)."""
    s = as_operator(superop, "superoperator")
    d = int(round(np.sqrt(s.shape[0])))
    return float(np.linalg.norm(s @ vec(np.eye(d))))


# --- mode constructions ----------------------------------------------------

def fock_annihilation(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation operator a|n> = sqrt(n)|n-1>.

    The basis is {|0>, ..., |dim-1>}; the commutator [a, a†] picks up the
    usual -(dim-1) artifact in its last diagonal entry.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidDimension(f"fock_annihilation needs integer dim >= 2, got {dim!r}")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def fermion_mode(n_modes: int, index: int) -> np.ndarray:
    """Annihilation operator of one fermionic mode on the full 2^n space.

    Mode ``index`` occupies bit ``index`` of the basis label (LSB = mode 0);
    the Jordan-Wigner sign counts occupied modes below ``index``.
    Building a single mode keeps peak memory at one 2^n x 2^n matrix.
    """
    if not isinstance(n_modes, (int, np.integer)) or not (1 <= n_modes <= 12):
        raise InvalidDimension(f"fermion modes supported for 1..12 modes, got {n_modes!r}")
    if not isinstance(index, (int, np.integer)) or not (0 <= index < n_modes):
        raise InvalidDimension(f"mode index {index!r} outside 0..{n_modes - 1}")
    dim = 1 << n_modes
    bit = 1 << index
    lower = bit - 1
    c = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        if b & bit:
            sign = -1.0 if (bin(b & lower).count("1") & 1) else 1.0
            c[b ^ bit, b] = sign
    return c


def fermion_modes(n_modes: int) -> list[np.ndarray]:
    """All mode annihilation operators, in mode order. See fermion_mode."""
    if not isinstance(n_modes, (int, np.integer)) or not (1 <= n_modes <= 12):
        raise InvalidDimension(f"fermion modes supported for 1..12 modes, got {n_modes!r}")
    return [fermion_mode(n_modes, j) for j in range(n_modes)]


# --- states ----------------------------------------------------------------

class DensityMatrix:
    """Validated immutable density matrix.

    Checks finiteness, trace, hermiticity and numerical positivity at
    construction against the given tolerances, stores the hermitized matrix,
    and freezes the buffer. The raw array is available as ``.matrix``.

    Positivity is certified by a Cholesky factorization of
    rho + positivity * I; only when that factorization fails does the
    smallest eigenvalue decide (it raises below -positivity).  Rounding in
    the factorization moves the acceptance boundary by O(d eps ||rho||).
    A matrix whose imaginary part is exactly zero is checked in float64
    (dpotrf, and the real symmetric eigensolver if it fails), which costs a
    fraction of the complex route; the stored matrix is complex either way.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix, tol: Tolerances = DEFAULT):
        m = as_operator(matrix, "density matrix")
        if not np.isfinite(m).all():
            raise NotAState("density matrix has non-finite entries")
        tr = complex(m.trace())
        if abs(tr - 1.0) > tol.trace:
            raise NotAState(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        real = not m.imag.any()
        part = m.real if real else m
        # contiguous, so both passes below read it row by row
        adj = part.T.copy() if real else np.conjugate(part.T, order="C")
        defect = float(np.abs(part - adj).max())
        if defect > tol.hermiticity:
            raise NotAState(f"hermiticity defect {defect:.3e} exceeds {tol.hermiticity:.1e}")
        h = 0.5 * (part + adj)
        # h is exactly hermitian, so the transposed view of the shifted copy
        # (Fortran order, factored in place) has the same spectrum.
        shifted = h.copy()
        shifted.reshape(-1)[:: h.shape[0] + 1] += tol.positivity
        potrf = lapack.dpotrf if real else lapack.zpotrf
        if potrf(shifted.T, overwrite_a=True, clean=False)[1] != 0:
            lo = float(np.linalg.eigvalsh(h)[0])
            if lo < -tol.positivity:
                raise NotAState(f"minimum eigenvalue {lo:.3e} below -{tol.positivity:.1e}")
        if real:
            h = h.astype(complex)
        h.setflags(write=False)
        self._matrix = h

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def expectation(self, observable: np.ndarray) -> float:
        return expectation(observable, self._matrix)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(dim={self.dim})"


def basis_state(dim: int, index: int) -> DensityMatrix:
    """Projector |index><index| as a DensityMatrix."""
    if dim < 1:
        raise InvalidDimension(f"dim must be >= 1, got {dim}")
    if not (0 <= index < dim):
        raise InvalidDimension(f"index {index} outside 0..{dim - 1}")
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return DensityMatrix(m)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance (1/2)||rho - sigma||_1 for hermitian arguments."""
    a = as_operator(rho, "rho")
    b = as_operator(sigma, "sigma")
    if a.shape != b.shape:
        raise ShapeError(f"states differ in shape: {a.shape} vs {b.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(hermitize(a - b)))))
