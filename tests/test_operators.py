"""Operator-space plumbing: vec conventions, Choi reshuffle, mode algebras."""

import numpy as np
import pytest

from lindtherm import (
    DensityMatrix,
    NotAState,
    ShapeError,
    Tolerances,
    as_operator,
    basis_state,
    choi_matrix,
    dag,
    expectation,
    fermion_mode,
    fermion_modes,
    fock_annihilation,
    hermiticity_defect,
    hermitize,
    left_mul,
    right_mul,
    sandwich_mul,
    trace_distance,
    trace_preservation_defect,
    unitality_defect,
    unvec,
    vec,
)

from lindtherm.models.chem import coherent_state

from conftest import random_state


def test_vec_is_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(vec(m), np.array([1.0, 3.0, 2.0, 4.0], dtype=complex))


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 7):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.array_equal(unvec(vec(m)), m)
    with pytest.raises(ShapeError):
        unvec(np.ones(6))  # 6 is not a perfect square


def test_multiplication_superoperators():
    rng = np.random.default_rng(12)
    for d in (2, 4):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.allclose(unvec(left_mul(a) @ vec(x)), a @ x, atol=1e-13)
        assert np.allclose(unvec(right_mul(b) @ vec(x)), x @ b, atol=1e-13)
        assert np.allclose(unvec(sandwich_mul(a, b) @ vec(x)), a @ x @ b, atol=1e-13)


def test_choi_of_kraus_map_is_positive():
    rng = np.random.default_rng(13)
    d = 3
    ks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
    s = sum(sandwich_mul(k, dag(k)) for k in ks)
    c = choi_matrix(s)
    assert hermiticity_defect(c) < 1e-12
    assert np.linalg.eigvalsh(hermitize(c)).min() > -1e-12


def test_choi_of_transpose_map_has_negative_eigenvalue():
    # the transpose map is positive but not completely positive; its Choi
    # matrix is the swap, with eigenvalue -1
    d = 2
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            s[:, np.ravel_multi_index((i, j), (d, d), order="F")] = vec(e.T)
    evals = np.linalg.eigvalsh(hermitize(choi_matrix(s)))
    assert evals.min() < -0.5


def test_choi_matches_direct_sum_construction():
    """Choi = sum_ij E_ij (x) Phi(E_ij) with E_ij in the first slot."""
    rng = np.random.default_rng(14)
    d = 3
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    s = sandwich_mul(a, b)
    direct = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            direct += np.kron(e, a @ e @ b)
    assert np.allclose(choi_matrix(s), direct, atol=1e-13)


def test_trace_and_unitality_defects():
    # both defects are generator-level statements: a dissipator sends every
    # state to a traceless direction, and its adjoint annihilates I
    rng = np.random.default_rng(15)
    d = 3
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    n = dag(a) @ a
    half = 0.5 * (left_mul(n) + right_mul(n))
    diss = sandwich_mul(a, dag(a)) - half
    diss_adj = sandwich_mul(dag(a), a) - half
    assert trace_preservation_defect(diss) < 1e-12
    assert unitality_defect(diss_adj) < 1e-12
    # dropping the anticommutator half breaks both
    assert trace_preservation_defect(sandwich_mul(a, dag(a))) > 0.1
    assert unitality_defect(sandwich_mul(dag(a), a)) > 0.1


def test_fock_annihilation_ladder():
    d = 7
    a = fock_annihilation(d)
    for n in range(1, d):
        e = np.zeros(d)
        e[n] = 1.0
        out = a @ e
        assert abs(out[n - 1] - np.sqrt(n)) < 1e-15
    # truncated commutator: identity except the top corner
    comm = a @ dag(a) - dag(a) @ a
    expected = np.eye(d)
    expected[d - 1, d - 1] = -(d - 1)
    assert np.allclose(comm, expected, atol=1e-13)


def test_fermion_car_small():
    for n in range(1, 5):
        cs = fermion_modes(n)
        eye = np.eye(2**n)
        for i in range(n):
            for j in range(n):
                anti = cs[i] @ dag(cs[j]) + dag(cs[j]) @ cs[i]
                assert np.allclose(anti, eye if i == j else 0.0, atol=1e-13)
                assert np.allclose(cs[i] @ cs[j] + cs[j] @ cs[i], 0.0, atol=1e-13)


@pytest.mark.parametrize("n,i,j", [(8, 2, 5), (10, 0, 9), (12, 3, 11)])
def test_fermion_car_spot_checks(n, i, j):
    # large registers: verify the anticommutators by action on random
    # vectors, not by forming the full matrix products
    rng = np.random.default_rng(100 + n)
    ci, cj = fermion_mode(n, i), fermion_mode(n, j)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    lhs = ci @ (dag(cj) @ v) + dag(cj) @ (ci @ v)
    assert np.allclose(lhs, v if i == j else 0.0, atol=1e-12)
    lhs2 = ci @ (cj @ v) + cj @ (ci @ v)
    assert np.allclose(lhs2, 0.0, atol=1e-12)
    same = ci @ (dag(ci) @ v) + dag(ci) @ (ci @ v)
    assert np.allclose(same, v, atol=1e-12)


def test_fermion_mode_index_bounds():
    with pytest.raises(Exception):
        fermion_mode(3, 3)
    with pytest.raises(Exception):
        fermion_mode(0, 0)


def test_density_matrix_validation():
    good = DensityMatrix(np.diag([0.25, 0.75]))
    assert good.dim == 2
    with pytest.raises(NotAState):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(NotAState):
        DensityMatrix(np.diag([0.4, 0.4]))
    with pytest.raises(NotAState):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not hermitian
    with pytest.raises(ShapeError):
        DensityMatrix(np.ones((2, 3)))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_non_finite_entries(entry, value):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[entry] = value
    with pytest.raises(NotAState, match="non-finite"):
        DensityMatrix(m)


def test_density_matrix_rejects_all_nan_and_nan_coherent_state():
    with pytest.raises(NotAState, match="non-finite"):
        DensityMatrix(np.full((2, 2), np.nan))
    with pytest.raises(NotAState, match="non-finite"), np.errstate(invalid="ignore"):
        coherent_state(np.nan, 12)


def _eigvalsh_counter(monkeypatch):
    """Count calls of np.linalg.eigvalsh while the test runs."""
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("positivity", [1e-9, 1e-8])
@pytest.mark.parametrize("dim", [2, 40, 600])
def test_density_matrix_positivity_boundary_sweep(monkeypatch, dim, positivity):
    # States whose smallest eigenvalue sits just inside or just outside
    # -positivity: the decision must match the spectrum exactly, and an
    # accepted state must be certified without computing the spectrum.  A
    # real orthogonal basis gives real states, which take the float64 route.
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.linalg.qr(x)[0]
    rest = rng.uniform(0.5, 1.5, dim - 1)
    tol = Tolerances().with_(positivity=positivity)
    for basis in (u, np.linalg.qr(x.real)[0]):
        for factor in (0.9, 0.99, 1.01, 1.1):
            low = -positivity * factor
            vals = np.concatenate([[low], (1.0 - low) * rest / rest.sum()])
            m = (basis * vals) @ basis.conj().T
            lo = np.linalg.eigvalsh(hermitize(m))[0]
            assert (lo < -positivity) == (factor > 1.0)
            calls = _eigvalsh_counter(monkeypatch)
            if lo < -positivity:
                with pytest.raises(NotAState, match="minimum eigenvalue"):
                    DensityMatrix(m, tol)
                assert len(calls) == 1
            else:
                DensityMatrix(m, tol)
                assert calls == []
            monkeypatch.undo()


def test_pure_state_passes_through_the_spectral_fallback(monkeypatch):
    # positivity 0 leaves a rank-1 projector singular, so the factorization
    # fails and the (exactly zero) smallest eigenvalue decides.
    m = np.zeros((600, 600), dtype=complex)
    m[17, 17] = 1.0
    calls = _eigvalsh_counter(monkeypatch)
    rho = DensityMatrix(m, Tolerances().with_(positivity=0.0))
    assert calls == [(600, 600)]
    assert np.array_equal(rho.matrix, m)


def test_density_matrix_is_defensive_copy():
    m = np.diag([0.5, 0.5]).astype(complex)
    rho = DensityMatrix(m)
    with pytest.raises((ValueError, RuntimeError)):
        rho.matrix[0, 0] = 9.0


def test_basis_state_and_expectation():
    rho = basis_state(3, 1)
    h = np.diag([0.0, 2.0, 5.0])
    assert expectation(h, rho.matrix) == 2.0
    assert rho.expectation(h) == 2.0
    sz = np.diag([1.0, -1.0])
    assert abs(expectation(sz, np.diag([0.7, 0.3])) - 0.4) < 1e-15


def test_trace_distance_oracles():
    assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) < 1e-14
    assert abs(trace_distance(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) - 0.5) < 1e-14
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    assert trace_distance(rho, rho) < 1e-15  # accepts wrapped states


def test_as_operator_coercion():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    assert np.array_equal(as_operator(rho), rho.matrix)
    with pytest.raises(ShapeError):
        as_operator(np.ones(3))
    with pytest.raises(ShapeError):
        as_operator("not a matrix")


def test_hermitize_and_defect():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitize(m)
    assert hermiticity_defect(h) < 1e-15
    assert hermiticity_defect(m) > 0.1
    assert np.allclose(h, (m + dag(m)) / 2.0)


def test_random_state_helper_is_a_state():
    rng = np.random.default_rng(17)
    for d in (2, 5):
        DensityMatrix(random_state(rng, d))
