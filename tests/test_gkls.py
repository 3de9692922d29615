"""Generator assembly, picture duality, thermal structure, propagation."""

import numpy as np
import pytest
from scipy.linalg import expm

from lindtherm import (
    DensityMatrix,
    GeneratorFamily,
    DEFAULT,
    GklsGenerator,
    LindbladTerm,
    NonUniqueStationary,
    NotAnEigenoperator,
    NotStationary,
    NumericalDrift,
    ShapeError,
    SingularWeight,
    StepTooLarge,
    apply_heisenberg,
    apply_schrodinger,
    basis_state,
    choi_matrix,
    dag,
    davies_terms,
    detailed_balance_report,
    embed_state,
    evolve,
    evolve_driven,
    gibbs_state,
    heisenberg_super,
    hermitize,
    left_mul,
    modulated_family,
    restrict_generator,
    right_mul,
    sandwich_mul,
    schrodinger_super,
    stationary_state,
    thermal_pair,
    trace_distance,
    trace_preservation_defect,
    unitality_defect,
    unvec,
    vec,
    weighted_inner_product,
)

from conftest import random_state, random_thermal_model, triangle_generator, unit


# --- construction and validation ---------------------------------------------

def test_lindblad_term_validation():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    for rate in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            LindbladTerm(a, rate)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            LindbladTerm(np.array([[0.0, 1.0], [bad, 0.0]]), 1.0)
    with pytest.raises(ShapeError):
        LindbladTerm(np.ones((2, 3)), 1.0)
    t = LindbladTerm(a, 4.0, "b")
    assert np.allclose(t.scaled_jump, 2.0 * a)


def test_generator_requires_hermitian_hamiltonian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ShapeError):
        GklsGenerator(np.array([[0.0, 1.0], [0.0, 1.0]]), (LindbladTerm(a, 1.0),))
    with pytest.raises(ShapeError):
        GklsGenerator(np.diag([0.0, 1.0]), (LindbladTerm(np.eye(3), 1.0),))
    for bad in (np.nan, np.inf):
        with pytest.raises(ShapeError):
            GklsGenerator(np.diag([0.0, bad]), (LindbladTerm(a, 1.0),))


def test_bath_labels_collected():
    gen, _ = triangle_generator()
    assert set(gen.bath_labels()) == {"cold", "hot"}


# --- superoperator structure --------------------------------------------------

def _two_bath_model(rng, dim):
    """Davies terms of two baths at different temperatures, plus a zero-rate term."""
    evals = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, dim - 1))])
    h = np.diag(evals).astype(complex)
    terms = [LindbladTerm(rng.standard_normal((dim, dim)), 0.0, "cold")]
    for label, beta in (("cold", 1.3), ("hot", 0.2)):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        terms += davies_terms(h, (x + dag(x)) / 2.0, beta, 0.7, label)
    return GklsGenerator(h, tuple(terms))


def _termwise_super(gen):
    """Reference assembly: three krons per term, straight from the GKLS form."""
    h = gen.hamiltonian
    s = -1j * (left_mul(h) - right_mul(h))
    for term in gen.terms:
        v = term.scaled_jump
        vdv = dag(v) @ v
        s = s + sandwich_mul(v, dag(v)) - 0.5 * (left_mul(vdv) + right_mul(vdv))
    return s


def test_schrodinger_super_matches_termwise_reference():
    rng = np.random.default_rng(20)
    for dim in (2, 3, 5):
        gen = _two_bath_model(rng, dim)
        assert np.allclose(schrodinger_super(gen), _termwise_super(gen), rtol=0, atol=1e-12)
    bare = GklsGenerator(np.diag([0.0, 0.4, 1.1]), ())
    assert np.allclose(schrodinger_super(bare), _termwise_super(bare), rtol=0, atol=1e-14)


def test_picture_duality():
    """The Heisenberg matrix is the conjugate transpose of the Schrodinger one."""
    rng = np.random.default_rng(21)
    for dim in (2, 3, 4):
        gen, _ = random_thermal_model(rng, dim)
        s = schrodinger_super(gen)
        assert np.allclose(heisenberg_super(gen), dag(s), atol=1e-13)


def test_duality_pairing():
    # tr(X+ L(rho)) = tr((L*X)+ rho) for random operators
    rng = np.random.default_rng(22)
    gen, _ = random_thermal_model(rng, 3)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(dag(x) @ apply_schrodinger(gen, r))
        rhs = np.trace(dag(apply_heisenberg(gen, x)) @ r)
        assert abs(lhs - rhs) < 1e-12


def test_generator_defects_and_cp():
    rng = np.random.default_rng(23)
    gen, _ = random_thermal_model(rng, 4)
    s = schrodinger_super(gen)
    assert trace_preservation_defect(s) < 1e-11
    assert unitality_defect(heisenberg_super(gen)) < 1e-11
    # the finite-time propagator must be completely positive
    for t in (0.05, 0.5, 2.0):
        c = choi_matrix(expm(s * t))
        assert np.linalg.eigvalsh(hermitize(c)).min() > -1e-10


def test_apply_matches_superoperator():
    rng = np.random.default_rng(24)
    gen, _ = random_thermal_model(rng, 3)
    rho = random_state(rng, 3)
    s = schrodinger_super(gen)
    assert np.allclose(apply_schrodinger(gen, rho), unvec(s @ vec(rho)), atol=1e-12)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ls = heisenberg_super(gen)
    assert np.allclose(apply_heisenberg(gen, x), unvec(ls @ vec(x)), atol=1e-12)


# --- closed-form dynamics ------------------------------------------------------

def test_amplitude_damping_closed_form():
    gamma = 0.8
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = GklsGenerator(np.zeros((2, 2)), (LindbladTerm(a, gamma),))
    rho0 = DensityMatrix(np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]]))
    times = np.linspace(0.0, 2.0, 9)
    traj = evolve(gen, rho0, times)
    for t, st in zip(traj.times, traj.states):
        decay = np.exp(-gamma * t)
        m = st.matrix
        assert abs(m[1, 1] - 0.7 * decay) < 1e-12
        assert abs(m[0, 1] - (0.25 - 0.1j) * np.sqrt(decay)) < 1e-12


def test_pure_hamiltonian_rotation():
    omega = 1.7
    h = np.diag([0.0, omega])
    gen = GklsGenerator(h, ())
    rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    traj = evolve(gen, rho0, np.linspace(0.0, 3.0, 7))
    for t, st in zip(traj.times, traj.states):
        assert abs(st.matrix[0, 1] - 0.5 * np.exp(1j * omega * t)) < 1e-12


def test_evolve_rejects_bad_grid():
    gen = GklsGenerator(np.diag([0.0, 1.0]), ())
    rho = basis_state(2, 0)
    with pytest.raises(ShapeError):
        evolve(gen, rho, [0.0, 0.5, 0.5])
    with pytest.raises(ShapeError):
        evolve(gen, rho, [[0.0, 1.0]])


def test_evolve_state_checks_use_given_tolerances():
    loose = DEFAULT.with_(positivity=1e-3)
    rho0 = DensityMatrix(np.diag([1.0005, -0.0005]), loose)
    gen = GklsGenerator(np.diag([0.0, 1.0]), ())
    with pytest.raises(NumericalDrift, match="step 1"):
        evolve(gen, rho0, [0.0, 1.0])
    traj = evolve(gen, rho0, [0.0, 1.0], tol=loose)
    assert abs(traj.states[1].matrix[1, 1] + 0.0005) < 1e-15
    fam = modulated_family(gen, np.diag([0.0, 0.25]), amplitude=0.3, frequency=2.0)
    times = np.linspace(0.0, 0.05, 3)
    with pytest.raises(NumericalDrift, match="step 1"):
        evolve_driven(fam, rho0, times)
    assert len(evolve_driven(fam, rho0, times, tol=loose)) == 3


# --- thermal structure ----------------------------------------------------------

def test_gibbs_state_values():
    beta = np.log(2.0)
    rho = gibbs_state(np.diag([0.0, 1.0]), beta)
    assert np.allclose(rho.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-14)


def test_thermal_pair_rates_and_validation():
    a = unit(0, 1, 2)
    (t_down, t_up) = thermal_pair(a, 0.9, 1.0, 1.0, "b", hamiltonian=np.diag([0.0, 1.0]))
    assert t_down.rate == 0.9
    assert abs(t_up.rate - 0.9 * np.exp(-1.0)) < 1e-15
    assert np.allclose(t_up.jump, dag(a))
    with pytest.raises(NotAnEigenoperator):
        thermal_pair(
            np.array([[1.0, 1.0], [0.0, -1.0]]), 0.9, 1.0, 1.0,
            hamiltonian=np.diag([0.0, 1.0]),
        )


def test_davies_terms_gibbs_stationary():
    rng = np.random.default_rng(25)
    for dim in (2, 3, 5):
        gen, beta = random_thermal_model(rng, dim)
        rho = gibbs_state(gen.hamiltonian, beta)
        assert np.linalg.norm(apply_schrodinger(gen, rho.matrix)) < 1e-10
        # every jump is a Bohr-frequency eigenoperator of H
        for term in gen.terms:
            h = gen.hamiltonian
            comm = h @ term.jump - term.jump @ h
            ratio = np.linalg.norm(comm + 0.0 * term.jump)  # finite
            assert np.isfinite(ratio)


def test_davies_groups_degenerate_gaps():
    # H with a repeated Bohr frequency: both transitions land in one
    # eigenoperator per gap sign, so the Gibbs state is still stationary
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    coupling = (x + x.conj().T) / 2.0
    beta = 0.7
    terms = davies_terms(h, coupling, beta, base_rate=0.5, bath_label="b")
    gen = GklsGenerator(h, tuple(terms))
    rho = gibbs_state(h, beta)
    assert np.linalg.norm(apply_schrodinger(gen, rho.matrix)) < 1e-11
    gaps = set()
    for term in gen.terms:
        comm = h @ term.jump - term.jump @ h
        # [H, A] = -w A for an eigenoperator at Bohr frequency w
        w = -np.trace(dag(term.jump) @ comm) / np.trace(dag(term.jump) @ term.jump)
        gaps.add(round(float(w.real), 9))
    assert gaps <= {-2.0, -1.0, 0.0, 1.0, 2.0}



def _davies_terms_by_scan(h, coupling, beta, base_rate, freq_tol=1e-9):
    """Reference grouping: each gap, in row-major (i, j) order, joins the first
    group already opened within freq_tol of it, else opens its own."""
    h = np.asarray(h, dtype=complex)
    vals, vecs = np.linalg.eigh(hermitize(h))
    at = dag(vecs) @ coupling @ vecs
    d = h.shape[0]
    gaps = {}
    for i in range(d):
        for j in range(d):
            w = vals[j] - vals[i]
            if at[i, j] == 0:
                continue
            for key in gaps:
                if abs(key - w) <= freq_tol:
                    w = key
                    break
            gaps.setdefault(w, np.zeros((d, d), dtype=complex))[i, j] = at[i, j]
    terms = []
    for w in sorted(gaps):
        if abs(w) <= freq_tol:
            block = gaps[w] - (np.trace(gaps[w]) / d) * np.eye(d)
            if np.linalg.norm(block) > 1e-12:
                terms.append(LindbladTerm(vecs @ block @ dag(vecs), base_rate))
        elif w > 0:
            aw = vecs @ gaps[w] @ dag(vecs)
            terms.extend(thermal_pair(aw, base_rate, w, beta, hamiltonian=h))
    return terms


@pytest.mark.parametrize("dim", [3, 5, 8, 12, 6])
def test_davies_gap_grouping_matches_scan(dim):
    rng = np.random.default_rng(40 + dim)
    if dim == 6:
        # equally spaced levels in a random basis: the degenerate gaps differ
        # only by rounding and must group within freq_tol
        q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        h = hermitize(q @ np.diag(np.arange(6.0)) @ dag(q))
    else:
        h = np.diag(np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, dim - 1))]))
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    coupling = (x + x.conj().T) / 2.0
    got = davies_terms(h, coupling, 0.7, base_rate=0.5)
    ref = _davies_terms_by_scan(h, coupling, 0.7, 0.5)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.rate == b.rate
        assert a.jump.tobytes() == b.jump.tobytes()
    assert davies_terms(h, np.zeros((dim, dim)), 0.7) == []

# --- stationary states -----------------------------------------------------------

def test_stationary_state_triangle():
    gen, _ = triangle_generator()
    rho = stationary_state(gen)
    assert np.linalg.norm(apply_schrodinger(gen, rho.matrix)) < 1e-11
    # populations only: matrix-unit jumps decouple coherences
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.linalg.norm(off) < 1e-12


def test_stationary_state_thermal_is_gibbs():
    rng = np.random.default_rng(27)
    gen, beta = random_thermal_model(rng, 4)
    rho = stationary_state(gen)
    assert trace_distance(rho, gibbs_state(gen.hamiltonian, beta)) < 1e-9


def test_stationary_state_nonunique_raises():
    # a thermal pair on levels {0,1} leaves level 2 untouched: kernel dim 2
    h = np.diag([0.0, 1.0, 5.0]).astype(complex)
    terms = thermal_pair(unit(0, 1, 3), 0.8, 1.0, 1.0)
    gen = GklsGenerator(h, tuple(terms))
    with pytest.raises(NonUniqueStationary):
        stationary_state(gen)


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e3])
def test_stationary_state_kernel_cut_sweep(scale):
    # a pair on {1,2} at relative rate eps joins level 2 to the {0,1} pair;
    # the whole generator is scaled, so the relative cut sees one system
    h = np.diag([0.0, 1.0, 5.0]).astype(complex)
    for eps, unique in ((1e-10, False), (1e-9, False), (3e-9, False),
                        (1e-7, True), (1e-6, True)):
        terms = (thermal_pair(unit(0, 1, 3), 0.8, 1.0, 1.0)
                 + thermal_pair(unit(1, 2, 3), 0.8 * eps, 4.0, 1.0))
        gen = GklsGenerator(
            scale * h, tuple(LindbladTerm(t.jump, scale * t.rate) for t in terms)
        )
        if unique:
            rho = stationary_state(gen).matrix
            assert np.linalg.norm(apply_schrodinger(gen, rho)) <= DEFAULT.stationarity
        else:
            with pytest.raises(NonUniqueStationary):
                stationary_state(gen)


def _eig_kernel_state(gen):
    """Reference: eigenvector of the least-modulus eigenvalue, trace-normalized."""
    vals, vecs = np.linalg.eig(schrodinger_super(gen))
    rho = unvec(vecs[:, np.argmin(np.abs(vals))])
    return hermitize(rho / np.trace(rho))


def test_stationary_state_matches_eig_kernel():
    rng = np.random.default_rng(29)
    for dim in (2, 3, 5):
        gen = _two_bath_model(rng, dim)
        ref = _eig_kernel_state(gen)
        assert np.allclose(stationary_state(gen).matrix, ref, rtol=0, atol=1e-12)


def test_restrict_and_embed():
    h = np.diag([0.0, 1.0, 5.0]).astype(complex)
    terms = thermal_pair(unit(0, 1, 3), 0.8, 1.0, 1.0)
    gen = GklsGenerator(h, tuple(terms))
    sub = restrict_generator(gen, [0, 1])
    rho_sub = stationary_state(sub)
    big = embed_state(rho_sub.matrix, [0, 1], 3)
    assert np.linalg.norm(apply_schrodinger(gen, big)) < 1e-11
    assert abs(np.trace(big) - 1.0) < 1e-12


def test_restrict_rejects_coupled_cut():
    h = np.diag([0.0, 1.0, 5.0]).astype(complex)
    h[0, 2] = h[2, 0] = 0.3  # hamiltonian bridges the cut
    gen = GklsGenerator(h, tuple(thermal_pair(unit(0, 1, 3), 0.8, 1.0, 1.0)))
    with pytest.raises(ShapeError):
        restrict_generator(gen, [0, 1])


# --- driven propagation -----------------------------------------------------------

def _driven_family():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    terms = thermal_pair(unit(0, 1, 2), 0.6, 1.0, 1.0)
    gen0 = GklsGenerator(h0, tuple(terms))
    m = np.diag([0.0, 0.25])
    return modulated_family(gen0, m, amplitude=0.3, frequency=2.0)


def test_driven_zero_amplitude_matches_static():
    fam = _driven_family()
    fam0 = GeneratorFamily(fam.generator_of, fam.drive_observable, 0.0, fam.frequency)
    rho0 = basis_state(2, 1)
    times = np.linspace(0.0, 1.0, 51)
    a = evolve_driven(fam0, rho0, times)
    b = evolve(fam.generator_of(0.0), rho0, times)
    for sa, sb in zip(a.states, b.states):
        assert trace_distance(sa, sb) < 1e-13


def test_evolve_rejects_initial_state_of_wrong_dimension():
    fam = _driven_family()
    times = np.linspace(0.0, 0.02, 3)
    with pytest.raises(ShapeError):
        evolve(fam.base, basis_state(3, 0), times)
    with pytest.raises(ShapeError):
        evolve_driven(fam, basis_state(3, 0), times)


def test_driven_records_midpoints_and_guards_step():
    fam = _driven_family()
    rho0 = basis_state(2, 1)
    times = np.linspace(0.0, 1.0, 51)
    traj = evolve_driven(fam, rho0, times)
    assert traj.xi_midpoints.shape == (50,)
    mids = 0.5 * (times[1:] + times[:-1])
    assert np.allclose(traj.xi_midpoints, 0.3 * np.sin(2.0 * mids), atol=1e-14)
    with pytest.raises(StepTooLarge):
        evolve_driven(fam, rho0, np.linspace(0.0, 1.0, 6))


def test_driven_convergence_under_refinement():
    fam = _driven_family()
    rho0 = basis_state(2, 1)
    coarse = evolve_driven(fam, rho0, np.linspace(0.0, 1.0, 101))
    fine = evolve_driven(fam, rho0, np.linspace(0.0, 1.0, 401))
    gap = trace_distance(coarse.states[-1], fine.states[-1])
    finer = evolve_driven(fam, rho0, np.linspace(0.0, 1.0, 801))
    gap2 = trace_distance(fine.states[-1], finer.states[-1])
    assert gap2 < gap  # midpoint freezing converges


# --- detailed balance ---------------------------------------------------------------

def test_weighted_inner_product_values():
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    # tr(rho x+ x) = rho_11 weight of |1><1|... explicit: x+x = diag(0,1)
    assert abs(weighted_inner_product(x, x, rho) - 0.25) < 1e-14
    y = np.eye(2)
    assert abs(weighted_inner_product(y, y, rho) - 1.0) < 1e-14
    with pytest.raises(SingularWeight):
        weighted_inner_product(x, x, np.diag([1.0, 0.0]))


def test_detailed_balance_thermal_passes():
    rng = np.random.default_rng(28)
    gen, beta = random_thermal_model(rng, 3)
    rho = gibbs_state(gen.hamiltonian, beta)
    rep = detailed_balance_report(gen, rho)
    assert rep.passed
    assert rep.dissipative_hermiticity_defect < 1e-10
    assert rep.hamiltonian_antihermiticity_defect < 1e-10
    assert rep.commutator_norm < 1e-10


def test_detailed_balance_triangle_fails():
    gen, _ = triangle_generator()
    rho = stationary_state(gen)
    rep = detailed_balance_report(gen, rho)
    assert not rep.passed
    assert rep.dissipative_hermiticity_defect > 1e-3
    assert abs(rep.dissipative_hermiticity_defect - 0.2358970) < 1e-6


def test_detailed_balance_requires_stationarity():
    gen, _ = triangle_generator()
    with pytest.raises(NotStationary):
        detailed_balance_report(gen, basis_state(3, 0))
