"""Generator assembly, picture duality, thermal structure, propagation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, lapack

from lindtherm import (
    BathAssignment,
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
    Trajectory,
    apply_heisenberg,
    apply_schrodinger,
    basis_state,
    choi_matrix,
    dag,
    davies_terms,
    detailed_balance_report,
    evolve,
    evolve_driven,
    gibbs_state,
    heisenberg_super,
    hermitize,
    law_residuals,
    left_mul,
    modulated_family,
    power_report,
    right_mul,
    sandwich_mul,
    schrodinger_super,
    stationary_state,
    thermal_family,
    thermal_pair,
    trace_distance,
    trace_preservation_defect,
    unitality_defect,
    unvec,
    vec,
    weighted_inner_product,
)
from lindtherm import gkls
from lindtherm.gkls import _CHUNK_BYTES

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


def test_schrodinger_super_temporaries_stay_superoperator_sized():
    # ~1100 jumps at d = 24: the jump table (n d^2 complex, ~10 MB) is
    # built at construction and kept; a later assembly must not copy it
    gen = _two_bath_model(np.random.default_rng(26), 24)
    assert len(gen.terms) > 1000
    schrodinger_super(gen)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        schrodinger_super(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 4 * 16 * 24 ** 4 + (1 << 20)


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


def test_heisenberg_action_is_adjoint_and_matches_superoperator():
    # Davies terms plus two dense non-Davies jumps on extra bath labels
    rng = np.random.default_rng(25)
    base, _ = random_thermal_model(rng, 5)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    terms = base.terms + (LindbladTerm(a, 0.3, "c"), LindbladTerm(dag(a), 0.2, "f"))
    gen = GklsGenerator(base.hamiltonian, terms)
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    y = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    lx = apply_heisenberg(gen, x)
    lhs = np.trace(dag(y) @ lx)
    rhs = np.trace(dag(apply_schrodinger(gen, y)) @ x)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    assert np.max(np.abs(lx - unvec(heisenberg_super(gen) @ vec(x)))) <= 1e-12


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


def _rotated_family(rng, dim):
    """Two-bath thermal family in a random basis, with a repeated gap.

    Levels 0, 1, 2 are equally spaced and M keeps them so, so the gap 1 is
    repeated at every xi.  The label "cold" is shared by two couplings, the
    "idle" coupling is zero, and the hot bath has beta = inf.
    """
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    levels = np.concatenate([[0.0, 1.0, 2.0], 2.0 + np.cumsum(rng.uniform(0.3, 1.0, dim - 3))])
    drive = np.concatenate([[0.0, 0.1, 0.2], rng.uniform(-0.5, 0.5, dim - 3)])
    h0 = hermitize(q @ np.diag(levels) @ dag(q))
    m = hermitize(q @ np.diag(drive) @ dag(q))

    def coupling():
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (x + dag(x)) / 2.0

    couplings = [
        (coupling(), 1.3, 0.7, "cold"),
        (coupling(), np.inf, 0.4, "hot"),
        (np.zeros((dim, dim)), 0.5, 0.3, "idle"),
        (coupling(), 0.9, 0.2, "cold"),
    ]
    return h0, m, couplings


@pytest.mark.parametrize("dim", [3, 5, 8])
def test_thermal_family_table_matches_davies_terms(dim):
    rng = np.random.default_rng(60 + dim)
    h0, m, couplings = _rotated_family(rng, dim)
    fam = thermal_family(h0, m, couplings, amplitude=0.3, frequency=2.0)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for xi in (0.0, 0.37, -1.1):
        h = h0 + xi * m
        ref = GklsGenerator(h, tuple(
            t for c, beta, rate, label in couplings for t in davies_terms(h, c, beta, rate, label)
        ))
        gen = fam.generator_of(xi)
        assert gen.bath_labels() == ref.bath_labels() == ("cold", "hot")
        assert len(gen.terms) == len(ref.terms) > 0
        for a, b in zip(gen.terms, ref.terms):
            assert (a.rate, a.bath_label) == (b.rate, b.bath_label)
            assert np.max(np.abs(a.jump - b.jump)) <= 1e-14
        assert np.array_equal(gen._jumps, ref._jumps)
        assert np.max(np.abs(schrodinger_super(gen) - schrodinger_super(ref))) <= 1e-14
        lab = gkls._gkls_action(gen._g, x, gen._jumps)  # the table kernel of the heat currents
        assert np.max(np.abs(lab - apply_schrodinger(ref, x))) <= 1e-14


def test_davies_families_build_tables_without_terms(monkeypatch):
    rng = np.random.default_rng(64)
    h0, m, couplings = _rotated_family(rng, 5)
    fam = thermal_family(h0, m, couplings[:2], amplitude=0.3, frequency=600.0)
    made, eighs, generators = [], [], []
    post_init = LindbladTerm.__post_init__
    eigh = np.linalg.eigh
    monkeypatch.setattr(LindbladTerm, "__post_init__", lambda t: made.append(t) or post_init(t))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))

    def counted(xi):
        generators.append(xi)
        return fam.generator_of(xi)

    power_report(GeneratorFamily(counted, fam.drive_observable, fam.amplitude, fam.frequency))
    assert made == []
    assert len(eighs) == len(generators) > 1
    # a modulated family shares its base generator's channel record, table and K_b
    base = fam.generator_of(0.0)
    mod = modulated_family(base, m, amplitude=0.3, frequency=2.0).generator_of(0.2)
    assert mod._record is base._record
    assert mod._jumps is base._jumps
    assert all(mod._baths[k][0] is base._baths[k][0] for k in base.bath_labels())
    assert made == []


def test_davies_eigenoperator_check_rejects_a_spread_gap_group():
    # nearest-neighbour gaps 1 + 0.99e-9 n chain into one group within
    # _FREQ_TOL, but its members are 1.6e-8 (relative) from one eigenoperator
    dim = 30
    n = np.arange(dim)
    h = np.diag(n + 0.99e-9 * n * (n - 1) / 2.0).astype(complex)
    coupling = np.diag(np.ones(dim - 1), 1) + np.diag(np.ones(dim - 1), -1)
    with pytest.raises(NotAnEigenoperator, match="relative 1.6"):
        davies_terms(h, coupling, 1.0)
    with pytest.raises(NotAnEigenoperator):
        thermal_family(h, np.zeros((dim, dim)), [(coupling, 1.0, 0.5, "b")], 0.3, 2.0)


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


@pytest.mark.parametrize("positivity, floor", [(1e-12, 1e-8), (1e-6, 1e-6)])
def test_computed_states_share_one_positivity_floor(monkeypatch, positivity, floor):
    # a tolerance tighter than 1e-8 is raised to it; a looser one reaches the check as given
    from lindtherm.models import chem, pv

    tol = DEFAULT.with_(positivity=positivity)
    assert gkls._state_tol(tol) == DEFAULT.with_(positivity=floor)
    spec = chem.ChemSpec(omega=1.0, gamma_up=0.5, gamma_down=0.25, dim=40)
    traj = chem.evolve_oscillator(spec, chem.coherent_state(1.0, 40).matrix,
                                  np.linspace(0.0, 1.0, 3), tol=tol)
    assert traj._tol.positivity == floor
    seen = []

    class Spy(DensityMatrix):
        def __init__(self, matrix, tol=DEFAULT):
            seen.append(tol.positivity)
            super().__init__(matrix, tol)

    monkeypatch.setattr(pv, "DensityMatrix", Spy)
    cell = pv.PvSpec(conduction_energies=(1.0,), valence_energies=(0.0,), beta=2.0, beta1=0.7,
                     inter_rates=np.array([[4.0]]))
    pv.sector_stationary_state(cell, 1, tol)
    assert seen == [floor]


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


def test_zero_generator_of_one_level_has_its_state():
    # L = 0 borders with 1 instead of ||L||_1 = 0: the one state is unique
    state = stationary_state(GklsGenerator(np.zeros((1, 1)), ()))
    assert np.array_equal(state.matrix, [[1.0]])


def test_zero_generator_of_two_levels_is_not_unique():
    with pytest.raises(NonUniqueStationary):
        stationary_state(GklsGenerator(np.zeros((2, 2)), ()))


# --- driven propagation -----------------------------------------------------------

def _driven_family():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    terms = thermal_pair(unit(0, 1, 2), 0.6, 1.0, 1.0)
    gen0 = GklsGenerator(h0, tuple(terms))
    m = np.diag([0.0, 0.25])
    return modulated_family(gen0, m, amplitude=0.3, frequency=2.0)


@pytest.mark.parametrize("field, value", [
    ("amplitude", np.nan), ("amplitude", np.inf), ("amplitude", -np.inf),
    ("frequency", np.nan), ("frequency", np.inf),
])
def test_family_rejects_non_finite_drive(field, value):
    h0 = np.diag([0.0, 1.0, 2.5]).astype(complex)
    x = unit(0, 1, 3) + unit(1, 2, 3) + unit(0, 2, 3)
    drive = {"amplitude": 0.3, "frequency": 2.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        thermal_family(h0, np.diag([0.0, 0.2, 0.1]), [(x + dag(x), 1.0, 0.5, "cold"),
                                                      (x + dag(x), 0.2, 0.5, "hot")], **drive)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_family_rejects_non_finite_drive_observable(value):
    gen, _ = random_thermal_model(np.random.default_rng(3), 3)
    m = np.diag([0.0, 0.2, value])
    with pytest.raises(ShapeError, match="drive observable has non-finite entries"):
        GeneratorFamily(lambda xi: gen, m, 0.3, 2.0)


def test_thermal_family_names_a_non_finite_hamiltonian():
    # H(xi) = H0 + xi M overflows: the error names the Hamiltonian, not the
    # jump rows that its eigendecomposition filled with NaN
    x = unit(0, 1, 3) + unit(1, 2, 3) + unit(0, 2, 3)
    fam = thermal_family(np.diag([0.0, 0.5, 1.0]), np.diag([1e308, 0.0, -1e308]),
                         [(x + dag(x), 1.0, 0.5, "cold")], amplitude=0.3, frequency=2.0)
    with pytest.raises(ShapeError, match="hamiltonian has non-finite"):
        fam.generator_of(5.0)


def test_modulated_family_names_a_non_finite_hamiltonian():
    # as for thermal_family, an overflowing H(xi) is named, with no RuntimeWarning
    m = np.diag([1e308, 0.0, -1e308])
    fam = modulated_family(GklsGenerator(np.diag([0.0, 0.5, 0.9]), ()), m, 0.3, 2.0)
    with pytest.raises(ShapeError, match="hamiltonian has non-finite"):
        fam.generator_of(5.0)
    # [H0, M] overflows too: a non-finite norm counts as not commuting
    with pytest.warns(UserWarning, match="does not commute"):
        modulated_family(GklsGenerator(np.diag([0.0, 1.0, 2.5]), ()), m, 0.3, 2.0)


def test_davies_builders_name_a_non_hermitian_hamiltonian():
    # H is checked before its eigendecomposition, so its hermiticity defect
    # is reported rather than the eigenoperator residual that it causes
    h0 = np.diag([0.0, 1.0, 2.5]) + np.diag([1e-3, 1e-3], 1)
    x = unit(0, 1, 3) + unit(1, 2, 3) + unit(0, 2, 3)
    match = "hamiltonian hermiticity defect 1.000e-03"
    with pytest.raises(ShapeError, match=match):
        thermal_family(h0, np.zeros((3, 3)), [(x + dag(x), 1.0, 0.5, "b")], 0.3, 2.0)
    with pytest.raises(ShapeError, match=match):
        davies_terms(h0, x + dag(x), 1.0)
    with pytest.raises(ShapeError, match=match):
        thermal_pair(unit(0, 1, 3), 0.9, 1.0, 1.0, hamiltonian=h0)


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


@pytest.mark.parametrize("kind", ["modulated", "thermal"])
def test_evolve_driven_matches_a_propagator_per_step(kind):
    # reference: one schrodinger_super and expm per distinct (xi, dt), step by step
    rng = np.random.default_rng(41)
    gen, _ = random_thermal_model(rng, 3)
    m = np.diag(rng.uniform(-0.5, 0.5, 3))
    if kind == "modulated":
        fam = modulated_family(gen, m, 0.3, 2.0)
    else:
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        fam = thermal_family(gen.hamiltonian, m, [(x + dag(x), 1.0, 0.6, "b")], 0.3, 2.0)
    times = np.concatenate([np.linspace(0.0, 0.2, 21), [0.205, 0.21, 0.22]])
    traj = evolve_driven(fam, DensityMatrix(random_state(rng, 3)), times)
    v, props = vec(traj.states[0].matrix), {}
    for i, xi in enumerate(traj.xi_midpoints, 1):
        dt = times[i] - times[i - 1]
        key = (round(float(xi), 15), round(float(dt), 15))
        if key not in props:
            props[key] = expm(schrodinger_super(fam.generator_of(xi)) * dt)
        v = props[key] @ v
        assert np.max(np.abs(traj.states[i].matrix - unvec(v))) <= 1e-13


def test_driven_peaks_hold_one_chunk_of_generator_matrices():
    # 400 distinct midpoints at d = 12: all their generator matrices at once
    # would be 400 * 144^2 * 16 B = 133 MB.  A consumer releases each chunk of
    # generator matrices before the next is built, and the propagators are
    # exponentiated in place, so neither peak holds two chunks (50 generators,
    # 16.6 MB, at d = 12); holding the previous chunk gave 36.7 and 40.0 MiB
    rng = np.random.default_rng(5)
    gen, beta = random_thermal_model(rng, 12)
    fam = modulated_family(gen, np.diag(rng.uniform(-0.5, 0.5, 12)), 0.3, 1.0)
    rho0 = DensityMatrix(random_state(rng, 12))
    times = np.linspace(0.0, 10.0, 401)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        traj = evolve_driven(fam, rho0, times)
        evolve_peak = tracemalloc.get_traced_memory()[1] - entry
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        law_residuals(traj, fam, [BathAssignment("bath", beta)])
        law_peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert evolve_peak < 1.75 * _CHUNK_BYTES
    assert law_peak < 1.75 * _CHUNK_BYTES


def test_driven_convergence_under_refinement():
    fam = _driven_family()
    rho0 = basis_state(2, 1)
    coarse = evolve_driven(fam, rho0, np.linspace(0.0, 1.0, 101))
    fine = evolve_driven(fam, rho0, np.linspace(0.0, 1.0, 401))
    gap = trace_distance(coarse.states[-1], fine.states[-1])
    finer = evolve_driven(fam, rho0, np.linspace(0.0, 1.0, 801))
    gap2 = trace_distance(fine.states[-1], finer.states[-1])
    assert gap2 < gap  # midpoint freezing converges



# --- driven families as stacks ----------------------------------------------------

def _same(a, b):
    """Bitwise equality of two arrays: dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _stacked_case(kind, rng, d):
    """A modulated or a two-bath thermal family of dimension d >= 3, with its baths."""
    if kind == "modulated":
        gen, beta = random_thermal_model(rng, d)
        fam = modulated_family(gen, np.diag(rng.uniform(-0.5, 0.5, d)), 0.3, 2.0)
        return fam, [BathAssignment("bath", beta)]
    h0, m, couplings = _rotated_family(rng, d)
    fam = thermal_family(h0, m, couplings, amplitude=0.3, frequency=2.0)
    return fam, [BathAssignment("cold", 1.3), BathAssignment("hot", 0.5)]


def _loop_of(fam):
    """The same family as a plain ``generator_of``: built one value at a time."""
    return GeneratorFamily(fam.generator_of, fam.drive_observable, fam.amplitude, fam.frequency)


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([3, 4]),
       kind=st.sampled_from(["modulated", "thermal"]),
       xis=st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.6, 1.3]) | st.floats(-2.0, 2.0),
                    min_size=1, max_size=7))
def test_stacked_generators_are_the_batch_of_one(seed, d, kind, xis):
    rng = np.random.default_rng(seed)
    fam, baths = _stacked_case(kind, rng, d)
    h, gens = fam._generators(xis)
    assert len(gens) == len(xis)
    for j, (gen, one) in enumerate(zip(gens, [fam.generator_of(x) for x in xis])):
        assert _same(h[j], one.hamiltonian) and _same(gen.hamiltonian, one.hamiltonian)
        assert _same(gen._g, one._g)
        assert _same(schrodinger_super(gen), schrodinger_super(one))
        if kind == "thermal":
            for name in ("vals", "u", "rates", "row", "a", "b", "v"):
                assert _same(getattr(gen._record, name), getattr(one._record, name)), name
    # trajectories and their bookkeeping equal those of the per-value loop, bit for bit
    loop, rho0 = _loop_of(fam), DensityMatrix(random_state(rng, d))
    times = np.linspace(0.0, 0.1, 11)
    traj = evolve_driven(fam, rho0, times)
    for a, b in zip(traj.states, evolve_driven(loop, rho0, times).states):
        assert _same(a.matrix, b.matrix)
    assert repr(law_residuals(traj, fam, baths, grid_check=False)) == repr(
        law_residuals(traj, loop, baths, grid_check=False))


def _raised(call):
    """(class, message, sample) of what call() raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value), getattr(info.value, "sample", None)


_OVERFLOW = (np.diag([10.0, 0.0, -10.0]), 1e308, 0.01)  # (M, amplitude, Omega)
_ANTIHERMITIAN = (np.diag([0.0, 0.3, -0.2]) + 0.45e-12j * (np.eye(3, k=1) + np.eye(3, k=-1)),
                  2.0, 2.0)


def test_thermal_family_names_a_hamiltonian_whose_gaps_overflow():
    # H(1e307) = diag(1e308, 0.5, -1e308) is finite but its gap 2e308 is not:
    # the Davies record raises before hermitize or eigh could overflow (a bare
    # RuntimeWarning fails under the suite's warning filter)
    x = np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 1.0], [0.3, 1.0, 0.0]])
    fam = thermal_family(np.diag([0.0, 0.5, 1.0]), np.diag([10.0, 0.0, -10.0]),
                         [(x, 1.0, 1e-2, "bath")], 1e308, 0.01)
    message = "^hamiltonian: the Bohr-gap bound 2d max\\|H_kl\\| overflows$"
    with pytest.raises(NumericalDrift, match=message):
        fam.generator_of(1e307)
    # the midpoint xi = 2e306 passes the bound (1.2e308), the next, 6e306, does not
    with pytest.raises(NumericalDrift, match=message) as info:
        evolve_driven(fam, DensityMatrix(np.eye(3) / 3), [0.0, 4.0, 8.0])
    assert info.value.sample == 1


@pytest.mark.parametrize("kind", ["modulated", "thermal"])
@pytest.mark.parametrize("drive", ["overflow", "antihermitian"])
def test_stacked_families_fail_as_the_loop(kind, drive):
    # overflow: xi M overflows once |sin(Omega t)| > 0.18; Omega is small enough that
    # dH/dt = g Omega cos(Omega t) M stays finite.  antihermitian: M's defect 9e-13
    # is accepted, xi M's passes 1e-12 once |xi| > 1.11, halfway through the grid
    rng = np.random.default_rng(71)
    gen, beta = random_thermal_model(rng, 3)
    m, amplitude, omega = _OVERFLOW if drive == "overflow" else _ANTIHERMITIAN
    if kind == "modulated":
        slow = [LindbladTerm(t.jump, 1e-2 * t.rate, t.bath_label) for t in gen.terms]
        fam = modulated_family(GklsGenerator(gen.hamiltonian, slow), m, amplitude, omega)
    else:
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        fam = thermal_family(gen.hamiltonian, m, [(x + dag(x), beta, 1e-2, "bath")],
                             amplitude, omega)
    loop, baths = _loop_of(fam), [BathAssignment("bath", beta)]
    rho0 = DensityMatrix(random_state(rng, 3))
    # a step of at most 0.05 / Omega: the midpoints climb to the failing xi one by one
    times = np.linspace(0.0, 25.0 if drive == "overflow" else 1.0, 101)
    batch = _raised(lambda: evolve_driven(fam, rho0, times))
    assert batch[:2] == _raised(lambda: evolve_driven(loop, rho0, times))[:2]
    # the samples before the failing one have moderate xi (sin x = x for tiny x)
    times = np.array([0.0, 1e-307, 2e-307, 3e-307, 20.0, 30.0]) if drive == "overflow" \
        else np.linspace(0.0, 1.0, 101)
    traj = Trajectory(times, [rho0] * times.size)
    batch = _raised(lambda: law_residuals(traj, fam, baths))
    assert batch == _raised(lambda: law_residuals(traj, loop, baths))
    assert batch[0] is ShapeError
    if drive == "overflow":
        assert batch[1:] == ("hamiltonian has non-finite entries", 4)
    else:
        assert batch[1].startswith("hamiltonian hermiticity defect")
        assert abs(fam.xi(times[batch[2] - 1])) <= 1.11 < abs(fam.xi(times[batch[2]]))
    for f in (fam, loop):  # the builder names the first failing value as law_residuals does
        assert _raised(lambda: f._generators(fam.xi(times))) == batch


def _bordered_reference(mats, trace, tol):
    """Per system: (x, rcond) from np.linalg.norm and LAPACK on its own bordered copy, or
    the NonUniqueStationary message it raises."""
    out = []
    for s in mats:
        b = np.zeros(len(s), dtype=complex)
        b[0] = scale = float(np.linalg.norm(s, 1)) or 1.0
        a = np.array(s, dtype=complex, order="F")
        a[0] = scale * trace
        norm = np.linalg.norm(a, 1)
        lu, piv, info = lapack.zgetrf(a)
        inverse = lapack.zgecon(lu, norm)[0] * norm if info == 0 else 0.0
        rcond = float(inverse / norm) if np.isfinite([norm, inverse]).all() else np.nan
        if not rcond * (1.0 / tol.kernel_cut) >= 1:
            out.append(f"bordered stationary system: reciprocal condition estimate {rcond:.3e} "
                       f"below {1 / (1.0 / tol.kernel_cut):.1e}")
        else:
            out.append((lapack.zgetrs(lu, piv, b)[0], rcond))
    return out


@pytest.mark.parametrize("d, bad", [(1, None), (2, 3), (3, 5), (3, 0), (4, 6)])
def test_bordered_solve_matches_a_per_system_reference(monkeypatch, d, bad):
    # sub-stacks of 3 systems, so a failure's mark crosses their boundaries; an all-zero
    # system has scale 1 (unique only at d = 1), a NaN entry makes rcond NaN
    monkeypatch.setattr(gkls, "_ACTION_BYTES", 3 * 16 * d ** 4)
    rng = np.random.default_rng(80 + d)
    mats = [schrodinger_super(_two_bath_model(rng, d)) for _ in range(7)]
    mats[1] = np.zeros((d * d, d * d), dtype=complex)
    if bad is not None:
        mats[bad] = mats[bad].copy()
        mats[bad][-1, 1 % (d * d)] = np.nan
    stack, trace = np.array(mats), np.eye(d).ravel()
    ref = _bordered_reference(mats, trace, DEFAULT)
    first = next((j for j, r in enumerate(ref) if isinstance(r, str)), None)
    if first is None:
        x, _, rcond, _ = gkls._bordered_solve([stack], trace, DEFAULT)
        for j, (want_x, want_rcond) in enumerate(ref):
            assert _same(x[j], want_x) and rcond[j] == want_rcond
        return
    assert first == (min(1, bad) if d > 1 else bad)
    with pytest.raises(NonUniqueStationary) as info:
        gkls._bordered_solve([stack], trace, DEFAULT)
    assert (str(info.value), info.value.sample) == (ref[first], first)
    if bad is not None and d > 1:  # without the zero system, the NaN one raises, at its index
        keep = [j for j in range(7) if j != 1]
        with pytest.raises(NonUniqueStationary, match="estimate nan below") as info:
            gkls._bordered_solve([stack[keep]], trace, DEFAULT)
        assert (str(info.value), info.value.sample) == (ref[bad], keep.index(bad))
        good = [j for j in keep if j != bad]
        x, _, rcond, _ = gkls._bordered_solve([stack[good]], trace, DEFAULT)
        for j, i in enumerate(good):
            assert _same(x[j], ref[i][0]) and rcond[j] == ref[i][1]

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
