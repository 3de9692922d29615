"""Thermodynamic functionals: currents, entropy production, laws, ergotropy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindtherm import (
    DEFAULT,
    BathAssignment,
    DensityMatrix,
    GeneratorFamily,
    GklsGenerator,
    GridTooCoarse,
    IncompleteAssignment,
    LindbladTerm,
    LindthermError,
    NonUniqueStationary,
    NotStationary,
    ShapeError,
    SingularLogarithm,
    SupportError,
    Trajectory,
    basis_state,
    dag,
    entropy_production,
    ergotropy,
    evolve,
    evolve_driven,
    gibbs_state,
    heat_currents,
    hermitize,
    internal_energy,
    instantaneous_power,
    law_residuals,
    modulated_family,
    passive_state,
    relative_entropy,
    schrodinger_super,
    stationary_state,
    thermal_family,
    thermal_pair,
    unvec,
    vec,
    von_neumann_entropy,
)
from lindtherm.models.chem import coherent_state

from conftest import random_state, random_thermal_model, triangle_generator, unit

LN2 = np.log(2.0)

# two-level bath model with beta*omega = ln 2 and rates (1, 1/2); for the
# fully mixed state both sigma and -J evaluate to ln(2)/4 in closed form
SIGMA_HAND = LN2 / 4.0


def _hand_qubit():
    h = np.diag([0.0, LN2]).astype(complex)
    a = unit(0, 1, 2)
    terms = (LindbladTerm(a, 1.0, "b"), LindbladTerm(a.conj().T, 0.5, "b"))
    return GklsGenerator(h, terms)


def test_internal_energy_and_power():
    rho = np.diag([0.25, 0.75])
    h = np.diag([0.0, 2.0])
    assert abs(internal_energy(rho, h) - 1.5) < 1e-15
    # positive sign means work extracted; raising H costs work
    assert abs(instantaneous_power(rho, 0.5 * h) - (-0.75)) < 1e-15
    assert instantaneous_power(basis_state(2, 0), h) == 0.0


def test_heat_current_hand_value():
    gen = _hand_qubit()
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    rep = heat_currents(gen, [BathAssignment("b", 1.0)], rho)
    assert abs(rep.total - (-SIGMA_HAND)) < 1e-5
    assert abs(rep.per_bath["b"] - rep.total) < 1e-15


def test_heat_currents_split_by_bath():
    gen, baths = triangle_generator()
    rho = random_state(np.random.default_rng(31), 3)
    rep = heat_currents(gen, baths, rho)
    assert set(rep.per_bath) == {"cold", "hot"}
    assert abs(sum(rep.per_bath.values()) - rep.total) < 1e-12


def test_heat_currents_match_per_bath_superoperator():
    # J_b = tr(H L_b rho), with L_b assembled from bath b's terms alone
    gen, baths = triangle_generator()
    rho = random_state(np.random.default_rng(32), 3)
    rep = heat_currents(gen, baths, rho)
    h = gen.hamiltonian
    for bath in baths:
        own = tuple(t for t in gen.terms if t.bath_label == bath.bath_label)
        l_b = schrodinger_super(GklsGenerator(np.zeros_like(h), own))
        expected = np.trace(h @ unvec(l_b @ vec(rho))).real
        assert abs(rep.per_bath[bath.bath_label] - expected) < 1e-13


def test_heat_currents_incomplete_assignment():
    gen, _ = triangle_generator()
    rho = basis_state(3, 0)
    with pytest.raises(IncompleteAssignment):
        heat_currents(gen, [BathAssignment("cold", 1.0)], rho)


def test_entropy_production_hand_value():
    gen = _hand_qubit()
    rho = np.diag([0.5, 0.5])
    rho_bar = stationary_state(gen)
    # stationary state is diag(2/3, 1/3) for this rate pair
    assert np.allclose(rho_bar.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-10)
    sigma = entropy_production(gen, rho, rho_bar)
    assert abs(sigma - SIGMA_HAND) < 1e-5


def test_entropy_production_vanishes_at_stationarity():
    gen, _ = triangle_generator()
    rho_bar = stationary_state(gen)
    assert abs(entropy_production(gen, rho_bar, rho_bar)) < 1e-9


def test_entropy_production_rejects_wrong_reference():
    gen = _hand_qubit()
    with pytest.raises(NotStationary):
        entropy_production(gen, np.diag([0.5, 0.5]), basis_state(2, 0))


def test_entropy_production_nonnegative_sweep():
    rng = np.random.default_rng(32)
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        gen, _ = random_thermal_model(rng, dim)
        rho_bar = stationary_state(gen)
        rho = random_state(rng, dim)
        assert entropy_production(gen, rho, rho_bar) >= -1e-10


def test_entropies():
    assert abs(von_neumann_entropy(np.diag([0.5, 0.5])) - LN2) < 1e-14
    assert von_neumann_entropy(basis_state(2, 1)) < 1e-12
    assert relative_entropy(np.diag([0.3, 0.7]), np.diag([0.3, 0.7])) < 1e-12
    assert abs(relative_entropy(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])) - LN2) < 1e-10
    with pytest.raises(SupportError):
        relative_entropy(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))


def test_relative_entropy_nonnegative():
    rng = np.random.default_rng(33)
    for _ in range(6):
        a = random_state(rng, 3)
        b = random_state(rng, 3)
        assert relative_entropy(a, b) >= -1e-12


# --- law residuals --------------------------------------------------------------

def _driven_two_bath(dt, t_max):
    h0 = np.diag([0.0, 1.0]).astype(complex)
    m = np.diag([0.0, 0.3])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    fam = thermal_family(
        h0, m,
        [(sx, 2.0, 0.8, "cold"), (sx, 0.5, 0.6, "hot")],
        amplitude=0.4, frequency=2.0,
    )
    baths = [BathAssignment("cold", 2.0), BathAssignment("hot", 0.5)]
    rho0 = gibbs_state(h0, 2.0)
    n = int(round(t_max / dt))
    times = np.linspace(0.0, t_max, n + 1)
    traj = evolve_driven(fam, rho0, times)
    return traj, fam, baths


def test_law_residuals_converge():
    traj, fam, baths = _driven_two_bath(1e-3, 0.5)
    samples = law_residuals(traj, fam, baths)
    first = np.array([s.first_law_residual for s in samples])
    second = np.array([s.second_law_residual for s in samples])
    sigma = np.array([s.sigma for s in samples])
    assert np.max(np.abs(first[2:-2])) < 1e-4
    assert np.min(second[2:-2]) > -1e-6
    assert np.min(sigma) > -1e-10
    # halving the step shrinks the first-law residual by the expected factor
    traj2, fam2, baths2 = _driven_two_bath(5e-4, 0.5)
    first2 = [abs(s.first_law_residual) for s in law_residuals(traj2, fam2, baths2)]
    assert max(first2[2:-2]) < max(np.abs(first[2:-2])) / 3.5


def test_law_residuals_grid_too_coarse():
    # accurate trajectory, then a readout grid with ~3 samples per drive
    # period: the aliased derivative cannot converge under halving
    from lindtherm import modulated_family

    h0 = np.diag([0.0, 1.0]).astype(complex)
    gen0 = GklsGenerator(h0, tuple(thermal_pair(unit(0, 1, 2), 0.6, 1.0, 1.0, "b")))
    fam = modulated_family(gen0, np.diag([0.0, 0.3]), amplitude=0.4, frequency=20.0)
    rho0 = gibbs_state(h0, 1.0)
    times = np.linspace(0.0, 2.0, 801)
    traj = evolve_driven(fam, rho0, times)
    sub = Trajectory(traj.times[::80], traj.states[::80])
    with pytest.raises(GridTooCoarse):
        law_residuals(sub, fam, [BathAssignment("b", 1.0)])


def test_thermo_sample_fields():
    traj, fam, baths = _driven_two_bath(1e-3, 0.02)
    samples = law_residuals(traj, fam, baths, grid_check=False)
    s = samples[0]
    assert s.time == 0.0
    assert set(s.currents) == {"cold", "hot"}
    assert np.isfinite(s.energy) and np.isfinite(s.entropy)


# --- the stacked grid against the per-sample functions ---------------------------

def _per_sample(traj, family, baths, tol=DEFAULT):
    """The loop that law_residuals evaluates as one batch: the public per-state functions."""
    ness, rows = {}, []
    g, om = family.amplitude, family.frequency
    for t, rho in zip(traj.times, traj.states):
        xi = family.xi(t)
        gen = family.generator_of(xi)
        u = internal_energy(rho, gen.hamiltonian)
        p = instantaneous_power(rho, g * om * np.cos(om * t) * family.drive_observable)
        rep = heat_currents(gen, baths, rho)
        s = von_neumann_entropy(rho)
        key = round(float(xi), 14)
        if key not in ness:
            ness[key] = stationary_state(gen, tol)
        rows.append((u, p, rep.per_bath, rep.total, s, entropy_production(gen, rho, ness[key], tol)))
    return rows


def _grid_case(kind, d, seed):
    """(trajectory, family, baths) of a static, modulated or two-bath thermal family."""
    rng = np.random.default_rng(seed)
    gen, beta = random_thermal_model(rng, d)
    m = np.diag(rng.uniform(-0.5, 0.5, d))
    rho0 = DensityMatrix(random_state(rng, d))
    times = np.linspace(0.0, 0.1, 11)
    baths = [BathAssignment("bath", beta)]
    if kind == "static":
        fam = GeneratorFamily(lambda xi: gen, np.zeros((d, d)), 0.0, 1.0)
        return evolve(gen, rho0, times), fam, baths
    if kind == "modulated":
        fam = modulated_family(gen, m, 0.3, 2.0)
    else:
        x, y = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in "xy")
        fam = thermal_family(gen.hamiltonian, m, [(x + dag(x), 2.0, 0.6, "cold"),
                                                  (y + dag(y), 0.5, 0.5, "hot")], 0.3, 2.0)
        baths = [BathAssignment("cold", 2.0), BathAssignment("hot", 0.5)]
    return evolve_driven(fam, rho0, times), fam, baths


def _assert_matches_loop(traj, fam, baths):
    samples = law_residuals(traj, fam, baths, grid_check=False)
    rows = _per_sample(traj, fam, baths)
    assert len(samples) == len(rows)
    for sample, (u, p, per_bath, total, s, sigma) in zip(samples, rows):
        assert list(sample.currents) == list(per_bath)
        pairs = [(sample.energy, u), (sample.power, p), (sample.current_total, total),
                 (sample.entropy, s), (sample.sigma, sigma)]
        for got, want in pairs + [(sample.currents[k], v) for k, v in per_bath.items()]:
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize("kind", ["static", "modulated", "thermal"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_law_residuals_matches_the_sample_loop(kind, d):
    _assert_matches_loop(*_grid_case(kind, d, 100 + d))


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([2, 3, 4]),
       kind=st.sampled_from(["static", "modulated", "thermal"]))
def test_law_residuals_matches_the_sample_loop_on_drawn_models(seed, d, kind):
    _assert_matches_loop(*_grid_case(kind, d, seed))


def _raises_as_the_loop(traj, fam, baths):
    """The error law_residuals raises, checked to be the loop's, class and message."""
    with pytest.raises(LindthermError) as loop:
        _per_sample(traj, fam, baths)
    with pytest.raises(LindthermError) as batch:
        law_residuals(traj, fam, baths)
    assert type(batch.value) is type(loop.value)
    assert str(batch.value) == str(loop.value)
    return batch.value


def test_law_residuals_jump_free_model_has_no_unique_stationary_state():
    gen = GklsGenerator(np.diag([0.0, 1.0]), ())
    fam = GeneratorFamily(lambda xi: gen, np.zeros((2, 2)), 0.0, 1.0)
    traj = evolve(gen, DensityMatrix(random_state(np.random.default_rng(51), 2)),
                  np.linspace(0.0, 0.1, 11))
    assert isinstance(_raises_as_the_loop(traj, fam, []), NonUniqueStationary)


def test_law_residuals_names_a_pure_state_sample():
    traj, fam, baths = _grid_case("modulated", 3, 52)
    states = list(traj.states)
    states[4] = basis_state(3, 0)
    err = _raises_as_the_loop(Trajectory(traj.times, states), fam, baths)
    assert isinstance(err, SingularLogarithm)
    assert str(err).startswith("state has eigenvalue")


@pytest.mark.parametrize("pure, error", [(2, SingularLogarithm), (10, NonUniqueStationary)])
def test_law_residuals_reports_the_first_failing_sample(pure, error):
    # from sample 8 on (xi > 0.2) the generator has no jumps, so its stationary
    # state is not unique; the pure state fails sigma's logarithm check
    # at its own sample: the earlier of the two failures is raised
    rng = np.random.default_rng(53)
    gen, beta = random_thermal_model(rng, 3)
    bare = GklsGenerator(gen.hamiltonian, ())
    fam = GeneratorFamily(lambda xi: bare if xi > 0.2 else gen, np.diag([0.0, 0.1, 0.3]),
                          0.3, 2.0)
    states = [DensityMatrix(random_state(rng, 3)) for _ in range(11)]
    states[pure] = basis_state(3, 1)
    traj = Trajectory(np.linspace(0.0, 0.5, 11), states)
    assert isinstance(_raises_as_the_loop(traj, fam, [BathAssignment("bath", beta)]), error)


def test_law_residuals_names_an_overflowing_drive_derivative():
    # dH/dt = g Omega cos(Omega t) M overflows (g Omega = 2e308) while xi M
    # stays finite at every sample (|xi| <= 0.02): a named error, not a bare
    # RuntimeWarning, which the suite's warning filter would fail on
    rng = np.random.default_rng(54)
    gen, beta = random_thermal_model(rng, 3)
    fam = modulated_family(gen, np.diag([10.0, 0.0, -10.0]), 1e308, 2.0)
    rho = DensityMatrix(random_state(rng, 3))
    traj = Trajectory(np.array([0.0, 1e-310, 2e-310]), [rho] * 3)
    with pytest.raises(ShapeError, match="^dH/dt has non-finite entries$") as info:
        law_residuals(traj, fam, [BathAssignment("bath", beta)])
    assert info.value.sample == 0


# --- passivity and ergotropy ------------------------------------------------------

def test_passive_state_and_ergotropy_hand_case():
    h = np.diag([0.0, 1.0])
    rho = np.diag([0.2, 0.8])
    p = passive_state(rho, h)
    assert np.allclose(p.matrix, np.diag([0.8, 0.2]), atol=1e-14)
    assert ergotropy(rho, h) == pytest.approx(0.6, abs=1e-14)


def test_ergotropy_gibbs_is_exactly_zero():
    h = np.diag([0.0, 0.7, 1.9])
    rho = gibbs_state(h, 1.3)
    assert ergotropy(rho, h) == 0.0


def test_passive_floor_is_unitarily_invariant():
    # the passive state's energy depends only on the spectrum, so any
    # unitary kick changes the ergotropy by exactly the energy it injects
    rng = np.random.default_rng(34)
    h = np.diag([0.0, 1.0, 2.2])
    rho = random_state(rng, 3)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    rotated = u @ rho @ u.conj().T
    floor_a = internal_energy(passive_state(rho, h), h)
    floor_b = internal_energy(passive_state(rotated, h), h)
    assert abs(floor_a - floor_b) < 1e-12
    gap = internal_energy(rotated, h) - internal_energy(rho, h)
    assert abs(ergotropy(rotated, h) - ergotropy(rho, h) - gap) < 1e-12


@pytest.mark.parametrize("levels", [2, 5, 30, (0.0, 1.0, 1.0, 1.0, 2.5, 2.5)])
def test_ergotropy_matches_passive_state_energy(levels):
    # random non-diagonal Hamiltonians; the last one is degenerate
    rng = np.random.default_rng(35)
    if isinstance(levels, int):
        levels = rng.uniform(-2.0, 3.0, levels)
    d = len(levels)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    h = hermitize((u * np.asarray(levels)) @ u.conj().T)
    for _ in range(3):
        rho = random_state(rng, d)
        e = internal_energy(rho, h)
        ref = e - internal_energy(passive_state(rho, h), h)
        assert abs(ergotropy(rho, h) - ref) <= 1e-12 * (1.0 + abs(e))
        assert ref > 1e-3  # random states are far from passive


def test_ergotropy_coherent_state():
    dim = 30
    alpha = 2.0  # |alpha|^2 = 4
    h = np.diag(np.arange(dim, dtype=float))
    rho = coherent_state(alpha, dim)
    assert abs(ergotropy(rho, h) - 4.0) < 1e-6


def test_ergotropy_degenerate_spectrum():
    h = np.diag([0.0, 1.0, 1.0])
    rho = np.diag([0.1, 0.5, 0.4])
    # passive populations (0.5, 0.4, 0.1) give energy 0.5; state holds 0.9
    assert ergotropy(rho, h) == pytest.approx(0.4, abs=1e-12)


def test_ergotropy_real_state_takes_the_real_solver(monkeypatch):
    # a float64 state keeps its dtype into the eigensolver, and gives what
    # the complex route gives for the same matrix
    import lindtherm.thermo as thermo

    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(thermo.np.linalg, "eigvalsh",
                        lambda a: solved.append(a.dtype) or eigvalsh(a))
    rng = np.random.default_rng(37)
    for d in (2, 7, 40):
        x = rng.standard_normal((d, d))
        rho = x @ x.T + 1e-6 * np.eye(d)
        rho /= np.trace(rho)
        y = rng.standard_normal((d, d))
        for h in (np.diag(rng.uniform(-1.0, 2.0, d)), y + y.T):
            solved.clear()
            w_real = ergotropy(rho, h)
            assert solved[0] == np.float64
            solved.clear()
            w_complex = ergotropy(rho.astype(complex), h)
            assert solved[0] == np.complex128
            assert abs(w_real - w_complex) <= 1e-13 * (1.0 + abs(w_complex))
    with pytest.raises(ShapeError):
        ergotropy(np.ones(3), np.eye(3))
    with pytest.raises(ShapeError):
        ergotropy(np.ones((2, 3)), np.eye(2))


def test_ergotropy_diagonal_hamiltonian_matches_eigensolver_route():
    # a diagonal H takes its levels by a sort; unsorted, negative and
    # degenerate entries must give what the eigensolver gives
    rng = np.random.default_rng(36)
    h = np.diag([1.5, -0.7, 0.0, 1.5, -2.25, 0.3, -0.7, 4.0]).astype(complex)
    for _ in range(3):
        rho = random_state(rng, h.shape[0])
        populations = np.linalg.eigvalsh(hermitize(rho))[::-1]
        levels = np.linalg.eigvalsh(hermitize(h))
        ref = internal_energy(rho, h) - float(np.dot(populations, levels))
        assert ref > 1e-3
        assert abs(ergotropy(rho, h) - ref) <= 1e-13
