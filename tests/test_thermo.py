"""Thermodynamic functionals: currents, entropy production, laws, ergotropy."""

import numpy as np
import pytest

from lindtherm import (
    BathAssignment,
    DensityMatrix,
    GklsGenerator,
    GridTooCoarse,
    IncompleteAssignment,
    LindbladTerm,
    NotStationary,
    SupportError,
    Trajectory,
    basis_state,
    entropy_production,
    ergotropy,
    evolve_driven,
    gibbs_state,
    heat_currents,
    hermitize,
    internal_energy,
    instantaneous_power,
    law_residuals,
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
