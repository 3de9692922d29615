"""Driven-oscillator growth laws, band evolver, and the classical replicator."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

import lindtherm.models.chem as chem
from lindtherm import (
    DensityMatrix,
    DetailedBalanceViolation,
    NotAState,
    NotAmplifying,
    NumericalDrift,
    ShapeError,
    Tolerances,
    TruncationOverflow,
    apply_schrodinger,
    basis_state,
    dag,
    ergotropy,
    evolve,
    gibbs_state,
    trace_distance,
)
from lindtherm.cli import main
from lindtherm.models.chem import (
    BirthDeathState,
    ChemSpec,
    Chemistry,
    analytic_amplitude,
    analytic_energy,
    birth_death_evolve,
    birth_death_mean,
    build_chem_generator,
    coherent_state,
    evolve_oscillator,
    gillespie_ensemble,
    storage_efficiency,
)

from conftest import random_state

ROOT = Path(__file__).resolve().parent.parent


# --- spec and chemistry --------------------------------------------------------

def test_spec_validation():
    with pytest.raises(Exception):
        ChemSpec(1.0, 0.5, 0.25, dim=1)
    with pytest.raises(ValueError):
        ChemSpec(1.0, -0.5, 0.25)
    for args in ((np.nan, 0.5, 0.25), (np.inf, 0.5, 0.25), (1.0, np.inf, 0.25),
                 (1.0, 0.5, np.nan)):
        with pytest.raises(ValueError):
            ChemSpec(*args)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["beta", "mu_a", "mu_b", "mu_c"])
def test_chemistry_rejects_non_finite_parameters(name, value):
    # a NaN would pass the detailed-balance comparison unnoticed
    values = dict(beta=0.5, mu_a=2.0, mu_b=1.5, mu_c=0.5)
    values[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ChemSpec(1.0, 0.25 * np.exp(1.0), 0.25, chemistry=Chemistry(**values))


def test_chemistry_constrains_rates():
    # omega=1 with potentials (2, 1.5, 0.5) releases 2 per reaction, so the
    # pump/loss ratio must be e^{2 beta}
    chem = Chemistry(beta=0.5, mu_a=2.0, mu_b=1.5, mu_c=0.5)
    gd = 0.25
    spec = ChemSpec(1.0, gd * np.exp(2.0 * 0.5), gd, chemistry=chem)
    assert spec.delta_g == pytest.approx(-2.0, abs=1e-14)
    with pytest.raises(DetailedBalanceViolation):
        ChemSpec(1.0, 0.5, gd, chemistry=chem)
    with pytest.raises(DetailedBalanceViolation):
        ChemSpec(1.0, 0.5, 0.0, chemistry=chem)


def test_coherent_state_moments():
    alpha = 1.5 - 0.5j
    dim = 40
    rho = coherent_state(alpha, dim)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    assert abs(np.trace(rho.matrix @ a) - alpha) < 1e-10
    n = dag(a) @ a
    assert abs(np.trace(rho.matrix @ n).real - abs(alpha) ** 2) < 1e-10
    assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-12


def test_generator_terms():
    spec = ChemSpec(1.0, 0.5, 0.25, decoherence=0.3, dim=8)
    gen = build_chem_generator(spec)
    assert len(gen.terms) == 3
    rates = sorted(t.rate for t in gen.terms)
    assert rates == [0.25, 0.5, 0.6]  # decoherence enters at 2 Gamma
    assert set(gen.bath_labels()) == {"chem", "decoherence"}


# --- closed forms ----------------------------------------------------------------

def test_analytic_energy_values():
    spec = ChemSpec(1.0, 0.5, 0.25)
    assert analytic_energy(spec, 3.0, 0.0) == pytest.approx(3.0)
    e1 = analytic_energy(spec, 0.0, 1.0)
    assert e1 == pytest.approx(2.0 * (np.exp(0.25) - 1.0), abs=1e-12)
    assert e1 == pytest.approx(0.5680508333754832, abs=1e-12)
    # equal rates reduce to linear growth
    flat = ChemSpec(2.0, 0.4, 0.4)
    assert analytic_energy(flat, 1.0, 3.0) == pytest.approx(1.0 + 2.0 * 0.4 * 3.0)
    # damped case approaches the thermal plateau
    damp = ChemSpec(1.0, 0.25, 0.75)
    assert analytic_energy(damp, 0.0, 60.0) == pytest.approx(0.5, abs=1e-9)


def test_analytic_amplitude_values():
    spec = ChemSpec(1.0, 0.45, 0.25)  # growth rate 0.2
    a1 = analytic_amplitude(spec, 2.0, 1.0)
    assert abs(abs(a1) - 2.0 * np.exp(0.1)) < 1e-14
    assert abs(np.angle(a1) - (-1.0)) < 1e-14
    assert analytic_amplitude(spec, 0.0, 5.0) == 0.0
    # decoherence beats the gain when Gamma > (gu-gd)/2
    damped = ChemSpec(1.0, 0.45, 0.25, decoherence=1.0)
    assert abs(analytic_amplitude(damped, 2.0, 3.0)) < 2.0 * np.exp(-2.0)


def test_storage_efficiency_formula():
    assert storage_efficiency(3.0, 1.0, 0.5) == pytest.approx(9.0 / 11.0, abs=1e-14)
    assert storage_efficiency(0.0, 1.0, 0.5) == 0.0
    assert storage_efficiency(100.0, 1.0, 0.5) > 0.999
    with pytest.raises(NotAmplifying):
        storage_efficiency(3.0, 0.5, 0.5)
    with pytest.raises(NotAmplifying):
        storage_efficiency(3.0, 0.25, 0.5)


# --- band evolver vs dense superoperator ------------------------------------------

@pytest.mark.parametrize("decoherence", [0.0, 0.3])
def test_band_evolver_matches_superoperator(decoherence):
    spec = ChemSpec(1.0, 0.5, 0.25, decoherence=decoherence, dim=30)
    gen = build_chem_generator(spec)
    rng = np.random.default_rng(51)
    # a damped random state keeps the truncation guard quiet
    raw = random_state(rng, 30)
    w = np.exp(-0.45 * np.arange(30))
    damped = raw * np.outer(w, w)
    damped /= np.trace(damped).real
    times = np.linspace(0.0, 0.6, 7)
    for rho0 in (coherent_state(1.0, 30), DensityMatrix(damped)):
        traj_band = evolve_oscillator(spec, rho0, times)
        traj_dense = evolve(gen, rho0, times)
        for sb, sd in zip(traj_band.states, traj_dense.states):
            assert trace_distance(sb, sd) < 1e-12
        n = np.arange(30.0)
        for i, sd in enumerate(traj_dense.states):
            e = float(np.dot(n, np.diag(sd.matrix).real))
            assert abs(traj_band.energies[i] - e) < 1e-12


@pytest.mark.parametrize("dim", [2, 7, 60])
def test_dense_matches_per_band_loop(dim):
    rng = np.random.default_rng(dim)
    size = dim * (dim + 1) // 2
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    ab = np.zeros((dim, dim), dtype=complex)  # LAPACK lower band storage
    ref = np.zeros((dim, dim), dtype=complex)
    start = 0
    for k in range(dim):
        band = v[start: start + dim - k]
        start += dim - k
        ab[k, : dim - k] = band
        n = np.arange(dim - k)
        ref[n + k, n] = band
        if k > 0:
            ref[n, n + k] = band.conj()
    got = chem._dense(ab, np.arange(dim))
    assert np.array_equal(got.view(float), ref.view(float))
    kept = np.arange(0, dim, 3)  # every third band; the others are zero
    in_kept = np.isin(np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))), kept)
    got = chem._dense(ab[kept], kept)
    assert np.array_equal(got.view(float), np.where(in_kept, ref, 0.0).view(float))


@pytest.mark.parametrize("is_complex", [False, True])
def test_dense_is_bitwise_the_dia_array_reference(is_complex):
    # bands with gaps, exact zeros of either sign and stored values past each
    # band's end, which the DIA layout ignores
    rng = np.random.default_rng(17)
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)] if is_complex else [0.0, -0.0]
    for dim in (1, 2, 5, 9):
        for _ in range(10):
            rows = np.union1d([0], rng.choice(dim, rng.integers(1, dim + 1), replace=False))
            bands = rng.standard_normal((rows.size, dim))
            if is_complex:
                bands = bands + 1j * rng.standard_normal((rows.size, dim))
            hit = rng.random(bands.shape) < 0.3
            bands[hit] = rng.choice(zeros, hit.sum())
            low = sp.dia_array((bands, -rows), shape=(dim, dim)).toarray()
            ref = low + low.conj().T
            np.fill_diagonal(ref, bands[0])
            got = chem._dense(bands, rows)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_two_level_diagonal_start_matches_dense_evolution():
    # one kept band of two entries: the tridiagonal size scipy's dgttrf
    # wrapper rejects
    spec = ChemSpec(1.0, 0.5, 0.25, dim=2)
    rho0 = DensityMatrix(np.diag([1.0, 0.0]))
    times = np.linspace(0.0, 0.1, 3)
    band = evolve_oscillator(spec, rho0, times, guard=1.0)
    dense = evolve(build_chem_generator(spec), rho0, times)
    for sb, sd in zip(band.states, dense.states):
        assert trace_distance(sb, sd) < 1e-12


def test_band_evolver_non_uniform_grid():
    spec = ChemSpec(1.3, 0.5, 0.25, dim=30)
    gen = build_chem_generator(spec)
    rho0 = coherent_state(0.8, 30)
    times = np.array([0.0, 0.1, 0.35, 0.4, 0.9])
    a = evolve_oscillator(spec, rho0, times)
    b = evolve(gen, rho0, times)
    for sa, sb in zip(a.states, b.states):
        assert trace_distance(sa, sb) < 1e-12



@pytest.mark.parametrize("times", [
    np.linspace(0.0, 2.0, 41),
    np.array([0.0, 0.01, 0.05, 0.3, 0.31, 1.0, 1.7, 2.0]),
], ids=["uniform", "non-uniform"])
def test_krylov_band_propagation_matches_expm_multiply(monkeypatch, times):
    dim = 200
    spec = ChemSpec(1.0, 0.5, 0.25, decoherence=0.1, dim=dim)
    calls = []
    inner = chem.expm_multiply

    def spy(sub, diag, sup, v0, tau):
        out = inner(sub, diag, sup, v0, tau)
        calls.append((sub, diag, sup, v0, tau, out))
        return out

    monkeypatch.setattr(chem, "expm_multiply", spy)
    evolve_oscillator(spec, coherent_state(1.5 + 1.0j, dim), times)
    (sub, diag, sup, v0, tau, out), = calls
    assert np.iscomplexobj(out) and np.array_equal(tau, times - times[0])
    gen = sp.diags([sub, diag, sup], [-1, 0, 1], format="csr")
    # reference: scipy's Taylor-series propagator, stepped from sample to sample
    ref = [v0]
    for step in np.diff(tau):
        ref.append(expm_multiply(gen * step, ref[-1]))
    ref = np.array(ref)
    rel = np.linalg.norm(out - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert rel.max() < 1e-12
    assert np.array_equal(out[0], v0)  # the t0 row is the initial bands, bitwise


def test_band_evolver_huge_span_raises_numerical_drift():
    spec = ChemSpec(1.0, 0.5, 0.25, dim=30)
    with pytest.raises(NumericalDrift):
        evolve_oscillator(spec, coherent_state(1.0, 30), [0.0, 1e200])


def test_krylov_basis_cap_raises_numerical_drift(monkeypatch):
    # gate 07's run needs about 40 basis vectors; at a cap of 10 the error
    # estimate is still far above its tolerance
    monkeypatch.setattr(chem, "_KRYLOV_CAP", 10)
    spec = ChemSpec(1.0, 0.5, 0.25, dim=60)
    with pytest.raises(NumericalDrift, match="after 10 basis vectors"):
        evolve_oscillator(spec, coherent_state(1.0, 60), np.linspace(0.0, 2.5, 26))


def test_krylov_target_follows_the_generator_norm(monkeypatch):
    # strong decoherence makes eps ||A|| span far larger than 1e-14: no route
    # gets the samples closer than that, so the basis stops growing there
    times = np.linspace(0.0, 1.0, 61)
    spec = ChemSpec(1.0, 0.6, 0.5, decoherence=200.0, dim=30)
    rho0 = coherent_state(1.0, 30)
    band = evolve_oscillator(spec, rho0, times)
    dense = evolve(build_chem_generator(spec), rho0, times)
    assert max(trace_distance(a, b) for a, b in zip(band.states, dense.states)) < 1e-11
    spec = ChemSpec(1.0, 0.6, 0.5, decoherence=500.0, dim=100)
    traj = evolve_oscillator(spec, coherent_state(2.0, 100), times)
    ref = analytic_energy(spec, traj.energies[0], times)
    assert np.max(np.abs(traj.energies - ref) / (1.0 + ref)) < 1e-6
    monkeypatch.setattr(chem, "_KRYLOV_CAP", 10)  # the cap error names the target
    with pytest.raises(NumericalDrift, match=r"above 2\.1e-10 after 10 basis vectors"):
        evolve_oscillator(spec, coherent_state(2.0, 100), times)


def _with_coherence(populations, eps, n, k):
    """Raw matrix diag(populations) + eps (|n><n+k| + |n+k><n|)."""
    rho = np.diag(populations).astype(complex)
    rho[n, n + k] = rho[n + k, n] = eps
    return rho


def test_negligible_band_is_frozen_at_zero():
    spec = ChemSpec(1.0, 0.5, 0.25, dim=20)
    traj = evolve_oscillator(
        spec, _with_coherence(np.eye(20)[2], 1e-30, 0, 3), np.linspace(0.0, 0.5, 5)
    )
    for st in traj.states:
        assert np.all(np.diagonal(st.matrix, 3) == 0.0)


@pytest.mark.parametrize("case", [
    # (gamma_up, gamma_down, {level: population}, eps, n): the coherence sits
    # at the first (n = 0) or the last (n = 16) entry of band 3; pure decay
    # keeps the second case's top-level population under the guard
    (0.5, 0.25, {0: 0.25, 2: 0.5, 3: 0.25}, 1e-3, 0),
    (0.0, 0.5, {16: 1.0 - 5e-9, 19: 5e-9}, 1e-5, 16),
], ids=["first-entry", "last-entry"])
def test_weak_coherence_band_matches_dense_evolution(case):
    gu, gd, levels, eps, n = case
    spec = ChemSpec(1.0, gu, gd, decoherence=0.2, dim=20)
    pops = np.zeros(20)
    pops[list(levels)] = list(levels.values())
    rho0 = DensityMatrix(_with_coherence(pops, eps, n, 3))
    times = np.linspace(0.0, 0.5, 5)
    band = evolve_oscillator(spec, rho0, times)
    dense = evolve(build_chem_generator(spec), rho0, times)
    for sb, sd in zip(band.states, dense.states):
        assert trace_distance(sb, sd) < 1e-12
    assert np.all(np.abs(np.diagonal(band.states[-1].matrix, 3)) > 0.0)


def test_gapped_state_propagates_only_its_bands(monkeypatch):
    # (|0> + |10>)/sqrt 2 has bands 0 and 10 only: the Krylov vector holds
    # those two rows of the band storage, not the eleven rows 0 ... 10
    dim = 30
    psi = np.zeros(dim)
    psi[[0, 10]] = np.sqrt(0.5)
    rho0 = DensityMatrix(np.outer(psi, psi))
    spec = ChemSpec(1.0, 0.1, 0.3, decoherence=0.05, dim=dim)
    sizes = []
    inner = chem.expm_multiply

    def spy(sub, diag, sup, v0, tau):
        sizes.append(v0.size)
        return inner(sub, diag, sup, v0, tau)

    monkeypatch.setattr(chem, "expm_multiply", spy)
    times = np.linspace(0.0, 0.5, 5)
    band = evolve_oscillator(spec, rho0, times)
    assert sizes == [2 * dim]
    dense = evolve(build_chem_generator(spec), rho0, times)
    for sb, sd in zip(band.states, dense.states):
        assert trace_distance(sb, sd) < 1e-12
        assert np.all(np.diagonal(sb.matrix, 4) == 0.0)


def test_band_freeze_counts_worst_case_growth():
    # The evolver freezes band k when |band_k(0)| exp(mu_k span) < 1e-15 ||v0||,
    # mu_k the Gershgorin bound of the symmetric part of the band's real
    # dynamics, read here off the generator's action on matrix units.  Band 3
    # starts just below that floor but its bound reaches it, so it must be
    # propagated; band 5 stays below even after its bound, so it stays zero.
    dim, span = 45, 1.0
    spec = ChemSpec(1.0, 1.0, 0.0, dim=dim)
    gen = build_chem_generator(spec)

    def growth(k):
        n = np.arange(dim - k)
        cols = []
        for j in n:
            unit = np.zeros((dim, dim))
            unit[j, j + k] = 1.0
            cols.append(apply_schrodinger(gen, unit)[n, n + k].real)
        sym = 0.5 * (np.array(cols) + np.array(cols).T)
        radius = np.abs(sym).sum(axis=1) - np.abs(np.diag(sym))
        return np.exp(max(float(np.max(np.diag(sym) + radius)), 0.0) * span)

    g3, g5 = growth(3), growth(5)
    assert g3 > 1.2 and g5 > 1.2
    rho0 = _with_coherence(np.eye(dim)[0], 0.5e-15 * (1.0 + 1.0 / g3), 0, 3)
    rho0[0, 5] = rho0[5, 0] = 0.5e-15 / g5
    traj = evolve_oscillator(spec, rho0, np.linspace(0.0, span, 3))
    assert np.all(np.diagonal(traj.states[-1].matrix, 3) != 0.0)
    for st in traj.states:
        assert np.all(np.diagonal(st.matrix, 5) == 0.0)


def test_amplitude_tracks_closed_form():
    spec = ChemSpec(1.0, 0.5, 0.25, dim=60)
    times = np.linspace(0.0, 2.0, 21)
    traj = evolve_oscillator(spec, coherent_state(1.0, 60), times)
    ref = analytic_amplitude(spec, 1.0, times)
    assert np.max(np.abs(traj.amplitudes - ref)) < 1e-7


def test_decoherence_only_preserves_energy_and_kills_amplitude():
    spec = ChemSpec(1.0, 0.0, 0.0, decoherence=0.8, dim=30)
    times = np.linspace(0.0, 2.0, 9)
    traj = evolve_oscillator(spec, coherent_state(1.2, 30), times)
    assert np.max(np.abs(traj.energies - traj.energies[0])) < 1e-10
    ref = analytic_amplitude(spec, 1.2, times)
    assert np.max(np.abs(traj.amplitudes - ref)) < 1e-8


def test_gibbs_diagonal_stays_diagonal():
    spec = ChemSpec(1.0, 0.25, 0.75, dim=25)
    gen = build_chem_generator(spec)
    rho0 = gibbs_state(gen.hamiltonian, np.log(3.0))  # ratio gu/gd = e^{-beta}
    times = np.linspace(0.0, 3.0, 7)
    traj = evolve_oscillator(spec, rho0, times)
    for st in traj.states:
        off = st.matrix - np.diag(np.diag(st.matrix))
        assert np.linalg.norm(off) < 1e-12
    # and that Gibbs ratio is in fact stationary for these rates
    assert trace_distance(traj.states[-1], rho0) < 1e-10


def test_fock_state_has_zero_amplitude():
    spec = ChemSpec(1.0, 0.5, 0.25, dim=20)
    traj = evolve_oscillator(spec, basis_state(20, 3), np.linspace(0.0, 0.5, 5))
    assert np.max(np.abs(traj.amplitudes)) == 0.0


def test_ergotropy_window_tracks_coherent_energy():
    spec = ChemSpec(1.0, 0.5, 0.25, dim=60)
    times = np.linspace(0.0, 2.0, 9)
    traj = evolve_oscillator(spec, coherent_state(1.0, 60), times)
    h = np.diag(np.arange(60.0))
    for i, st in enumerate(traj.states):
        w = ergotropy(st, h)
        assert abs(w - abs(traj.amplitudes[i]) ** 2) < 1e-4


@pytest.fixture
def block_sizes(monkeypatch):
    """Sizes of the leading blocks that ``ChemTrajectory.ergotropy`` solves."""
    sizes = []
    leading_block = chem._leading_block

    def spy(*args):
        sizes.append(leading_block(*args))
        return sizes[-1]

    monkeypatch.setattr(chem, "_leading_block", spy)
    return sizes


@pytest.mark.parametrize("omega, dim, alpha, decoherence, t_max, truncated, uncut", [
    (1.3, 60, 1.5, 0.0, 1.0, False, False),
    (1.3, 60, 1.5 * np.exp(0.7j), 0.0, 1.0, False, False),
    (1.3, 60, 1.5, 0.3, 1.0, False, False),
    (1.3, 12, 1.0, 0.0, 4.0, True, True),
    (-1.3, 60, 1.5, 0.0, 1.0, False, False),
    (1.3, 12, 0.8, 0.0, 0.08, False, True),
], ids=["real", "complex", "decoherence", "truncated", "negative_omega", "pumped_to_top"])
def test_trajectory_ergotropy_matches_lab_frame_states(block_sizes, omega, dim, alpha,
                                                       decoherence, t_max, truncated, uncut):
    # the co-rotating matrix has the lab-frame energy and spectrum, so its
    # ergotropy is the one of the validated lab-frame state; a state with
    # mass up to the top level is solved whole, with no block cut
    spec = ChemSpec(omega, 0.5, 0.25, decoherence=decoherence, dim=dim)
    times = np.linspace(0.0, t_max, 17)
    traj = evolve_oscillator(spec, coherent_state(alpha, dim), times, on_overflow="truncate")
    assert traj.truncated == truncated
    h = np.diag(spec.omega * np.arange(float(dim)))
    for i in [*range(len(traj.states)), -1]:
        ref = ergotropy(traj.states[i], h)
        assert abs(traj.ergotropy(i) - ref) <= 1e-12 * (1.0 + ref)
    assert len(block_sizes) == len(traj.states) + 1
    assert (min(block_sizes) == dim) == uncut
    assert traj.ergotropy(-1) == traj.ergotropy(len(traj.states) - 1)
    with pytest.raises(IndexError):  # a truncated run keeps only its valid samples
        traj.ergotropy(len(traj.states))


def test_trajectory_ergotropy_cuts_a_leading_block(block_sizes):
    # an alpha = 3 start at dim 600 holds its mass in the first ~70 levels,
    # so the eigensolver sees only a leading block of the samples
    spec = ChemSpec(1.0, 0.5, 0.25, decoherence=0.05, dim=600)
    traj = evolve_oscillator(spec, coherent_state(3.0, 600), [0.0, 0.25])
    h = np.diag(np.arange(600.0))
    for i in range(2):
        # the co-rotating matrix: same spectrum and energy, real eigensolver
        ref = ergotropy(chem._dense(traj._bands[i], traj._rows), h)
        assert abs(traj.ergotropy(i) - ref) <= 1e-12 * (1.0 + ref)
    assert len(block_sizes) == 2 and max(block_sizes) < 600


def test_leading_block_keeps_mass_exactly_at_the_limit():
    # matrix rows 0..3 carry the masses 1/2, 1/4, 1/8 and 1/8 + 2 * 1/16
    # (rho[3, 2] counted with its mirror), so the left-out mass m(N) for
    # N = 0..4 is 9/8, 5/8, 3/8, 1/4, 0, all exact in binary
    bands = np.array([[0.5, 0.25, 0.125, 0.125], [0.0, 0.0, -0.0625, 0.0]])
    rows = np.array([0, 1])
    assert chem._leading_block(bands, rows, 3.0, 0.75) == 3  # 3 m(3) = 0.75
    assert chem._leading_block(bands, rows, 3.0, np.nextafter(0.75, 0.0)) == 4
    assert chem._leading_block(bands, rows, 3.0, 1.125) == 2
    assert chem._leading_block(bands, rows, 0.0, 0.0) == 0


def test_real_matrix_start_gives_the_density_matrix_bands():
    # a real initial matrix is read in float64, not through a complex copy,
    # and propagates to the same bands as the validated state
    spec = ChemSpec(1.0, 0.5, 0.25, decoherence=0.05, dim=60)
    psi = chem._coherent_amplitudes(2.0, 60).real
    rho0 = np.outer(psi, psi)
    times = np.linspace(0.0, 0.5, 5)
    plain = evolve_oscillator(spec, rho0, times)
    checked = evolve_oscillator(spec, DensityMatrix(rho0), times)
    assert plain._bands.dtype == np.float64
    assert np.array_equal(plain._rows, checked._rows)
    assert np.array_equal(plain._bands, checked._bands)


def test_states_read_like_a_tuple():
    spec = ChemSpec(1.3, 0.5, 0.25, decoherence=0.1, dim=40)
    traj = evolve_oscillator(spec, coherent_state(1.2 * np.exp(0.4j), 40),
                             np.linspace(0.0, 1.0, 6))
    states = traj.states
    ref = tuple(states)
    assert len(states) == len(ref) == 6
    assert all(isinstance(st, DensityMatrix) for st in ref)
    for i in (0, 3, -1, -6, np.int64(2)):
        assert np.array_equal(states[i].matrix, ref[i].matrix)
    for cut in (slice(1, 4), slice(None, None, -2), slice(10, 20)):
        got = states[cut]
        assert isinstance(got, tuple) and len(got) == len(ref[cut])
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(got, ref[cut]))
    for bad in (6, -7):
        with pytest.raises(IndexError):
            states[bad]
    with pytest.raises(TypeError):
        states[1.0]
    with pytest.raises(TypeError):
        states[0] = ref[0]


def test_evolver_rejects_bad_states(monkeypatch):
    # a non-positive or mis-normalized initial state is the caller's error,
    # NotAState; a propagated sample with a negative population fails its
    # banded factorization, and the spectrum then rejects it as drift
    spec = ChemSpec(1.0, 0.5, 0.25, dim=30)
    times = np.linspace(0.0, 0.5, 3)
    for diag, reason in (([1.2, -0.2], "minimum eigenvalue"), ([0.5], "trace deviates")):
        with pytest.raises(NotAState, match=reason):
            evolve_oscillator(spec, np.diag(diag + [0.0] * (30 - len(diag))), times)

    propagate = chem.expm_multiply

    def negative_population(sub, diag, sup, v0, tau):
        out = propagate(sub, diag, sup, v0, tau)
        out[2, 1] -= 0.5  # band 0 (the populations) opens each sample
        out[2, 2] += 0.5
        return out

    monkeypatch.setattr(chem, "expm_multiply", negative_population)
    with pytest.raises(NumericalDrift,
                       match=r"state invariant violated at t = 0\.5: minimum eigenvalue"):
        evolve_oscillator(spec, coherent_state(1.0, 30), times)


def test_evolver_rejects_non_hermitian_initial_matrix():
    # the evolver reads only the lower triangle, so it checks the mirror first
    rho0 = np.zeros((30, 30))
    rho0[0, 0] = rho0[1, 1] = 0.5
    rho0[0, 1], rho0[1, 0] = 0.3, -0.2
    with pytest.raises(NotAState, match="hermiticity defect 5.000e-01 exceeds"):
        evolve_oscillator(ChemSpec(1.0, 0.5, 0.25, dim=30), rho0, np.linspace(0.0, 0.5, 3))


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_band_certificate_matches_the_spectrum_at_the_boundary(is_complex):
    # banded states whose smallest eigenvalue sits just inside or just
    # outside -positivity: the banded Cholesky certifies exactly the states
    # DensityMatrix accepts
    d, width, positivity = 80, 6, 1e-8
    rng = np.random.default_rng(width)
    x = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if is_complex else 0.0)
    band = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) < width
    b = np.where(band, x + x.conj().T, 0.0)
    lo_b = np.linalg.eigvalsh(b)[0]
    tol = Tolerances().with_(positivity=positivity)
    for factor in (0.9, 0.99, 1.01, 1.1):
        low = -positivity * factor
        shift = (low * np.trace(b).real - lo_b) / (1.0 - low * d)
        rho = (b + shift * np.eye(d)) / (np.trace(b).real + shift * d)
        assert (np.linalg.eigvalsh(rho)[0] < -positivity) == (factor > 1.0)
        ab = np.array([np.append(np.diagonal(rho, -k), np.zeros(k)) for k in range(width)])
        certified = chem._band_certified(ab, np.arange(width), tol)
        assert certified == (factor < 1.0)
        if certified:
            DensityMatrix(rho, tol)
        else:
            with pytest.raises(NotAState, match="minimum eigenvalue"):
                DensityMatrix(rho, tol)


def test_overflow_raise_and_truncate():
    spec = ChemSpec(1.0, 0.5, 0.25, dim=12)
    times = np.linspace(0.0, 4.0, 17)
    with pytest.raises(TruncationOverflow):
        evolve_oscillator(spec, coherent_state(1.0, 12), times)
    traj = evolve_oscillator(spec, coherent_state(1.0, 12), times, on_overflow="truncate")
    assert traj.truncated
    assert traj.times.size < times.size
    assert traj.times.size == len(traj.states)
    assert np.all(traj.top_populations <= 1e-8)
    with pytest.raises(ValueError):
        evolve_oscillator(spec, coherent_state(1.0, 12), times, on_overflow="clip")


def test_initial_state_above_guard_rejected():
    spec = ChemSpec(1.0, 0.5, 0.25, dim=6)
    with pytest.raises(TruncationOverflow):
        evolve_oscillator(spec, coherent_state(2.0, 6), np.array([0.0, 0.1]))


def test_start_above_the_guard_is_rejected_before_propagation(monkeypatch):
    def never(*args):
        raise AssertionError("expm_multiply called")

    monkeypatch.setattr(chem, "expm_multiply", never)
    spec = ChemSpec(1.0, 0.5, 0.25, dim=6)
    for overflow in ("raise", "truncate"):
        with pytest.raises(TruncationOverflow, match="initial state already") as info:
            evolve_oscillator(spec, coherent_state(2.0, 6), np.linspace(0.0, 1.0, 5),
                              on_overflow=overflow)
        assert info.value.sample == 0


# --- classical replicator ------------------------------------------------------

def test_birth_death_state_validation():
    with pytest.raises(ValueError):
        BirthDeathState(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        BirthDeathState(np.array([1.1, -0.1]))
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError):
            BirthDeathState(np.array(bad), trace_slack=np.inf)
    with pytest.raises(ShapeError):
        BirthDeathState(np.ones((2, 2)) / 4.0)
    st = BirthDeathState(np.array([0.25, 0.75]))
    assert st.n_max == 1
    assert birth_death_mean(st) == 0.75


def test_birth_death_zero_rates_frozen():
    p0 = BirthDeathState(np.array([0.2, 0.5, 0.3, 0.0]))
    states = birth_death_evolve(p0, 0.0, 0.0, np.linspace(0.0, 2.0, 5))
    for st in states:
        assert np.allclose(st.probs, p0.probs, atol=1e-14)


def test_birth_death_pure_death_closed_form():
    n = 40
    p0 = np.zeros(n + 1)
    p0[1] = 1.0
    states = birth_death_evolve(BirthDeathState(p0), 0.0, 1.0, np.linspace(0.0, 1.0, 6))
    for st in states:
        assert abs(st.probs[1] - np.exp(-st.t)) < 1e-12
        assert abs(st.probs[0] - (1.0 - np.exp(-st.t))) < 1e-12


def test_birth_death_mean_law():
    # d<n>/dt = (gu - gd)<n> + gu, the classical face of the energy law
    gu, gd = 0.5, 0.25
    n = 70
    p0 = np.zeros(n + 1)
    p0[3] = 1.0
    times = np.linspace(0.0, 2.0, 41)
    states = birth_death_evolve(BirthDeathState(p0), gu, gd, times)
    means = np.array([birth_death_mean(s) for s in states])
    expected = (3.0 + gu / (gu - gd)) * np.exp((gu - gd) * times) - gu / (gu - gd)
    assert np.max(np.abs(means - expected)) < 1e-10


def test_birth_death_guard():
    p0 = np.zeros(5)
    p0[3] = 1.0
    with pytest.raises(TruncationOverflow):
        birth_death_evolve(BirthDeathState(p0), 1.0, 0.1, np.linspace(0.0, 5.0, 11))


def test_gillespie_deterministic_given_seed():
    t = np.linspace(0.0, 1.0, 5)
    a = gillespie_ensemble(2, 0.4, 0.3, t, trajectories=300, seed=7)
    b = gillespie_ensemble(2, 0.4, 0.3, t, trajectories=300, seed=7)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.extinction_fraction, b.extinction_fraction)
    c = gillespie_ensemble(2, 0.4, 0.3, t, trajectories=300, seed=8)
    assert not np.array_equal(a.mean, c.mean)


@pytest.mark.parametrize("rates", [(np.nan, 0.25), (0.5, np.inf), (-0.1, 0.25)])
def test_gillespie_rejects_bad_rates(rates):
    with pytest.raises(ValueError):
        gillespie_ensemble(2, *rates, np.linspace(0.0, 1.0, 5), trajectories=3, seed=1)


def test_gillespie_zero_rates_constant():
    t = np.linspace(0.0, 2.0, 5)
    stats = gillespie_ensemble(3, 0.0, 0.0, t, trajectories=50, seed=1)
    assert np.all(stats.mean == 3.0)
    assert np.all(stats.variance == 0.0)
    assert np.all(stats.extinction_fraction == 0.0)


def test_gillespie_pure_death_survival():
    # survival of a single molecule is Bernoulli(e^{-gd t}); compare at 3
    # binomial standard errors
    gd = 1.0
    t = np.array([0.0, 0.5, 1.0])
    n_traj = 10_000
    stats = gillespie_ensemble(1, 0.0, gd, t, trajectories=n_traj, seed=99)
    for i, ti in enumerate(t):
        p = np.exp(-gd * ti)
        se = np.sqrt(p * (1.0 - p) / n_traj)
        assert abs((1.0 - stats.extinction_fraction[i]) - p) <= max(3.0 * se, 1e-12)


def test_gillespie_matches_ode_mean():
    gu, gd = 0.5, 0.25
    t = np.linspace(0.0, 2.0, 5)
    n_traj = 4000
    stats = gillespie_ensemble(3, gu, gd, t, trajectories=n_traj, seed=12)
    n = 80
    p0 = np.zeros(n + 1)
    p0[3] = 1.0
    states = birth_death_evolve(BirthDeathState(p0), gu, gd, t)
    for i in range(t.size):
        ode = birth_death_mean(states[i])
        if stats.stderr[i] > 0:
            assert abs(stats.mean[i] - ode) <= 3.0 * stats.stderr[i]


def _master_moments(n0, gu, gd, t, n_max=200):
    p0 = np.zeros(n_max + 1)
    p0[n0] = 1.0
    ns = np.arange(n_max + 1.0)
    states = birth_death_evolve(BirthDeathState(p0), gu, gd, t)
    mean = np.array([birth_death_mean(s) for s in states])
    return mean, np.array([np.dot(ns * ns, s.probs) for s in states]) - mean * mean


def test_gillespie_variance_matches_master_equation():
    # the relative error of a sample variance here is about 0.5 %, so 3 %
    # is roughly 7 sigma
    t = np.linspace(0.0, 1.5, 7)
    stats = gillespie_ensemble(2, 0.5, 0.25, t, trajectories=200_000, seed=31)
    _, var = _master_moments(2, 0.5, 0.25, t)
    assert stats.variance[0] == 0.0
    assert np.all(np.abs(stats.variance[1:] / var[1:] - 1.0) < 0.03)


def test_gillespie_two_blocks_deterministic_and_unbiased():
    t = np.linspace(0.0, 1.0, 5)
    n_traj = chem._GILLESPIE_BLOCK + 1
    a = gillespie_ensemble(2, 0.5, 0.25, t, trajectories=n_traj, seed=4)
    b = gillespie_ensemble(2, 0.5, 0.25, t, trajectories=n_traj, seed=4)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)
    assert np.array_equal(a.extinction_fraction, b.extinction_fraction)
    mean, _ = _master_moments(2, 0.5, 0.25, t)
    assert a.mean[0] == 2.0
    assert np.all(np.abs(a.mean[1:] - mean[1:]) <= 3.0 * a.stderr[1:])


def test_gillespie_zero_rate_state_is_absorbing():
    t = np.linspace(0.0, 6.0, 7)
    stats = gillespie_ensemble(0, 0.0, 1.0, t, trajectories=100, seed=2)
    assert np.all(stats.mean == 0.0)
    assert np.all(stats.extinction_fraction == 1.0)
    # pure death: extinct trajectories stay at 0, so the extinct share never falls
    stats = gillespie_ensemble(2, 0.0, 1.0, t, trajectories=2000, seed=2)
    assert np.all(np.diff(stats.extinction_fraction) >= 0.0)
    assert stats.extinction_fraction[0] == 0.0
    assert stats.extinction_fraction[-1] > 0.95
    assert np.all(np.diff(stats.mean) <= 0.0)


def test_gillespie_overflowing_rate_raises_drift():
    # a subprocess with a timeout: gamma_up (n + 1) overflowing to inf once
    # made every wait 0 and the sampler never returned
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from lindtherm import NumericalDrift\n"
        "from lindtherm.models.chem import gillespie_ensemble\n"
        "try:\n"
        "    gillespie_ensemble(2, 1e308, 0.25, np.linspace(0.0, 1.0, 5), 3, 1)\n"
        "except NumericalDrift:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_gillespie_expected_jumps_closed_form():
    # against quadrature of the mean total jump rate, including a birth-death
    # balance where the closed form's expm1 terms cancel
    from scipy.integrate import quad

    for n0, gu, gd, span in ((2, 0.4, 0.3, 1.0), (3, 0.5, 2.0, 3.0),
                             (1, 1.0, 1.0 + 1e-9, 2.0), (4, 2.0, 0.5, 5.0)):
        a = gu - gd
        if abs(a * span) < 1e-3:
            mean = lambda s: n0 + gu * s + a * (n0 * s + gu * s * s / 2.0)
        else:
            mean = lambda s: (n0 + gu / a) * np.exp(a * s) - gu / a
        ref = quad(lambda s: (gu + gd) * mean(s) + gu, 0.0, span, epsabs=0.0, epsrel=1e-13)[0]
        assert chem._expected_jumps(n0, gu, gd, span) == pytest.approx(ref, rel=1e-8)


def test_gillespie_too_many_jumps_raises_drift(tmp_path):
    # a subprocess with a timeout: at gamma 1e9 each trajectory needs ~1e18
    # jumps, and the CLI replicator once sampled them for ever
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "replicator", "gamma_up": 1e9, "gamma_down": 1e9, "n0": 2,
        "n_max": 40, "grid": {"t_max": 1.0, "steps": 4}, "trajectories": 3, "seed": 5,
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "lindtherm", "run", str(cfg), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "NumericalDrift" in proc.stderr and "expected jumps" in proc.stderr
    assert "gamma_up = 1e+09" in proc.stderr and "gamma_down = 1e+09" in proc.stderr


def test_gillespie_too_much_total_work_raises_drift(tmp_path):
    # each trajectory is far below the per-trajectory jump limit, but the
    # ensemble needs about 1.8e9 jump events in all
    start = time.perf_counter()
    with pytest.raises(NumericalDrift, match="20000 trajectories"):
        gillespie_ensemble(0, 300.0, 300.0, np.linspace(0.0, 1.0, 5), 20_000, seed=3)
    assert time.perf_counter() - start < 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "replicator", "gamma_up": 300.0, "gamma_down": 300.0, "n0": 0,
        "n_max": 40, "grid": {"t_max": 1.0, "steps": 4}, "trajectories": 20_000, "seed": 5,
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_quantum_classical_populations_agree():
    # decoherence strength must not matter for the populations
    n = 36
    p_init = np.zeros(n)
    p_init[2] = 1.0
    times = np.linspace(0.0, 1.5, 7)
    classical = birth_death_evolve(
        BirthDeathState(p_init), 0.5, 0.25, times
    )
    for gamma in (0.0, 0.1, 1.0):
        spec = ChemSpec(1.0, 0.5, 0.25, decoherence=gamma, dim=n)
        traj = evolve_oscillator(spec, basis_state(n, 2), times)
        for i, st in enumerate(traj.states):
            pops = np.diag(st.matrix).real
            assert np.max(np.abs(pops - classical[i].probs)) < 1e-8
