"""Perturbative engine power: both formulas, their identity, and the bounds."""

import numpy as np
import pytest
from scipy.linalg import lapack

from lindtherm import (
    GeneratorFamily,
    GklsGenerator,
    IdentityViolation,
    LindbladTerm,
    NotEquilibrium,
    ResolventSingular,
    apply_heisenberg,
    average_power_fast,
    average_power_resolvent,
    davies_terms,
    equilibrium_power_bound,
    gibbs_state,
    heisenberg_super,
    modulated_family,
    power_report,
    stationary_derivative,
    stationary_state,
    thermal_family,
    thermal_pair,
    unvec,
    vec,
)
from lindtherm import engine, gkls

from conftest import random_thermal_model, unit

# triangle engine: two cold links (0-1, 1-2) and one hot link (0-2) that the
# drive modulates through the rethermalizing Davies construction
H0 = np.diag([0.0, 1.0, 2.5]).astype(complex)
M_DIAG = np.diag([0.0, 0.5, -0.3])
C_COLD = unit(0, 1, 3) + unit(1, 0, 3) + unit(1, 2, 3) + unit(2, 1, 3)
C_HOT = unit(0, 2, 3) + unit(2, 0, 3)

# frozen by an independent high-resolution run of the same model
P_FAST_TRIANGLE = -2.57972051e-3


def triangle_engine(amplitude=0.3, frequency=600.0):
    return thermal_family(
        H0, M_DIAG,
        [(C_COLD, 1.0, 0.6, "cold"), (C_HOT, 0.2, 0.5, "hot")],
        amplitude=amplitude, frequency=frequency,
    )


def test_stationary_derivative_diagnostics():
    fam = triangle_engine()
    sd = stationary_derivative(fam)
    assert sd.identity_residual < 1e-8
    assert sd.richardson_gap < 1e-6
    assert np.allclose(sd.rho_prime, sd.rho_prime.conj().T, atol=1e-10)
    assert abs(np.trace(sd.rho_prime)) < 1e-10  # derivative of unit trace


def test_discontinuous_family_rejected():
    # a temperature jump at xi = 0 breaks the first-order stationarity
    # identity: the difference quotient of the state diverges as 1/delta
    def gen_at(beta):
        terms = (thermal_pair(unit(0, 1, 3), 0.9, 1.0, beta)
                 + thermal_pair(unit(1, 2, 3), 0.9, 1.5, beta))
        return GklsGenerator(H0, tuple(terms))

    genp, genm = gen_at(1.0), gen_at(0.4)
    fam = GeneratorFamily(
        lambda xi: genp if xi >= 0 else genm, M_DIAG, 0.3, 100.0
    )
    with pytest.raises(IdentityViolation):
        stationary_derivative(fam)


def test_triangle_power_frozen_value():
    fam = triangle_engine()
    p = average_power_fast(fam)
    assert p == pytest.approx(P_FAST_TRIANGLE, rel=1e-5)


def test_fast_and_resolvent_agree_at_high_frequency():
    fam = triangle_engine(frequency=600.0)
    fast = average_power_fast(fam)
    reso = average_power_resolvent(fam)
    assert abs(reso - fast) / abs(fast) < 1e-4


def test_resolvent_approaches_fast_as_frequency_grows():
    gaps = []
    fast = average_power_fast(triangle_engine())
    for om in (1.0, 10.0, 100.0):
        reso = average_power_resolvent(triangle_engine(frequency=om))
        gaps.append(abs(reso - fast))
    assert gaps[2] < gaps[1] < gaps[0]


def test_amplitude_scaling_is_exactly_quadratic():
    p1 = average_power_fast(triangle_engine(amplitude=0.3))
    p2 = average_power_fast(triangle_engine(amplitude=0.6))
    assert abs(p2 / p1 - 4.0) < 1e-10
    r1 = average_power_resolvent(triangle_engine(amplitude=0.3))
    r2 = average_power_resolvent(triangle_engine(amplitude=0.6))
    assert abs(r2 / r1 - 4.0) < 1e-10


def test_power_report_bundles_everything():
    fam = triangle_engine()
    rep = power_report(fam)
    assert rep.p_bar_fast == pytest.approx(P_FAST_TRIANGLE, rel=1e-5)
    assert rep.single_bath is None
    assert rep.accepted


def test_single_bath_power_is_nonpositive():
    rng = np.random.default_rng(41)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        gen, beta = random_thermal_model(rng, dim)
        m = np.diag(rng.uniform(-1.0, 1.0, dim))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        coupling = (x + x.conj().T) / 2.0
        fam = thermal_family(
            gen.hamiltonian, m, [(coupling, beta, 0.7, "bath")],
            amplitude=0.2, frequency=300.0,
        )
        assert average_power_fast(fam) <= 1e-12
        assert average_power_resolvent(fam) <= 1e-12


def test_equilibrium_bound_value_and_offset_invariance():
    h = np.diag([0.0, 1.0]).astype(complex)
    gen = GklsGenerator(h, tuple(thermal_pair(unit(0, 1, 2), 0.9, 1.0, 1.0, "b")))
    m = np.diag([0.0, 0.3])
    bound = equilibrium_power_bound(gen, m, 1.0, 0.4)
    assert bound < 0.0
    shifted = equilibrium_power_bound(gen, m + 0.7 * np.eye(2), 1.0, 0.4)
    assert abs(bound - shifted) < 1e-12
    # scaling in the amplitude is quadratic here too
    assert abs(equilibrium_power_bound(gen, m, 1.0, 0.8) / bound - 4.0) < 1e-10


def test_equilibrium_bound_rejects_wrong_temperature():
    h = np.diag([0.0, 1.0]).astype(complex)
    gen = GklsGenerator(h, tuple(thermal_pair(unit(0, 1, 2), 0.9, 1.0, 1.0, "b")))
    with pytest.raises(NotEquilibrium):
        equilibrium_power_bound(gen, np.diag([0.0, 0.3]), 0.7, 0.4)


def test_power_report_with_beta_fills_bound():
    h = np.diag([0.0, 1.0]).astype(complex)
    gen = GklsGenerator(h, tuple(thermal_pair(unit(0, 1, 2), 0.9, 1.0, 1.0, "b")))
    fam = modulated_family(gen, np.diag([0.0, 0.3]), 0.4, 500.0)
    rep = power_report(fam, beta=1.0)
    assert rep.single_bath is not None and rep.single_bath < 0.0
    # frozen terms with a drive commuting with H0 cannot move the Gibbs
    # state, so both routes return an exact structural zero
    assert abs(rep.p_bar_fast) < 1e-15
    assert abs(rep.p_bar_resolvent) < 1e-12


def _squared_system_power(fam):
    """Reference: Omega^2 (Omega^2 + L*^2)^(-1) L* M by one dense solve."""
    sd = stationary_derivative(fam)
    ls = heisenberg_super(fam.base)
    om2 = fam.frequency ** 2
    y = np.linalg.solve(om2 * np.eye(ls.shape[0]) + ls @ ls, ls @ vec(fam.drive_observable))
    return -0.5 * fam.amplitude ** 2 * float(np.trace(sd.rho_prime @ unvec(om2 * y)).real)


@pytest.mark.parametrize("frequency", [600.0, 1.0 + 1e-3, 1.5 - 5e-4])
def test_resolvent_power_matches_squared_system(frequency):
    # 1 and 1.5 are Bohr frequencies of the triangle engine
    fam = triangle_engine(frequency=frequency)
    ref = _squared_system_power(fam)
    assert average_power_resolvent(fam) == pytest.approx(ref, rel=1e-10, abs=0)


def test_power_report_builds_base_generator_once():
    fam = triangle_engine()
    calls = []

    def counted(xi):
        calls.append(xi)
        return fam.generator_of(xi)

    power_report(GeneratorFamily(counted, fam.drive_observable, fam.amplitude, fam.frequency))
    assert calls.count(0.0) == 1


def test_resolvent_singular_without_dissipation():
    h = np.diag([0.0, 1.0]).astype(complex)
    gen = GklsGenerator(h, ())
    fam = GeneratorFamily(
        lambda xi: GklsGenerator(h + xi * np.diag([0.0, 0.2]), ()),
        np.diag([0.0, 0.2]), 0.1, 1.0,  # Omega exactly on the Bohr line
    )
    with pytest.raises((ResolventSingular, Exception)):
        # either the resolvent check or the singular stationary solve trips
        average_power_resolvent(fam)


def test_resolvent_singular_near_resonance():
    # Omega on the Bohr line: cond(L* + i Omega) ~ 1/damping, checked against
    # sqrt(resolvent_condition) = 1e6
    h = np.diag([0.0, 1.0]).astype(complex)
    for damping, singular in ((1e-4, False), (1e-7, True)):
        gen = GklsGenerator(h, tuple(thermal_pair(unit(0, 1, 2), damping, 1.0, 1.0)))
        fam = modulated_family(gen, np.diag([0.0, 0.3]), 0.4, 1.0)
        if singular:
            with pytest.raises(ResolventSingular):
                average_power_resolvent(fam)
        else:
            assert np.isfinite(average_power_resolvent(fam))


def _random_two_bath(rng, d):
    """Gap-separated spectrum, a random drive observable and two Davies baths."""
    h = np.diag(np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, d - 1))]))

    def hermitian():
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (x + x.conj().T) / 2.0

    m = 0.3 * hermitian()
    couplings = [(hermitian(), 1.0, 0.5, "cold"), (hermitian(), 0.2, 0.5, "hot")]
    return h.astype(complex), m, couplings


def _bordered_lstsq(s, rhs, trace):
    """x with s x = rhs and tr x = trace, by least squares on the stacked system."""
    d = int(round(np.sqrt(s.shape[0])))
    a = np.vstack([s, np.eye(d).reshape(1, -1)])
    return unvec(np.linalg.lstsq(a, np.append(rhs, trace), rcond=None)[0])


@pytest.mark.parametrize("d", [3, 5])
def test_stationary_derivative_is_exact_for_modulated_family(d):
    # H0 + xi M with frozen terms: L' = -i[M, .] exactly, so rho' solves
    # L rho' = i[M, rho_bar], tr rho' = 0, with no finite-difference error
    rng = np.random.default_rng(100 + d)
    h, m, couplings = _random_two_bath(rng, d)
    terms = [t for c, b, r, lbl in couplings for t in davies_terms(h, c, b, r, lbl)]
    gen = GklsGenerator(h, tuple(terms))
    with pytest.warns(UserWarning, match="does not commute"):
        fam = modulated_family(gen, m, 0.3, 600.0)
    sd = stationary_derivative(fam)
    s = gkls.schrodinger_super(gen)
    rho_bar = _bordered_lstsq(s, np.zeros(d * d), 1.0)
    ref = _bordered_lstsq(s, vec(1j * (m @ rho_bar - rho_bar @ m)), 0.0)
    assert np.linalg.norm(ref) > 1e-3
    assert np.linalg.norm(sd.rho_prime - ref) <= 1e-10 * np.linalg.norm(ref)
    assert sd.identity_residual < 1e-13
    assert sd.richardson_gap < 1e-10


def _five_point_powers(fam):
    """(fast, resolvent) by the five-stationary-state route, kept as a reference.

    rho' is the difference quotient of the stationary states at +-delta (the
    route's states at +-delta/2 only fed its Richardson gap), and the
    resolvent is a dense solve with the Heisenberg matrix plus i Omega.
    """
    delta = 1e-4 * max(1.0, float(np.linalg.norm(fam.base.hamiltonian, 2)))
    prime = (stationary_state(fam.generator_of(delta)).matrix
             - stationary_state(fam.generator_of(-delta)).matrix) / (2.0 * delta)
    g2, om = fam.amplitude ** 2, fam.frequency
    m = fam.drive_observable
    fast = -0.5 * g2 * float(np.trace(prime @ apply_heisenberg(fam.base, m)).real)
    ls = heisenberg_super(fam.base) + 1j * om * np.eye(fam.base.dim ** 2)
    y = unvec(np.linalg.solve(ls, vec(m)))
    resolvent = -0.5 * g2 * om * om * float(np.trace(prime @ y).real)
    return fast, resolvent


@pytest.mark.parametrize("model", ["triangle", "two-bath"])
def test_power_report_agrees_with_five_point_route(model):
    if model == "triangle":
        fam = triangle_engine()
    else:
        h, m, couplings = _random_two_bath(np.random.default_rng(7), 5)
        fam = thermal_family(h, np.diag(np.diag(m).real), couplings, 0.3, 600.0)
    rep = power_report(fam)
    fast, resolvent = _five_point_powers(fam)
    assert abs(fast) > 1e-6
    assert rep.p_bar_fast == pytest.approx(fast, rel=1e-6, abs=0)
    assert rep.p_bar_resolvent == pytest.approx(resolvent, rel=1e-6, abs=0)


def test_power_report_assembles_once_and_factors_twice(monkeypatch):
    counts = {"schrodinger": 0, "heisenberg": 0, "zgetrf": 0}

    def spy(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    fam = triangle_engine()
    schrodinger = spy("schrodinger", gkls.schrodinger_super)
    heisenberg = spy("heisenberg", gkls.heisenberg_super)
    for module in (gkls, engine):
        monkeypatch.setattr(module, "schrodinger_super", schrodinger)
        monkeypatch.setattr(module, "heisenberg_super", heisenberg, raising=False)
    monkeypatch.setattr(lapack, "zgetrf", spy("zgetrf", lapack.zgetrf))
    power_report(fam)
    assert counts == {"schrodinger": 1, "heisenberg": 0, "zgetrf": 2}


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_non_finite_or_zero_delta_is_rejected(delta):
    fam = triangle_engine()
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        stationary_derivative(fam, delta=delta)
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        power_report(fam, delta=delta)
