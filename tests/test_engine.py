"""Perturbative engine power: both formulas, their identity, and the bounds."""

import numpy as np
import pytest

from lindtherm import (
    GeneratorFamily,
    GklsGenerator,
    IdentityViolation,
    LindbladTerm,
    NotEquilibrium,
    ResolventSingular,
    average_power_fast,
    average_power_resolvent,
    equilibrium_power_bound,
    gibbs_state,
    heisenberg_super,
    modulated_family,
    power_report,
    stationary_derivative,
    thermal_family,
    thermal_pair,
    unvec,
    vec,
)

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
