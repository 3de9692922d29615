"""Perturbative engine power: both formulas, their identity, and the bounds."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from lindtherm import (
    GeneratorFamily,
    GklsGenerator,
    IdentityViolation,
    LindbladTerm,
    NotEquilibrium,
    NotStationary,
    ResolventSingular,
    apply_heisenberg,
    apply_schrodinger,
    average_power_fast,
    average_power_resolvent,
    dag,
    davies_terms,
    detailed_balance_report,
    entropy_production,
    equilibrium_power_bound,
    gibbs_state,
    heisenberg_super,
    hermitize,
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

from conftest import random_state, random_thermal_model, unit

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


def _dense_twin(fam):
    """The family of ``fam``'s generators rebuilt from their terms: the dense route."""
    h0, m = fam.base.hamiltonian, fam.drive_observable
    return GeneratorFamily(lambda xi: GklsGenerator(h0 + xi * m, fam.generator_of(xi).terms),
                           m, fam.amplitude, fam.frequency)


def _count_assembly(monkeypatch, fam):
    counts = {"schrodinger": 0, "heisenberg": 0, "zgetrf": 0}

    def spy(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    schrodinger = spy("schrodinger", gkls.schrodinger_super)
    heisenberg = spy("heisenberg", gkls.heisenberg_super)
    for module in (gkls, engine):
        monkeypatch.setattr(module, "schrodinger_super", schrodinger, raising=False)
        monkeypatch.setattr(module, "heisenberg_super", heisenberg, raising=False)
    monkeypatch.setattr(lapack, "zgetrf", spy("zgetrf", lapack.zgetrf))
    power_report(fam)
    return counts


def test_power_report_assembles_once_and_factors_twice(monkeypatch):
    # a generator of terms is one dense block: one assembly, one LU for
    # rho_bar and rho', one for the resolvent
    fam = _dense_twin(triangle_engine())
    assert _count_assembly(monkeypatch, fam) == {"schrodinger": 1, "heisenberg": 0, "zgetrf": 2}


def test_davies_power_report_factors_only_the_population_block(monkeypatch):
    # distinct gaps: the populations are the one block with an LU, once
    # bordered and once in the resolvent; no superoperator and no lab table
    fam = triangle_engine()
    assert _count_assembly(monkeypatch, fam) == {"schrodinger": 0, "heisenberg": 0, "zgetrf": 2}
    assert "jumps" not in vars(fam.base._record)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_non_finite_or_zero_delta_is_rejected(delta):
    fam = triangle_engine()
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        stationary_derivative(fam, delta=delta)
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        power_report(fam, delta=delta)


# --- Davies generators by invariant blocks ----------------------------------------

def _rotated_davies(rng, kind, d, drive=True):
    """Two Davies baths on levels of ``kind`` in a random basis, with a drive M.

    "distinct" levels have distinct gaps, so every coherence is a 1 x 1
    block; an equally spaced "ladder" repeats its gaps, so the coherences of
    one gap form one block; "degenerate" repeats one level, so the
    population block holds a coherence too.  M is hermitian and does not
    commute with H0, or is 0 when ``drive`` is off.
    """
    levels = {"distinct": np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, d - 1))]),
              "ladder": np.arange(d, dtype=float),
              "degenerate": np.concatenate([[0.0, 1.0, 1.0],
                                            1.0 + np.cumsum(rng.uniform(0.3, 1.0, d - 3))])}[kind]
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]

    def hermitian():
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (x + dag(x)) / 2.0

    h0 = hermitize(q @ np.diag(levels) @ dag(q))
    m = 0.3 * hermitian() if drive else np.zeros((d, d))
    return h0, m, [(hermitian(), 1.0, 0.5, "cold"), (hermitian(), 0.2, 0.4, "hot")]


@pytest.mark.parametrize("kind, d", [("distinct", 24), ("ladder", 12), ("degenerate", 12)])
def test_davies_blocks_match_the_dense_route(kind, d):
    h0, m, couplings = _rotated_davies(np.random.default_rng(0), kind, d)
    with pytest.warns(UserWarning, match="does not commute"):
        fam = thermal_family(h0, m, couplings, 0.3, 600.0)
        ref = _dense_twin(fam)
    index = gkls._blocks(fam.base).split[0]
    assert index[0].size == d + 2 * (kind == "degenerate")
    assert max(map(len, index[1:]), default=1) > 1 or kind == "distinct"
    rho, rho_ref = stationary_state(fam.base).matrix, stationary_state(ref.base).matrix
    assert np.linalg.norm(rho - rho_ref) <= 1e-12 * np.linalg.norm(rho_ref)
    rep, rep_ref = power_report(fam), power_report(ref)
    assert rep.p_bar_fast == pytest.approx(rep_ref.p_bar_fast, rel=1e-12, abs=0)
    assert rep.p_bar_resolvent == pytest.approx(rep_ref.p_bar_resolvent, rel=1e-12, abs=0)
    # both routes report their solves' health; rcond is a one-norm estimate of
    # differently split matrices, so the two agree only roughly
    for r in (rep, rep_ref):
        assert 1e-4 < r.stationary_rcond <= 1 and 1e-4 < r.resolvent_rcond <= 1
        assert r.stationarity_residual < 1e-13
    assert 0.1 < rep.stationary_rcond / rep_ref.stationary_rcond < 10


@pytest.mark.parametrize("kind, d", [("degenerate", 6), ("ladder", 8)])
def test_davies_detailed_balance_matches_the_dense_route(kind, d):
    h0, m, couplings = _rotated_davies(np.random.default_rng(1), kind, d, drive=False)
    # one bath at its Gibbs state passes; two baths at their stationary state do not
    for baths, passed in ((couplings[:1], True), (couplings, False)):
        fam = thermal_family(h0, m, baths, 0.3, 600.0)
        ref = _dense_twin(fam)
        rho = gibbs_state(h0, baths[0][1]) if passed else stationary_state(ref.base)
        got, want = detailed_balance_report(fam.base, rho), detailed_balance_report(ref.base, rho)
        assert got.passed == want.passed == passed
        for field in ("dissipative_hermiticity_defect", "hamiltonian_antihermiticity_defect",
                      "commutator_norm"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
        if passed:
            bounds = [equilibrium_power_bound(f.base, h0 @ h0, baths[0][1], 0.3) for f in (fam, ref)]
            assert bounds[0] == pytest.approx(bounds[1], rel=1e-10) and bounds[0] < 0


@pytest.mark.parametrize("kind, d", [("distinct", 12), ("ladder", 8), ("degenerate", 8)])
def test_davies_eigenbasis_action_matches_the_dense_twin(kind, d):
    # the public direct actions, the block solves and the engine act in each
    # generator's eigenbasis (gkls._action) and build no table; the lab-frame
    # table kernel, which serves the heat currents, matches the dense twin's;
    # the route is fixed by the generator, not by what was read before
    rng = np.random.default_rng(2)
    h0, m, couplings = _rotated_davies(rng, kind, d)
    with pytest.warns(UserWarning, match="does not commute"):
        fam = thermal_family(h0, m, couplings, 0.3, 600.0)
        ref = _dense_twin(fam)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for xi in (0.0, 0.37):
        gen, twin = fam.generator_of(xi), ref.generator_of(xi)
        eigen = [gkls._action(gen, x, adjoint) for adjoint in (False, True)]
        public = [apply_schrodinger(gen, x), apply_heisenberg(gen, x)]
        assert all(np.array_equal(p, e) for p, e in zip(public, eigen))
        assert "jumps" not in vars(gen._record)
        for got, want in zip(eigen, (apply_schrodinger(twin, x), apply_heisenberg(twin, x))):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        lab = gkls._gkls_action(gen._g, x, gen._record.jumps)
        assert np.array_equal(lab, apply_schrodinger(twin, x))
        assert all(np.array_equal(gkls._action(gen, x, adjoint), e)
                   for adjoint, e in zip((False, True), eigen))
        other = fam.generator_of(xi)
        other._baths  # as the heat currents read it: the table is built first
        assert np.array_equal(apply_schrodinger(other, x), eigen[0])


@pytest.mark.parametrize("kind, d", [("distinct", 6), ("degenerate", 6)])
def test_davies_entropy_production_and_actions_build_no_table(kind, d):
    # entropy_production and both public actions take the eigenbasis route
    # and match the dense twin; a non-stationary reference is still named
    rng = np.random.default_rng(5)
    h0, m, couplings = _rotated_davies(rng, kind, d)
    with pytest.warns(UserWarning, match="does not commute"):
        fam = thermal_family(h0, m, couplings, 0.3, 600.0)
        ref = _dense_twin(fam)
    gen, twin = fam.generator_of(0.37), ref.generator_of(0.37)
    rho_bar, rho = stationary_state(gen), random_state(rng, d)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    got = [np.array(entropy_production(gen, rho, rho_bar)),
           apply_schrodinger(gen, x), apply_heisenberg(gen, x)]
    with pytest.raises(NotStationary, match="reference state has generator-image norm"):
        entropy_production(gen, rho_bar, rho)
    assert "jumps" not in vars(gen._record)
    want = [entropy_production(twin, rho, rho_bar), apply_schrodinger(twin, x),
            apply_heisenberg(twin, x)]
    assert got[0] > 0
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_davies_detailed_balance_rejects_coherences_outside_the_stationary_block():
    # a slow coherence between levels 1e-3 apart: rho_bar + eps (|0><1| + h.c.)
    # has a generator image below tol.stationarity at eps = 1e-6, but the
    # Davies route weighs by the stationary block only, so it raises rather
    # than report on another state; within the tolerance both routes agree
    h0 = np.diag([0.0, 1e-3, 1.0]).astype(complex)
    coupling = np.ones((3, 3)) - np.eye(3)
    fam = thermal_family(h0, np.zeros((3, 3)), [(coupling, 1.0, 1e-3, "b")], 0.3, 600.0)
    ref = _dense_twin(fam)
    for eps in (1e-6, 1e-9):
        rho = gibbs_state(h0, 1.0).matrix.copy()
        rho[0, 1] += eps
        rho[1, 0] += eps
        want = detailed_balance_report(ref.base, rho)
        assert want.passed
        if eps > 1e-8:
            with pytest.raises(NotStationary, match="outside the stationary block"):
                detailed_balance_report(fam.base, rho)
        else:
            got = detailed_balance_report(fam.base, rho)
            assert got.passed
            assert abs(got.dissipative_hermiticity_defect
                       - want.dissipative_hermiticity_defect) < 1e-10


def test_davies_power_report_needs_no_superoperator_memory():
    # d = 100 with two baths: one dense d^2 x d^2 matrix alone would be 1.6 GB
    rng = np.random.default_rng(3)
    d = 100
    h0, _, couplings = _rotated_davies(rng, "distinct", d)
    h0 = np.diag(np.linalg.eigvalsh(h0)).astype(complex)
    m = np.diag(rng.uniform(-1.0, 1.0, d))
    tracemalloc.start()
    try:
        rep = power_report(thermal_family(h0, m, couplings, 0.3, 600.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.accepted
    assert abs(rep.p_bar_resolvent - rep.p_bar_fast) < 0.01 * abs(rep.p_bar_fast)
    assert peak < 64 << 20
