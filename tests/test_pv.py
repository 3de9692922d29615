"""Two-band photovoltaic cell: occupations, power routes, voltage structure."""

import json
import sys

import numpy as np
import pytest

from lindtherm import (
    GklsGenerator,
    LindbladTerm,
    ShapeError,
    ZeroOccupation,
    apply_heisenberg,
    apply_schrodinger,
    dag,
    fermion_mode,
    stationary_state,
    trace_distance,
)
from lindtherm.cli import main
from lindtherm.models.pv import (
    PvSpec,
    _hop,
    _over_voltages,
    _pauli_rates,
    build_pv_family,
    effective_inverse_temperature,
    open_circuit_voltage,
    pv_analytic_power,
    pv_ansatz_derivative,
    pv_conditioned_ansatz,
    pv_floating_voltage,
    pv_grand_canonical,
    pv_number_operator,
    pv_power_current,
    pv_power_fast_ansatz,
    sector_indices,
    sector_stationary_state,
)

KB = 8.617333262e-5  # eV/K

# the worked half-filled example: f_c = 1/2 pinned by mu_c = E_c, the gain
# rate chosen so the summed generation weight is exactly 0.01
_F_V = 1.0 / (1.0 + np.exp(-5.0))
WORKED = PvSpec(
    conduction_energies=(10.0,),
    valence_energies=(0.0,),
    beta=1.0,
    beta1=0.3,
    inter_rates=np.array([[0.01 / (0.5 * (1.0 - _F_V))]]),
    mu_c=10.0,
    mu_v=5.0,
    amplitude=0.1,
    frequency=1.0,
)
WORKED_POWER = 3.194528049465325e-4  # 0.01 * 0.5 * 0.01 * (e^2 - 1)

# exact rational case: both occupations 1/2, beta1 = ln 2 makes every
# factor in the power formula a small rational or integer power of e
HALF = PvSpec(
    conduction_energies=(1.0,),
    valence_energies=(0.0,),
    beta=2.0,
    beta1=np.log(2.0),
    inter_rates=np.array([[4.0]]),
    mu_c=1.0,
    mu_v=0.0,
    amplitude=1.0,
    frequency=1.0,
)


def degenerate_2x2(gamma=0.01, big_gamma=0.0, beta=None, beta1=None, v=None):
    """2+2 cell with every interband gap equal to 1 (flat bands)."""
    beta = 1.0 / (KB * 300.0) if beta is None else beta
    beta1 = 1e-3 / KB if beta1 is None else beta1
    v = 0.5 if v is None else v
    return PvSpec(
        conduction_energies=(1.0, 1.0),
        valence_energies=(0.0, 0.0),
        beta=beta,
        beta1=beta1,
        inter_rates=gamma * np.array([[1.0, 1.7], [1.3, 0.9]]),
        intra_rates_c=big_gamma * np.array([[0.0, 1.0], [0.8, 0.0]]),
        intra_rates_v=big_gamma * np.array([[0.0, 0.6], [1.1, 0.0]]),
        mu_c=v,
        mu_v=0.0,
        amplitude=0.2,
        frequency=50.0,
    )


def test_effective_inverse_temperature():
    beta1 = 0.25
    omega = 2.0
    n = 1.0 / np.expm1(beta1 * omega)
    assert abs(effective_inverse_temperature(n, omega) - beta1) < 1e-12
    with pytest.raises(ZeroOccupation):
        effective_inverse_temperature(0.0, 1.0)
    with pytest.raises(ValueError):
        effective_inverse_temperature(0.5, -1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PvSpec((0.5,), (1.0,), 1.0, 0.5, np.array([[1.0]]))  # inverted bands
    with pytest.raises(ShapeError):
        PvSpec((1.0,), (0.0,), 1.0, 0.5, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        PvSpec((1.0,), (0.0,), 1.0, 0.5, np.array([[-0.1]]))
    spec = degenerate_2x2()
    assert spec.dim == 16
    assert spec.gap == 1.0
    assert spec.voltage == 0.5


@pytest.mark.parametrize("name, value", [
    ("beta", np.nan), ("beta", np.inf), ("beta1", np.nan), ("beta1", np.inf),
    ("mu_c", np.nan), ("mu_v", -np.inf), ("amplitude", np.nan), ("frequency", np.inf),
    ("conduction_energies", (np.nan,)), ("valence_energies", (-np.inf,)),
    ("inter_rates", np.array([[np.inf]])), ("intra_rates_c", np.array([[np.nan]])),
])
def test_spec_rejects_non_finite_parameters(name, value):
    kwargs = dict(conduction_energies=(1.0,), valence_energies=(0.0,), beta=1.0,
                  beta1=0.5, inter_rates=np.array([[1.0]]))
    kwargs[name] = value
    with pytest.raises(ValueError, match=name):
        PvSpec(**kwargs)


def test_grand_canonical_occupations():
    spec = WORKED
    rho = pv_grand_canonical(spec)
    from lindtherm import fermion_modes

    cs = fermion_modes(spec.n_modes)
    occ_c = np.trace(rho.matrix @ (cs[0].conj().T @ cs[0])).real
    occ_v = np.trace(rho.matrix @ (cs[1].conj().T @ cs[1])).real
    assert abs(occ_c - 0.5) < 1e-12
    assert abs(occ_v - _F_V) < 1e-12


def test_number_operator_spectrum():
    spec = degenerate_2x2()
    nc = pv_number_operator(spec)
    evals = np.unique(np.round(np.linalg.eigvalsh(nc), 9))
    assert np.array_equal(evals, [0.0, 1.0, 2.0])


def test_intraband_part_annihilates_conduction_number():
    # phonon hops conserve the conduction charge, so they drop out of the
    # adjoint action on N_c; only interband terms drive the current
    spec = degenerate_2x2(gamma=0.0, big_gamma=0.4)
    gen = build_pv_family(spec).generator_of(0.0)
    nc = pv_number_operator(spec)
    assert np.linalg.norm(apply_heisenberg(gen, nc)) < 1e-12


def test_worked_power_value():
    assert pv_analytic_power(WORKED) == pytest.approx(WORKED_POWER, rel=1e-12)


def test_exact_half_filled_power():
    # every ingredient is exact: <N_c> = 1/2, G = 1, exponent factor -1/2
    p = pv_analytic_power(HALF)
    assert p == pytest.approx(-0.5, abs=1e-12)
    assert pv_power_current(HALF) == pytest.approx(-0.5, abs=1e-12)


def test_current_route_matches_analytic_formula():
    # degenerate gaps: the generation/recombination balance against the
    # conditioned grand-canonical state reproduces the closed form exactly
    for v in (0.2, 0.5, 0.65, 0.7, 0.75):
        spec = degenerate_2x2(v=v)
        a = pv_analytic_power(spec)
        b = pv_power_current(spec)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-22)


def test_open_circuit_voltage_carnot_form():
    # T = 300 K against a 1000 K photon temperature on a 1 eV gap
    spec = degenerate_2x2()
    assert open_circuit_voltage(spec) == pytest.approx(0.7, abs=1e-12)
    # sign structure: below V_oc the cell delivers, above it consumes
    assert pv_analytic_power(degenerate_2x2(v=0.65)) > 0.0
    assert pv_analytic_power(degenerate_2x2(v=0.75)) < 0.0
    assert abs(pv_analytic_power(degenerate_2x2(v=0.7))) < 1e-18


def test_power_crossing_brackets_voc():
    spec = degenerate_2x2()
    voc = open_circuit_voltage(spec)
    vs = np.linspace(0.6, 0.8, 41)
    powers = np.array([pv_power_current(degenerate_2x2(v=v)) for v in vs])
    signs = np.sign(powers)
    flips = np.nonzero(np.diff(signs))[0]
    assert flips.size == 1
    crossing = 0.5 * (vs[flips[0]] + vs[flips[0] + 1])
    assert abs(crossing - voc) <= 0.02 * voc


def test_floating_voltage_one_plus_one():
    spec = PvSpec(
        conduction_energies=(1.0,),
        valence_energies=(0.0,),
        beta=1.0 / (KB * 300.0),
        beta1=1e-3 / KB,
        inter_rates=np.array([[0.02]]),
        mu_c=0.35,
        mu_v=0.0,
    )
    v = pv_floating_voltage(spec, n_electrons=1)
    assert abs(v - 0.7) < 1e-10


@pytest.mark.parametrize("ratio", [1.0, 10.0, 1000.0])
def test_floating_voltage_degenerate_2x2(ratio):
    spec = degenerate_2x2(gamma=0.001, big_gamma=0.001 * ratio)
    v = pv_floating_voltage(spec, n_electrons=2)
    assert abs(v - 0.7) < 1e-8


def test_sector_state_equals_conditioned_ansatz_for_degenerate_gaps():
    # with a single shared gap, every transition cycle balances at V_oc:
    # the conditioned grand-canonical state is the exact sector NESS at
    # any intraband/interband rate ratio
    for ratio in (0.0, 1.0, 50.0):
        spec = degenerate_2x2(gamma=0.01, big_gamma=0.01 * ratio, v=0.7)
        ness = sector_stationary_state(spec, n_electrons=2)
        ansatz = pv_conditioned_ansatz(spec, n_electrons=2, voltage=0.7)
        assert trace_distance(ness, ansatz) < 1e-12


def test_ansatz_distance_shrinks_with_thermalization():
    # non-degenerate gaps: the ansatz is only approximate, and fast
    # intraband thermalization is what makes it good
    spec0 = PvSpec(
        conduction_energies=(1.0, 1.12),
        valence_energies=(0.0, -0.12),
        beta=1.0 / (KB * 3000.0),
        beta1=1.0 / (KB * 10000.0),
        inter_rates=0.01 * np.array([[1.0, 0.8], [0.9, 1.1]]),
        mu_c=0.35,
        mu_v=0.0,
    )
    dists = []
    for ratio in (0.0, 1.0, 10.0, 100.0):
        spec = PvSpec(
            conduction_energies=spec0.conduction_energies,
            valence_energies=spec0.valence_energies,
            beta=spec0.beta,
            beta1=spec0.beta1,
            inter_rates=spec0.inter_rates,
            intra_rates_c=0.01 * ratio * np.array([[0.0, 1.0], [0.7, 0.0]]),
            intra_rates_v=0.01 * ratio * np.array([[0.0, 0.9], [1.2, 0.0]]),
            mu_c=spec0.mu_c,
            mu_v=spec0.mu_v,
        )
        # compare where the comparison is fair: at the self-consistent
        # voltage the ansatz family can actually hold the sector charge
        vstar = pv_floating_voltage(spec, n_electrons=2)
        ness = sector_stationary_state(spec, n_electrons=2)
        ansatz = pv_conditioned_ansatz(spec, n_electrons=2, voltage=vstar)
        dists.append(trace_distance(ness, ansatz))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[0] > 1e-2
    assert dists[-1] < 5e-3


def test_fast_ansatz_power_never_crosses():
    # the covariance form of the frozen-ansatz fast formula is negative
    # semidefinite in the drive observable, at every voltage
    for v in (0.2, 0.5, 0.7, 0.9):
        spec = degenerate_2x2(v=v)
        assert pv_power_fast_ansatz(spec) < 0.0


def test_equal_temperatures_mean_no_engine():
    beta = 1.0 / (KB * 300.0)
    spec = degenerate_2x2(beta=beta, beta1=beta, v=0.0)
    assert open_circuit_voltage(spec) == 0.0
    assert abs(pv_analytic_power(spec)) < 1e-15
    assert pv_analytic_power(degenerate_2x2(beta=beta, beta1=beta, v=0.1)) < 0.0


def test_sector_indices_are_binomial():
    spec = degenerate_2x2()
    sizes = [sector_indices(spec, n).size for n in range(5)]
    assert sizes == [1, 4, 6, 4, 1]


# --- one generator per sweep ----------------------------------------------------

def spread_3x2(v=0.5):
    """3+2 cell with spread gaps and intraband hopping in both bands."""
    return PvSpec(
        conduction_energies=(1.0, 1.07, 1.19),
        valence_energies=(0.0, -0.11),
        beta=1.0 / (KB * 2000.0),
        beta1=1.0 / (KB * 6000.0),
        inter_rates=0.01 * np.array([[1.0, 0.8], [0.9, 1.1], [0.7, 1.3]]),
        intra_rates_c=0.02 * np.array([[0.0, 1.0, 0.4], [0.6, 0.0, 0.9], [0.3, 0.5, 0.0]]),
        intra_rates_v=0.02 * np.array([[0.0, 0.8], [1.2, 0.0]]),
        mu_c=v,
        mu_v=0.0,
        amplitude=0.3,
        frequency=20.0,
    )


@pytest.mark.parametrize("route", [pv_power_current, pv_power_fast_ansatz])
@pytest.mark.parametrize("spec", [degenerate_2x2(big_gamma=0.01), spread_3x2()],
                         ids=["degenerate_2x2", "spread_3x2"])
def test_voltage_array_equals_scalar_calls(route, spec):
    vs = np.linspace(0.1, 0.9, 7)
    batch = route(spec, vs)
    assert isinstance(batch, np.ndarray) and batch.shape == (7,)
    singles = [route(spec, v) for v in vs]
    assert all(isinstance(p, float) for p in singles)
    assert np.array_equal(batch, singles)
    assert route(spec) == route(spec, spec.voltage)
    assert route(spec, [0.4]).shape == (1,)


@pytest.mark.parametrize("spec", [degenerate_2x2(big_gamma=0.01), spread_3x2(), HALF],
                         ids=["degenerate_2x2", "spread_3x2", "half"])
def test_current_route_matches_schrodinger_reference(spec):
    # the Schrodinger-picture route g^2 beta <N_c> tr(N_c L(rho_gc)).  At
    # V_oc (0.7 for the degenerate cell) the per-state charge currents
    # cancel in the sum, so the error is taken relative to the sum of their
    # magnitudes, sum_i |L*(N_c)_ii rho_ii|; elsewhere that is |P| itself
    vs = np.linspace(0.1, 0.9, 5)
    gen = build_pv_family(spec).base
    n_c = pv_number_operator(spec)
    lm = apply_heisenberg(gen, n_c)
    prefactor = spec.amplitude ** 2 * spec.beta
    powers = pv_power_current(spec, vs)
    for v, p in zip(vs, powers):
        rho = pv_grand_canonical(spec, 0.0, v).matrix
        n_c0 = np.trace(n_c @ rho).real
        ref = prefactor * n_c0 * np.trace(n_c @ apply_schrodinger(gen, rho)).real
        gross = prefactor * n_c0 * np.sum(np.abs(lm * rho.T))
        assert abs(p - ref) <= 1e-12 * gross, v


@pytest.mark.parametrize("spec", [degenerate_2x2(big_gamma=0.01), spread_3x2(), HALF],
                         ids=["degenerate_2x2", "spread_3x2", "half"])
def test_ansatz_derivative_matches_dense_products(spec):
    # the derivative is read off the diagonals of N_c and rho; the dense
    # products -beta (N_c rho - <N_c> rho) stay here as the reference, and
    # only the order of the sum giving <N_c> differs
    n_c = pv_number_operator(spec)
    for v in (None, 0.2, 0.8):
        rho = pv_grand_canonical(spec, 0.0, v).matrix
        ref = -spec.beta * (n_c @ rho - np.trace(n_c @ rho).real * rho)
        got = pv_ansatz_derivative(spec, v)
        assert got.dtype == complex and got.shape == ref.shape
        assert np.count_nonzero(got - np.diag(np.diagonal(got))) == 0
        assert np.max(np.abs(got - ref)) <= 1e-14 * spec.beta * spec.n_conduction


def test_two_dimensional_voltage_raises_shape_error():
    spec = degenerate_2x2()
    for route in (pv_power_current, pv_power_fast_ansatz):
        with pytest.raises(ShapeError):
            route(spec, np.full((2, 3), 0.5))


def _count_calls(monkeypatch, fn):
    """Wrap ``fn`` wherever a lindtherm module holds it; return the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "lindtherm" or name.startswith("lindtherm."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_pv_sweep_builds_one_generator(tmp_path, monkeypatch):
    builds = _count_calls(monkeypatch, build_pv_family)
    heisenberg = _count_calls(monkeypatch, apply_heisenberg)
    schrodinger = _count_calls(monkeypatch, apply_schrodinger)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "pv-sweep",
        "pv": {
            "conduction_energies": [1.0, 1.0],
            "valence_energies": [0.0, 0.0],
            "beta": 38.68,
            "beta1": 11.6,
            "inter_rates": [[0.01, 0.017], [0.013, 0.009]],
            "amplitude": 0.2,
        },
        "sweep": {"v_min": 0.1, "v_max": 0.9, "points": 5},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    # L*(N_c) comes from the population block, not from a direct action
    assert (len(builds), len(heisenberg), len(schrodinger)) == (1, 0, 0)


@pytest.mark.parametrize("spec", [degenerate_2x2(big_gamma=0.01), spread_3x2()],
                         ids=["degenerate_2x2", "spread_3x2"])
def test_population_route_matches_heisenberg_action(spec):
    lms = []
    _over_voltages(spec, None, lambda n_c, lm, v: lms.append(lm) or 0.0)
    gen = build_pv_family(spec).base
    n_c = pv_number_operator(spec)
    n = n_c.diagonal().real
    ref = apply_heisenberg(gen, n_c)
    assert not (ref - np.diag(ref.diagonal())).any()
    w = _pauli_rates(gen)
    scale = w.sum(axis=0).max() * n.max()
    assert np.max(np.abs(lms[0] - np.diag(ref.diagonal()))) <= 1e-14 * scale


def test_hops_equal_fermion_mode_products():
    for src in range(4):
        for dst in range(4):
            expected = dag(fermion_mode(4, dst)) @ fermion_mode(4, src)
            assert np.array_equal(_hop(4, src, dst), expected), (src, dst)


# --- charge-sector states from the population block --------------------------

def _dense_sector_state(spec, n_electrons):
    """Reference: the sector's full GKLS generator solved densely, embedded."""
    gen = build_pv_family(spec).base
    idx = sector_indices(spec, n_electrons)
    block = np.ix_(idx, idx)
    sub = GklsGenerator(
        gen.hamiltonian[block],
        tuple(LindbladTerm(t.jump[block], t.rate, t.bath_label) for t in gen.terms),
    )
    full = np.zeros((spec.dim, spec.dim), dtype=complex)
    full[block] = stationary_state(sub).matrix
    return full


@pytest.mark.parametrize("spec", [degenerate_2x2(big_gamma=0.01), spread_3x2()],
                         ids=["degenerate_2x2", "spread_3x2"])
def test_sector_state_matches_dense_sector_solve(spec):
    gen = build_pv_family(spec).base
    for q in range(spec.n_modes + 1):
        rho = sector_stationary_state(spec, q).matrix
        outside = np.setdiff1d(np.arange(spec.dim), sector_indices(spec, q))
        assert not rho[outside].any() and not rho[:, outside].any(), q
        assert np.linalg.norm(apply_schrodinger(gen, rho)) <= 1e-12, q
        assert trace_distance(rho, _dense_sector_state(spec, q)) <= 1e-12, q


def test_one_state_sectors_are_basis_states():
    # the empty and the full sector have a zero generator block
    spec = degenerate_2x2()
    for q, b in ((0, 0), (spec.n_modes, spec.dim - 1)):
        expected = np.zeros((spec.dim, spec.dim))
        expected[b, b] = 1.0
        assert np.array_equal(sector_stationary_state(spec, q).matrix, expected), q


def test_bit_counts_match_the_per_state_loop():
    spec = spread_3x2()
    mask = (1 << spec.n_conduction) - 1
    loop_nc = [bin(b & mask).count("1") for b in range(spec.dim)]
    assert np.array_equal(pv_number_operator(spec), np.diag(loop_nc).astype(complex))
    for q in range(spec.n_modes + 1):
        loop_idx = [b for b in range(spec.dim) if bin(b).count("1") == q]
        assert np.array_equal(sector_indices(spec, q), loop_idx), q
