"""Seeded inputs, fixed op lists and reference checks of the four workloads.

An op is one call through an entry point a user calls: ``lindtherm.cli.main``
on a generated JSON config, or ``lindtherm.power_report`` on generated
arrays.  The program receives only those configs and arrays.  Each op comes
with a reference check that is run outside its timed region; a check returns
the list of problems it found, so an empty list means the op passed, and
raises when it cannot read the op's output.

Sizes are the inputs that define a workload (see README.md for why each
one exists).  ``TOY`` shrinks every size so that the warm-up before timing
and the self-test run the same code paths in well under a second each.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lindtherm
import lindtherm.cli

WORKLOADS = ("engine-dense", "evolve-driven", "term-loops", "chem-band")

# gate 06: v_oc = gap (1 - beta1/beta) = 0.7 for a 1 eV gap at 300 K
# against a photon bath at beta1 = 1e-3 / k_B
KB = 8.617333262e-5

FULL = {
    "engine_dims": (8, 12),
    "engine_single_dim": 12,
    "engine_cli_dim": 12,
    "evolve_driven_steps": 50,
    "evolve_static_dim": 6,
    "evolve_static_steps": 50,
    "pv_modes": (4, 3),
    "pv_points": 5,
    "chem_dim": 600,
    "chem_steps": 1,
    "chem_t_max": 0.25,
    "repl_trajectories": 20000,
}

TOY = {
    "engine_dims": (3,),
    "engine_single_dim": 3,
    "engine_cli_dim": 3,
    "evolve_driven_steps": 40,
    "evolve_static_dim": 3,
    "evolve_static_steps": 40,
    "pv_modes": (1, 1),
    "pv_points": 11,
    "chem_dim": 80,
    "chem_steps": 4,
    "chem_t_max": 0.5,
    "repl_trajectories": 300,
}


@dataclass
class Op:
    """One timed call and the check of its output."""

    name: str
    scenario: str
    run: object
    check: object


# --- random model pieces ---------------------------------------------------------

def _spectrum(rng, d: int) -> np.ndarray:
    """Gap-separated random levels, so every Bohr gap is distinct."""
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, d - 1))])


def _coupling(rng, d: int) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2.0


def _wishart_state(rng, d: int) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = x @ x.conj().T + 1e-3 * np.eye(d)
    return w / np.trace(w).real


def _two_bath_couplings(rng, d: int) -> list:
    return [
        (_coupling(rng, d), float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.4, 0.6)), "cold"),
        (_coupling(rng, d), float(rng.uniform(0.15, 0.25)), float(rng.uniform(0.4, 0.6)), "hot"),
    ]


def _frozen_davies(h: np.ndarray, couplings) -> list:
    terms = []
    for coupling, beta, rate, label in couplings:
        terms.extend(lindtherm.davies_terms(h, coupling, beta, rate, label))
    return terms


# --- JSON encoding of configs --------------------------------------------------------

def _cmatrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _model_config(h: np.ndarray, terms, couplings) -> dict:
    return {
        "hamiltonian": _cmatrix(h),
        "terms": [
            {"jump": _cmatrix(t.jump), "rate": t.rate, "bath": t.bath_label}
            for t in terms
        ],
        "baths": [{"label": lbl, "beta": beta} for (_, beta, _, lbl) in couplings],
    }


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return {name: data[:, j] for j, name in enumerate(header)}


# --- op builders ----------------------------------------------------------------------

def _engine_check(report, single: bool) -> list:
    bad = []
    values = (report.p_bar_resolvent, report.p_bar_fast, report.identity_residual)
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite report {values}"]
    if report.identity_residual >= 1e-6:
        bad.append(f"identity residual {report.identity_residual:.3e} >= 1e-6")
    rel = abs(report.p_bar_resolvent - report.p_bar_fast) / abs(report.p_bar_fast)
    if rel >= 0.01:
        bad.append(f"resolvent and fast powers differ by {rel:.3e} (gate 05: < 1 %)")
    if single:
        for label, v in (("bound", report.single_bath),
                         ("resolvent", report.p_bar_resolvent),
                         ("fast", report.p_bar_fast)):
            if v is None or not math.isfinite(v) or v > 1e-12:
                bad.append(f"single-bath {label} power {v} is not <= 1e-12")
    return bad


def _power_report_op(name: str, h0, m, couplings, beta=None) -> Op:
    def run():
        family = lindtherm.thermal_family(h0, m, couplings, amplitude=0.3, frequency=600.0)
        return lindtherm.power_report(family, beta=beta)

    return Op(name, "power_report", run, lambda r: _engine_check(r, beta is not None))


class _Cli:
    """Writes one generated config and runs it through ``lindtherm.cli.main``."""

    def __init__(self, work: Path, name: str, config: dict):
        self.cfg = work / f"{name}.json"
        self.out = work / name
        self.cfg.write_text(json.dumps(config))

    def run(self):
        return lindtherm.cli.main(["run", str(self.cfg), "--out", str(self.out)])

    def outputs(self, code, csv_name: str):
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        table = _read_csv(self.out / csv_name)
        for key, col in table.items():
            if not np.all(np.isfinite(col)):
                raise RuntimeError(f"non-finite values in column {key}")
        manifest = json.loads((self.out / "manifest.json").read_text())
        return table, manifest.get("extras", {})


def _superop(h: np.ndarray, terms) -> np.ndarray:
    """GKLS generator on column-stacked vectors, vec(A X B) = (B^T kron A) vec(X)."""
    eye = np.eye(h.shape[0])
    s = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for t in terms:
        v = np.sqrt(t.rate) * t.jump
        vdv = v.conj().T @ v
        s += np.kron(v.conj(), v) - 0.5 * (np.kron(eye, vdv) + np.kron(vdv.T, eye))
    return s


def _resolvent_power(h, m, terms, g: float, omega: float) -> float:
    """-(g^2/2) tr(rho' Omega^2 (Omega^2 + L*^2)^-1 L* M) for H0 + xi M, fixed terms.

    An independent reference for the CLI: rho_bar and rho' = d rho_bar / d xi
    come from exact bordered solves (L rho_bar = 0, tr rho_bar = 1;
    L rho' = i[M, rho_bar], tr rho' = 0) rather than finite differences,
    and L* is the adjoint of L's matrix.
    """
    d = h.shape[0]
    s = _superop(h, terms)
    bordered = np.vstack([s, np.eye(d).reshape(1, -1)])
    rhs = np.zeros(d * d + 1, dtype=complex)
    rhs[-1] = 1.0
    rho_bar = np.linalg.lstsq(bordered, rhs, rcond=None)[0].reshape(d, d, order="F")
    rhs[:-1] = (1j * (m @ rho_bar - rho_bar @ m)).reshape(-1, order="F")
    rhs[-1] = 0.0
    rho_prime = np.linalg.lstsq(bordered, rhs, rcond=None)[0].reshape(d, d, order="F")
    ls = s.conj().T
    y = np.linalg.solve(omega ** 2 * np.eye(d * d) + ls @ ls, ls @ m.reshape(-1, order="F"))
    return -0.5 * g * g * float(np.trace(rho_prime @ (omega ** 2 * y).reshape(d, d, order="F")).real)


def _engine_cli_op(work: Path, name: str, rng, d: int) -> Op:
    """CLI ``engine-power`` on a two-bath model whose Davies terms are frozen.

    The CLI drives the Hamiltonian only, H0 + xi M with fixed terms, so
    L' = -i[M, .] and the fast power -(g^2/2) tr(L(rho') M) =
    (g^2/2) tr(L'(rho_bar) M) = (g^2/2) i tr([M, rho_bar] M) vanishes
    identically.  The resolvent power is checked against
    ``_resolvent_power``.  M is drawn hermitian but not diagonal: a diagonal
    M commutes with a non-degenerate H0 and every frozen Davies jump, which
    leaves rho_bar independent of xi and both powers exactly zero.
    """
    h = np.diag(_spectrum(rng, d)).astype(complex)
    m = 0.3 * _coupling(rng, d)
    couplings = _two_bath_couplings(rng, d)
    terms = _frozen_davies(h, couplings)
    g, omega = 0.3, 600.0
    config = {
        "scenario": "engine-power",
        "model": _model_config(h, terms, couplings),
        "drive": {"observable": _cmatrix(m), "amplitude": g, "frequency": omega},
    }
    cli = _Cli(work, name, config)

    def check(code):
        table, _ = cli.outputs(code, "power_report.csv")
        res, fast = float(table["pBarResolvent"][0]), float(table["pBarFast"][0])
        ident = float(table["identityResidual"][0])
        bad = []
        if ident >= 1e-6:
            bad.append(f"identity residual {ident:.3e} >= 1e-6")
        if abs(fast) > 1e-10:
            bad.append(f"fast power {fast:.3e} of a Hamiltonian-only drive is not zero")
        ref = _resolvent_power(h, m, terms, g, omega)
        if abs(res - ref) > 1e-4 * abs(ref):
            bad.append(f"resolvent power {res:.6e} is not within 1e-4 of the reference {ref:.6e}")
        return bad

    return Op(name, "engine_power", cli.run, check)


def _evolve_op(work: Path, name: str, h, terms, couplings, rho0, steps, dt, drive=None) -> Op:
    config = {
        "scenario": "evolve",
        "model": _model_config(h, terms, couplings),
        "initial": _cmatrix(rho0),
        "grid": {"t_max": steps * dt, "steps": steps},
    }
    if drive is not None:
        m, amplitude, frequency = drive
        config["drive"] = {"observable": _cmatrix(m), "amplitude": amplitude,
                           "frequency": frequency}
    cli = _Cli(work, name, config)

    def check(code):
        table, _ = cli.outputs(code, "thermo_trace.csv")
        bad = []
        if len(table["t"]) != steps + 1:
            bad.append(f"{len(table['t'])} rows for {steps} steps")
        lo = float(np.min(table["sigma"]))
        if lo < -1e-10:
            bad.append(f"entropy production {lo:.3e} < -1e-10")
        lo = float(np.min(table["secondLawResidual"]))
        if lo < -1e-6:
            bad.append(f"second-law residual {lo:.3e} < -1e-6")
        # dU/dt by central differences errs by dt^2 |U'''| / 6, and by
        # dt^2 |U'''| / 3 at the grid's two ends; U''' from third differences
        hi = float(np.max(np.abs(table["firstLawResidual"])))
        bound = float(np.max(np.abs(np.diff(table["U"], 3)))) / dt + 1e-9
        if hi >= bound:
            bad.append(f"first-law residual {hi:.3e} >= dt^2 max|U'''| = {bound:.3e}")
        return bad

    return Op(name, "evolve", cli.run, check)


def _pv_op(work: Path, name: str, rng, n_c: int, n_v: int, points: int) -> Op:
    beta = 1.0 / (KB * 300.0)
    beta1 = 1e-3 / KB
    gamma = 0.01
    pv = {
        "conduction_energies": [1.0] * n_c,
        "valence_energies": [0.0] * n_v,
        "beta": beta,
        "beta1": beta1,
        "inter_rates": (gamma * rng.uniform(0.5, 2.0, (n_c, n_v))).tolist(),
        "amplitude": 0.2,
        "frequency": 50.0,
    }
    for key, n in (("intra_rates_c", n_c), ("intra_rates_v", n_v)):
        if n > 1:
            pv[key] = (gamma * rng.uniform(0.5, 2.0, (n, n)) * (1 - np.eye(n))).tolist()
    v_oc = 1.0 * (1.0 - beta1 / beta)
    # points 0.01 apart centred on v_oc up to |jitter| < 0.004, so both ends
    # of the bracket around v_oc lie within 0.014 = 2 % of it
    jitter = float(rng.uniform(-0.004, 0.004))
    half = 0.005 * (points - 1)
    sweep = {"v_min": v_oc - half + jitter, "v_max": v_oc + half + jitter, "points": points}
    cli = _Cli(work, name, {"scenario": "pv-sweep", "pv": pv, "sweep": sweep})

    def check(code):
        table, _ = cli.outputs(code, "pv_curve.csv")
        v, p = table["V"], table["pNumeric"]
        positive = p > 0.0
        flips = np.flatnonzero(positive[:-1] != positive[1:])
        if flips.size != 1:
            return [f"pNumeric changes sign {flips.size} times, expected once"]
        lo, hi = v[flips[0]], v[flips[0] + 1]
        if max(abs(lo - v_oc), abs(hi - v_oc)) > 0.02 * v_oc:
            return [f"sign change in [{lo:.4f}, {hi:.4f}] is not within 2 % of v_oc {v_oc}"]
        return []

    return Op(name, "pv_sweep", cli.run, check)


def _chem_op(work: Path, name: str, rng, dim: int, steps: int, t_max: float) -> Op:
    # the rates set the band evolver's norm and so its work; the seed draws
    # omega and the phase of alpha0, which change the values but not the work
    gu, gd, gam = 0.5, 0.25, 0.05
    omega = float(rng.uniform(0.8, 1.2))
    alpha0 = 3.0 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    config = {
        "scenario": "chem-engine",
        "chem": {"omega": omega, "gamma_up": gu, "gamma_down": gd,
                 "decoherence": gam, "dim": dim},
        "initial_alpha": [float(alpha0.real), float(alpha0.imag)],
        "grid": {"t_max": t_max, "steps": steps},
    }
    cli = _Cli(work, name, config)

    def check(code):
        table, extras = cli.outputs(code, "chem_trace.csv")
        bad = []
        if extras.get("truncated", True):
            bad.append("run was truncated")
        t = table["t"]
        if len(t) != steps + 1:
            bad.append(f"{len(t)} rows for {steps} steps")
        # closed forms of gate 07, from E0 = omega |alpha0|^2
        grow = gu - gd
        e_ref = np.exp(grow * t) * omega * abs(alpha0) ** 2 + (np.exp(grow * t) - 1.0) * omega * gu / grow
        a_ref = abs(alpha0) * np.exp((0.5 * grow - gam) * t)
        e_err = np.abs(table["E_numeric"] - e_ref) / (1.0 + e_ref)
        a_err = np.abs(table["alpha_abs_numeric"] - a_ref)
        if e_err.max() >= 1e-6:
            bad.append(f"energy misses its closed form by {e_err.max():.3e} (relative)")
        if a_err.max() >= 1e-6:
            bad.append(f"|alpha| misses its closed form by {a_err.max():.3e}")
        return bad

    return Op(name, "chem_engine", cli.run, check)


def _replicator_op(work: Path, name: str, rng, trajectories: int) -> Op:
    # gate 10's rates; the seed draws the Gillespie seed
    gu, gd, n0 = 0.5, 0.25, 2
    config = {
        "scenario": "replicator", "gamma_up": gu, "gamma_down": gd,
        "n0": n0, "n_max": 60, "grid": {"t_max": 1.5, "steps": 6},
        "trajectories": trajectories, "seed": int(rng.integers(0, 2**31)),
    }
    cli = _Cli(work, name, config)

    def check(code):
        table, _ = cli.outputs(code, "repl_stats.csv")
        bad = []
        gap = np.abs(table["mean_mc"] - table["mean_ode"])
        stderr = table["stderr_mc"]
        miss = np.flatnonzero(gap > 4.0 * stderr)
        if miss.size:
            bad.append(f"Gillespie mean is beyond 4 stderr of the master equation at rows {miss.tolist()}")
        # linear birth-death: <n>(t) = (n0 + gu/r) e^{rt} - gu/r with r = gu - gd
        r = gu - gd
        mean_ref = (n0 + gu / r) * np.exp(r * table["t"]) - gu / r
        rel = np.abs(table["mean_ode"] - mean_ref) / mean_ref
        if rel.max() >= 1e-6:
            bad.append(f"master-equation mean misses its closed form by {rel.max():.3e}")
        return bad

    return Op(name, "replicator", cli.run, check)


# --- workloads ------------------------------------------------------------------------

def _gate03_qubit():
    """The two-bath driven qubit of gate 03, with its Davies terms frozen at xi = 0."""
    h0 = np.diag([0.0, 1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    couplings = [(sx, 2.0, 0.8, "cold"), (sx, 0.5, 0.6, "hot")]
    rho0 = lindtherm.gibbs_state(h0, 2.0).matrix
    return h0, couplings, rho0, (np.diag([0.0, 0.3]), 0.4, 2.0)


def build(name: str, seed: int, work: Path, sizes: dict = FULL) -> list:
    """The fixed op list of one workload, generated from ``seed``.

    Config files are written under ``work``; each op overwrites its own
    output directory there when it runs.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    if name == "engine-dense":
        for d in sizes["engine_dims"]:
            h0 = np.diag(_spectrum(rng, d)).astype(complex)
            m = np.diag(rng.uniform(-1.0, 1.0, d))
            ops.append(_power_report_op(f"power_report_d{d}", h0, m, _two_bath_couplings(rng, d)))
        d = sizes["engine_single_dim"]
        h0 = np.diag(_spectrum(rng, d)).astype(complex)
        m = np.diag(rng.uniform(-1.0, 1.0, d))
        beta = float(rng.uniform(0.5, 1.5))
        ops.append(_power_report_op(f"power_report_single_d{d}", h0, m,
                                       [(_coupling(rng, d), beta, 0.6, "bath")], beta=beta))
        ops.append(_engine_cli_op(work, "engine_power_cli", rng, sizes["engine_cli_dim"]))
    elif name == "evolve-driven":
        steps, dt = sizes["evolve_driven_steps"], 1e-3
        h0, couplings, rho0, drive = _gate03_qubit()
        ops.append(_evolve_op(work, "evolve_qubit_gate03", h0, _frozen_davies(h0, couplings),
                                 couplings, rho0, steps, dt, drive))
        h = np.diag(_spectrum(rng, 3)).astype(complex)
        couplings = _two_bath_couplings(rng, 3)
        drive = (np.diag(rng.uniform(-0.3, 0.3, 3)), 0.3, float(rng.uniform(1.5, 3.0)))
        ops.append(_evolve_op(work, "evolve_qutrit_driven", h, _frozen_davies(h, couplings),
                                 couplings, _wishart_state(rng, 3), steps, dt, drive))
    elif name == "term-loops":
        d = sizes["evolve_static_dim"]
        h = np.diag(_spectrum(rng, d)).astype(complex)
        couplings = _two_bath_couplings(rng, d)
        ops.append(_evolve_op(work, f"evolve_static_d{d}", h, _frozen_davies(h, couplings),
                                 couplings, _wishart_state(rng, d),
                                 sizes["evolve_static_steps"], 1e-3))
        n_c, n_v = sizes["pv_modes"]
        ops.append(_pv_op(work, f"pv_sweep_{n_c + n_v}modes", rng, n_c, n_v, sizes["pv_points"]))
    else:
        ops.append(_chem_op(work, f"chem_engine_dim{sizes['chem_dim']}", rng,
                               sizes["chem_dim"], sizes["chem_steps"], sizes["chem_t_max"]))
        ops.append(_replicator_op(work, "replicator", rng, sizes["repl_trajectories"]))
    return ops
