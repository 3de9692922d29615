"""Configuration-driven scenario runner.

Usage:  lindtherm run <config.json> --out <dir> [--seed N] [--override k=v]

The config is a single JSON document selecting one scenario and its model
and grid parameters; unknown keys anywhere are rejected with the offending
field path.  Every run emits one or more CSV files (17-significant-digit
numerics, fixed header row) plus manifest.json capturing the fully
resolved config, so re-running the manifest reproduces the outputs
byte for byte.  Exit codes: 0 success, 2 config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, LindthermError, NumericalDrift
from .gkls import (
    GeneratorFamily,
    GklsGenerator,
    LindbladTerm,
    _Channels,
    _checked_hermitian,
    evolve,
    evolve_driven,
    modulated_family,
)
from .engine import power_report
from .models.chem import (
    _coherent_amplitudes,
    ChemSpec,
    Chemistry,
    BirthDeathState,
    analytic_amplitude,
    analytic_energy,
    birth_death_evolve,
    birth_death_mean,
    evolve_oscillator,
    gillespie_ensemble,
)
from .models.pv import (
    PvSpec,
    open_circuit_voltage,
    pv_analytic_power,
    pv_grand_canonical,
    pv_power_current,
)
from .operators import DensityMatrix, hermiticity_defect, hermitize
from .thermo import BathAssignment, law_residuals
from .tolerances import DEFAULT, Tolerances

__all__ = ["main", "run_scenario"]


# --- config walking ----------------------------------------------------------

def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}" if path else message)


def _check_keys(node: dict, path: str, allowed, required):
    if not isinstance(node, dict):
        _fail(path, f"expected an object, got {type(node).__name__}")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        _fail(path, f"unknown keys {unknown}; allowed keys are {sorted(allowed)}")
    missing = sorted(set(required) - set(node))
    if missing:
        _fail(path, f"missing required keys {missing}")


def _number(node, path: str, minimum=None, strict_min=None) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a number, got {node!r}")
    try:
        x = float(node)
    except OverflowError:  # an integer beyond the float range
        x = np.inf if node > 0 else -np.inf
    if not np.isfinite(x):
        _fail(path, f"must be finite, got {x}")
    if minimum is not None and x < minimum:
        _fail(path, f"must be >= {minimum}, got {x}")
    if strict_min is not None and x <= strict_min:
        _fail(path, f"must be > {strict_min}, got {x}")
    return x


def _integer(node, path: str, minimum=None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, f"expected an integer, got {node!r}")
    if not -2 ** 63 <= node < 2 ** 63:
        _fail(path, "must fit in a 64-bit integer")
    if minimum is not None and node < minimum:
        _fail(path, f"must be >= {minimum}, got {node}")
    return node


def _string(node, path: str, choices=None) -> str:
    if not isinstance(node, str):
        _fail(path, f"expected a string, got {node!r}")
    if choices is not None and node not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {node!r}")
    return node


# exact entry types a JSON number parses to; bool is not among them
_NUMBERS = frozenset((int, float))


def _matrix_width(node, path: str) -> int:
    if not isinstance(node, list) or not node or not all(isinstance(r, list) for r in node):
        _fail(path, "expected a matrix as a list of rows")
    return len(node[0])


def _entry_types(rows) -> set:
    """The exact types of all entries of a list of lists, gathered in C."""
    return set(map(type, chain.from_iterable(rows)))


def _is_rectangular(node, width: int) -> bool:
    return set(map(len, node)) == {width}


def _real_matrix(node, path: str) -> np.ndarray:
    width = _matrix_width(node, path)
    if _is_rectangular(node, width) and _entry_types(node) <= _NUMBERS:
        try:
            return _finite_matrix(np.array(node, dtype=float), path)
        except OverflowError:  # an integer beyond the float range: the walk names it
            pass
    # the row-by-row walk names the first bad row or entry
    out = np.zeros((len(node), width))
    for i, row in enumerate(node):
        if len(row) != width:
            _fail(f"{path}[{i}]", f"row length {len(row)} != {width}")
        out[i] = [_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
    return out


def _finite_matrix(out: np.ndarray, path: str) -> np.ndarray:
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        _fail(f"{path}[{i}][{j}]", f"must be finite, got {out[i, j]}")
    return out


def _complex_entry(node, path: str) -> complex:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(_number(node, path))
    if (
        isinstance(node, list)
        and len(node) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        return complex(_number(node[0], path), _number(node[1], path))
    _fail(path, f"expected a number or [re, im] pair, got {node!r}")


def _complex_matrix(node, path: str) -> np.ndarray:
    """A matrix of numbers or of [re, im] pairs, converted by one np.array.

    Any other mix of entries goes through the entry-by-entry walk, which
    accepts the same forms and names the first bad row or entry.
    """
    width = _matrix_width(node, path)
    try:
        if _is_rectangular(node, width):
            kinds = _entry_types(node)
            if kinds <= _NUMBERS:
                return _finite_matrix(np.array(node, dtype=complex), path)
            if (
                kinds == {list}
                and set(map(len, chain.from_iterable(node))) == {2}
                and _entry_types(chain.from_iterable(node)) <= _NUMBERS
            ):
                pairs = np.array(node, dtype=float)  # (rows, width, 2), C order
                return _finite_matrix(pairs.view(complex)[..., 0], path)
    except OverflowError:  # an integer beyond the float range: the walk names it
        pass
    out = np.zeros((len(node), width), dtype=complex)
    for i, row in enumerate(node):
        if len(row) != width:
            _fail(f"{path}[{i}]", f"row length {len(row)} != {width}")
        for j, x in enumerate(row):
            out[i, j] = _complex_entry(x, f"{path}[{i}][{j}]")
    return out


def _stacked_matrices(nodes: list, shape: tuple) -> np.ndarray:
    """The matrices ``nodes`` as one complex (n, *shape) array by one np.array, or None.

    None unless each node is a matrix of ``shape``, all entries numbers or
    all [re, im] pairs of numbers (one type scan), and finite; the
    matrix-by-matrix walk then names the first bad row or entry.
    """
    try:
        out = np.array(nodes, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    entries = chain.from_iterable(chain.from_iterable(nodes))
    if out.shape == (len(nodes), *shape, 2):
        out, entries = out.view(complex)[..., 0], chain.from_iterable(entries)
    if out.shape != (len(nodes), *shape) or not _entry_types([entries]) <= _NUMBERS:
        return None
    return out if np.isfinite(out).all() else None


def _number_list(node, path: str) -> list:
    if not isinstance(node, list) or not node:
        _fail(path, "expected a nonempty list of numbers")
    out = []
    for i, x in enumerate(node):
        out.append(_number(x, f"{path}[{i}]"))
    return out


def _grid(node, path: str) -> np.ndarray:
    _check_keys(node, path, {"t_max", "steps"}, {"t_max", "steps"})
    t_max = _number(node["t_max"], f"{path}.t_max", strict_min=0.0)
    steps = _integer(node["steps"], f"{path}.steps", minimum=1)
    return np.linspace(0.0, t_max, steps + 1)


def _tolerances(node, path: str) -> Tolerances:
    if node is None:
        return DEFAULT
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    _check_keys(node, path, fields, set())
    values = {k: _number(v, f"{path}.{k}", strict_min=0.0) for k, v in node.items()}
    return DEFAULT.with_(**values)


def _hermitian_part(x: np.ndarray, path: str, tol: Tolerances) -> np.ndarray:
    """Hermitian part of a square x whose defect is within the config's
    tolerances.hamiltonian_hermiticity (the library checks against the
    default)."""
    defect = hermiticity_defect(x)
    if defect > tol.hamiltonian_hermiticity:
        _fail(path, f"hermiticity defect {defect:.3e} exceeds "
                    f"tolerances.hamiltonian_hermiticity = {tol.hamiltonian_hermiticity:.1e}")
    return hermitize(x)


def _model(node, path: str, tol: Tolerances):
    _check_keys(node, path, {"hamiltonian", "terms", "baths"}, {"hamiltonian", "terms"})
    h = _complex_matrix(node["hamiltonian"], f"{path}.hamiltonian")
    if h.shape[0] == h.shape[1]:
        h = _hermitian_part(h, f"{path}.hamiltonian", tol)
    items = node["terms"]
    if not isinstance(items, list):
        _fail(f"{path}.terms", "expected a list")
    # all jumps in one np.array; if that fails, the term-by-term walk names the bad entry
    jumps = _stacked_matrices([item.get("jump") if isinstance(item, dict) else None
                               for item in items], h.shape)
    terms, rates, labels = [], [], []
    for i, item in enumerate(items):
        tp = f"{path}.terms[{i}]"
        _check_keys(item, tp, {"jump", "rate", "bath"}, {"jump", "rate"})
        rates.append(_number(item["rate"], f"{tp}.rate", minimum=0.0))
        labels.append(_string(item["bath"], f"{tp}.bath") if "bath" in item else "")
        if jumps is None:
            jump = _complex_matrix(item["jump"], f"{tp}.jump")
            terms.append(LindbladTerm(jump, rates[i], labels[i]))
    baths = []
    for i, item in enumerate(node.get("baths", [])):
        bp = f"{path}.baths[{i}]"
        _check_keys(item, bp, {"label", "beta"}, {"label", "beta"})
        baths.append(
            BathAssignment(_string(item["label"], f"{bp}.label"),
                           _number(item["beta"], f"{bp}.beta"))
        )
    try:
        if jumps is None:
            gen = GklsGenerator(h, tuple(terms))
        else:  # the terms are made from the config when first read
            gen = GklsGenerator._of(_checked_hermitian(h, "hamiltonian"), _Channels(
                jumps, np.array(rates), labels, lambda: tuple(map(
                    LindbladTerm, _stacked_matrices([item["jump"] for item in items], h.shape),
                    rates, labels))))
    except NumericalDrift as exc:
        raise NumericalDrift(f"{path}.{exc}") from None
    except LindthermError as exc:
        _fail(path, str(exc))
    return gen, baths


def _drive(node, path: str, dim: int, tol: Tolerances):
    _check_keys(
        node, path, {"observable", "amplitude", "frequency"},
        {"observable", "amplitude", "frequency"},
    )
    m = _complex_matrix(node["observable"], f"{path}.observable")
    if m.shape != (dim, dim):
        _fail(f"{path}.observable", f"shape {m.shape} does not match model dim {dim}")
    m = _hermitian_part(m, f"{path}.observable", tol)
    return (
        m,
        _number(node["amplitude"], f"{path}.amplitude"),
        _number(node["frequency"], f"{path}.frequency", strict_min=0.0),
    )


def _pv_spec(node, path: str) -> PvSpec:
    allowed = {
        "conduction_energies", "valence_energies", "beta", "beta1",
        "inter_rates", "intra_rates_c", "intra_rates_v", "mu_v",
        "amplitude", "frequency",
    }
    required = {"conduction_energies", "valence_energies", "beta", "beta1", "inter_rates"}
    _check_keys(node, path, allowed, required)
    kwargs = dict(
        conduction_energies=tuple(_number_list(node["conduction_energies"],
                                               f"{path}.conduction_energies")),
        valence_energies=tuple(_number_list(node["valence_energies"],
                                            f"{path}.valence_energies")),
        beta=_number(node["beta"], f"{path}.beta", strict_min=0.0),
        beta1=_number(node["beta1"], f"{path}.beta1", minimum=0.0),
        inter_rates=_real_matrix(node["inter_rates"], f"{path}.inter_rates"),
        mu_v=_number(node.get("mu_v", 0.0), f"{path}.mu_v"),
        amplitude=_number(node.get("amplitude", 0.0), f"{path}.amplitude"),
        frequency=_number(node.get("frequency", 1.0), f"{path}.frequency", strict_min=0.0),
    )
    for key in ("intra_rates_c", "intra_rates_v"):
        if key in node:
            kwargs[key] = _real_matrix(node[key], f"{path}.{key}")
    try:
        return PvSpec(**kwargs)
    except (LindthermError, ValueError) as exc:
        _fail(path, str(exc))


def _chem_spec(node, path: str) -> ChemSpec:
    allowed = {"omega", "gamma_up", "gamma_down", "decoherence", "dim", "chemistry"}
    _check_keys(node, path, allowed, {"omega", "gamma_up", "gamma_down"})
    chemistry = None
    if "chemistry" in node:
        cp = f"{path}.chemistry"
        _check_keys(node["chemistry"], cp, {"beta", "mu_a", "mu_b", "mu_c"},
                    {"beta", "mu_a", "mu_b", "mu_c"})
        chemistry = Chemistry(
            beta=_number(node["chemistry"]["beta"], f"{cp}.beta"),
            mu_a=_number(node["chemistry"]["mu_a"], f"{cp}.mu_a"),
            mu_b=_number(node["chemistry"]["mu_b"], f"{cp}.mu_b"),
            mu_c=_number(node["chemistry"]["mu_c"], f"{cp}.mu_c"),
        )
    kwargs = dict(
        omega=_number(node["omega"], f"{path}.omega"),
        gamma_up=_number(node["gamma_up"], f"{path}.gamma_up", minimum=0.0),
        gamma_down=_number(node["gamma_down"], f"{path}.gamma_down", minimum=0.0),
        decoherence=_number(node.get("decoherence", 0.0), f"{path}.decoherence", minimum=0.0),
        dim=_integer(node.get("dim", 60), f"{path}.dim", minimum=2),
        chemistry=chemistry,
    )
    try:
        return ChemSpec(**kwargs)
    except LindthermError as exc:
        _fail(path, str(exc))


# --- output helpers ----------------------------------------------------------

def _write_csv(path: Path, header, rows):
    values = np.array(rows, dtype=float)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise NumericalDrift(
            f"{path.name}: column {header[j]} has non-finite value {values[i, j]} in row {i}"
        )
    fmt = ",".join(["%.17g"] * len(header))  # each value as a float64, round-trip exact
    lines = [",".join(header)] + [fmt % tuple(row) for row in values.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(out_dir: Path, scenario: str, config: dict, outputs, extras) -> dict:
    manifest = {
        "config": config,
        "scenario": scenario,
        "outputs": sorted(outputs),
        "version": __version__,
    }
    if extras:
        manifest["extras"] = extras
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return manifest


# --- scenarios ---------------------------------------------------------------

def _run_evolve(config: dict, out_dir: Path, seed: int, tol: Tolerances):
    gen, baths = _model(config["model"], "model", tol)
    if not baths:
        _fail("model.baths", "evolve needs at least one bath assignment")
    initial = _complex_matrix(config["initial"], "initial")
    if initial.shape != (gen.dim, gen.dim):
        _fail("initial", f"shape {initial.shape} does not match model dim {gen.dim}")
    try:
        rho0 = DensityMatrix(initial, tol)
    except LindthermError as exc:
        _fail("initial", str(exc))
    times = _grid(config["grid"], "grid")
    if "drive" in config:
        m, g, om = _drive(config["drive"], "drive", gen.dim, tol)
        family = modulated_family(gen, m, g, om)
        traj = evolve_driven(family, rho0, times, tol=tol)
    else:
        m = np.zeros((gen.dim, gen.dim), dtype=complex)
        family = GeneratorFamily(lambda xi: gen, m, 0.0, 1.0)
        traj = evolve(gen, rho0, times, tol=tol)
    samples = law_residuals(traj, family, baths, tol)
    labels = [b.bath_label for b in baths]
    header = ["t", "U", "P"] + [f"J_{l}" for l in labels] + [
        "S", "sigma", "firstLawResidual", "secondLawResidual"]
    rows = [
        [s.time, s.energy, s.power] + [s.currents[l] for l in labels]
        + [s.entropy, s.sigma, s.first_law_residual, s.second_law_residual]
        for s in samples
    ]
    _write_csv(out_dir / "thermo_trace.csv", header, rows)
    return ["thermo_trace.csv"], {}


def _run_pv_sweep(config: dict, out_dir: Path, seed: int, tol: Tolerances):
    spec = _pv_spec(config["pv"], "pv")
    sw = config["sweep"]
    _check_keys(sw, "sweep", {"v_min", "v_max", "points"}, {"v_min", "v_max", "points"})
    v_min = _number(sw["v_min"], "sweep.v_min")
    v_max = _number(sw["v_max"], "sweep.v_max")
    points = _integer(sw["points"], "sweep.points", minimum=2)
    if v_max <= v_min:
        _fail("sweep.v_max", f"must exceed v_min = {v_min}")
    if not np.isfinite(v_max - v_min):
        _fail("sweep.v_max", f"v_max - v_min overflows (v_min = {v_min})")
    voltages = np.linspace(v_min, v_max, points)
    try:
        numeric = pv_power_current(spec, voltages)
    except NumericalDrift as exc:
        # the sweep varies only the voltage: name v_min if the sweep already
        # fails there, else the v_max end that it ran into
        key = "sweep.v_max"
        try:
            pv_grand_canonical(spec, 0.0, v_min)
        except NumericalDrift:
            key = "sweep.v_min"
        raise NumericalDrift(f"{key}: {exc}") from exc
    rows = [
        [v, pv_analytic_power(spec, v), p]
        for v, p in zip(voltages, numeric)
    ]
    _write_csv(out_dir / "pv_curve.csv", ["V", "pAnalytic", "pNumeric"], rows)
    return ["pv_curve.csv"], {"v_oc": open_circuit_voltage(spec)}


def _run_chem_engine(config: dict, out_dir: Path, seed: int, tol: Tolerances):
    spec = _chem_spec(config["chem"], "chem")
    alpha0 = _complex_entry(config["initial_alpha"], "initial_alpha")
    times = _grid(config["grid"], "grid")
    overflow = _string(config.get("overflow", "truncate"), "overflow",
                       {"raise", "truncate"})
    # every CSV column is invariant under e^{i phi N}, so the run starts from
    # the real |alpha0|: its bands stay real and propagate as one real basis.
    # The evolver checks the rank-one start in band storage, so it is passed
    # as a plain matrix, not a DensityMatrix.
    psi = _coherent_amplitudes(abs(alpha0), spec.dim).real
    initial = np.outer(psi, psi)
    traj = evolve_oscillator(spec, initial, times, on_overflow=overflow, tol=tol)
    e0 = float(traj.energies[0])
    e_analytic = analytic_energy(spec, e0, traj.times)
    a_analytic = np.abs(analytic_amplitude(spec, alpha0, traj.times))
    rows = []
    for i in range(traj.times.size):
        w_e = traj.ergotropy(i)
        e_num = float(traj.energies[i])
        eta = w_e / e_num if e_num > 0 else 0.0
        rows.append([
            traj.times[i], e_num, e_analytic[i],
            abs(traj.amplitudes[i]), a_analytic[i], w_e, eta,
        ])
    _write_csv(
        out_dir / "chem_trace.csv",
        ["t", "E_numeric", "E_analytic", "alpha_abs_numeric",
         "alpha_abs_analytic", "ergotropy", "eta"],
        rows,
    )
    return ["chem_trace.csv"], {"truncated": traj.truncated}


def _run_replicator(config: dict, out_dir: Path, seed: int, tol: Tolerances):
    gu = _number(config["gamma_up"], "gamma_up", minimum=0.0)
    gd = _number(config["gamma_down"], "gamma_down", minimum=0.0)
    n0 = _integer(config["n0"], "n0", minimum=0)
    n_max = _integer(config["n_max"], "n_max", minimum=1)
    if n0 > n_max:
        _fail("n0", f"must be <= n_max = {n_max}")
    trajectories = _integer(config["trajectories"], "trajectories", minimum=1)
    times = _grid(config["grid"], "grid")
    p0 = np.zeros(n_max + 1)
    p0[n0] = 1.0
    ode = birth_death_evolve(BirthDeathState(p0), gu, gd, times)
    mc = gillespie_ensemble(n0, gu, gd, times, trajectories, seed)
    ns = np.arange(n_max + 1)
    rows = []
    for i, state in enumerate(ode):
        mean = birth_death_mean(state)
        var = float(np.dot(ns * ns, state.probs)) - mean * mean
        rows.append([times[i], mean, var, mc.mean[i], mc.stderr[i],
                     mc.extinction_fraction[i]])
    _write_csv(
        out_dir / "repl_stats.csv",
        ["t", "mean_ode", "var_ode", "mean_mc", "stderr_mc", "extinction_fraction"],
        rows,
    )
    return ["repl_stats.csv"], {}


def _run_engine_power(config: dict, out_dir: Path, seed: int, tol: Tolerances):
    gen, _ = _model(config["model"], "model", tol)
    m, g, om = _drive(config["drive"], "drive", gen.dim, tol)
    family = modulated_family(gen, m, g, om)
    beta = None
    if "beta" in config:
        beta = _number(config["beta"], "beta")
    report = power_report(family, beta=beta, tol=tol)
    _write_csv(
        out_dir / "power_report.csv",
        ["pBarResolvent", "pBarFast", "identityResidual"],
        [[report.p_bar_resolvent, report.p_bar_fast, report.identity_residual]],
    )
    extras = {}
    if report.single_bath is not None:
        extras["single_bath_bound"] = report.single_bath
    return ["power_report.csv"], extras


# scenario: (runner, its optional keys, its required keys); every scenario
# also takes "scenario" (required), "seed" and "tolerances"
_RUNNERS = {
    "evolve": (_run_evolve, {"drive"}, {"model", "initial", "grid"}),
    "pv-sweep": (_run_pv_sweep, set(), {"pv", "sweep"}),
    "chem-engine": (_run_chem_engine, {"overflow"}, {"chem", "initial_alpha", "grid"}),
    "replicator": (_run_replicator, set(),
                   {"gamma_up", "gamma_down", "n0", "n_max", "grid", "trajectories"}),
    "engine-power": (_run_engine_power, {"beta"}, {"model", "drive"}),
}


# --- entry points ------------------------------------------------------------

def _apply_override(config: dict, spec: str):
    if "=" not in spec:
        _fail("--override", f"expected key=value, got {spec!r}")
    key, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def run_scenario(config: dict, out_dir, seed_override: int = None) -> dict:
    """Validate and execute one scenario; returns the manifest dict."""
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a JSON object")
    if "scenario" not in config:
        _fail("scenario", "missing required key")
    scenario = _string(config["scenario"], "scenario", _RUNNERS)
    seed = config.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    seed = _integer(seed, "seed", minimum=0)
    tol = _tolerances(config.get("tolerances"), "tolerances")
    resolved = dict(config)
    resolved["seed"] = seed

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner, optional, required = _RUNNERS[scenario]
    _check_keys(resolved, "", {"scenario", "seed", "tolerances"} | optional | required,
                {"scenario"} | required)
    outputs, extras = runner(resolved, out, seed, tol)
    return _write_manifest(out, scenario, resolved, outputs, extras)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lindtherm",
        description="GKLS thermodynamics scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario from a JSON config")
    run.add_argument("config", help="path to the JSON config (or a manifest.json)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="seed override (wins over the config)")
    run.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="dotted-path config override, repeatable")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config} is not valid JSON: {exc}", file=sys.stderr)
        return 2

    if isinstance(data, dict) and "config" in data and "scenario" in data:
        # a manifest from an earlier run: replay its embedded config
        data = data["config"]

    try:
        for spec in args.override:
            _apply_override(data, spec)
        run_scenario(data, args.out, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LindthermError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0
