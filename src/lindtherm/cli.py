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
from .errors import ConfigError, LindthermError, NumericalDrift, TruncationOverflow
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


def _matrices(nodes: list, paths, real: bool = False, dim: int = None) -> np.ndarray:
    """The matrices ``nodes`` as one (n, rows, cols) array, float if ``real`` else complex.

    Each node must be a nonempty list of equal-length rows of finite numbers
    (or, unless ``real``, numbers and [re, im] pairs), (dim, dim) if ``dim``
    is given.  When every node is such a matrix of one shape, all entries
    numbers or all pairs, one np.array and one entry-type scan convert the
    stack; otherwise the walk converts node by node and names the first bad
    matrix, row, entry or shape by its key path, paths[k].
    """
    try:
        out = np.array(nodes, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or not numbers: the walk names it
        out = np.empty(0)
    rows = chain.from_iterable(nodes)
    pairs = out.ndim == 4 and out.shape[-1] == 2 and not real
    if pairs:
        out, rows = out.view(complex)[..., 0], chain.from_iterable(rows)
    if (out.ndim == 3 and (dim is None or out.shape[1:] == (dim, dim))
            and np.isfinite(out).all() and set(map(type, chain.from_iterable(rows))) <= _NUMBERS):
        return out if real or pairs else out.astype(complex)
    convert = _number if real else _complex_entry
    walked = []
    for node, path in zip(nodes, paths):
        if not isinstance(node, list) or not node or not all(isinstance(r, list) for r in node):
            _fail(path, "expected a matrix as a list of rows")
        width = len(node[0])
        for i, row in enumerate(node):
            if len(row) != width:
                _fail(f"{path}[{i}]", f"row length {len(row)} != {width}")
        walked.append([[convert(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
                       for i, row in enumerate(node)])
        if dim is not None and (len(node), width) != (dim, dim):
            _fail(path, f"shape {(len(node), width)} does not match model dim {dim}")
    out = np.array(walked, dtype=float if real else complex)
    return out if dim is None else out.reshape(-1, dim, dim)


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
    h = _matrices([node["hamiltonian"]], [f"{path}.hamiltonian"])[0]
    if h.shape[0] != h.shape[1]:
        _fail(f"{path}.hamiltonian", f"must be a square matrix, got shape {h.shape}")
    h = _hermitian_part(h, f"{path}.hamiltonian", tol)
    items = node["terms"]
    if not isinstance(items, list):
        _fail(f"{path}.terms", "expected a list")
    rates, labels = [], []
    for i, item in enumerate(items):
        tp = f"{path}.terms[{i}]"
        _check_keys(item, tp, {"jump", "rate", "bath"}, {"jump", "rate"})
        rates.append(_number(item["rate"], f"{tp}.rate", minimum=0.0))
        labels.append(_string(item["bath"], f"{tp}.bath") if "bath" in item else "")
    nodes = [item["jump"] for item in items]
    paths = [f"{path}.terms[{i}].jump" for i in range(len(items))]
    jumps = _matrices(nodes, paths, dim=len(h))
    baths = []
    for i, item in enumerate(node.get("baths", [])):
        bp = f"{path}.baths[{i}]"
        _check_keys(item, bp, {"label", "beta"}, {"label", "beta"})
        baths.append(
            BathAssignment(_string(item["label"], f"{bp}.label"),
                           _number(item["beta"], f"{bp}.beta"))
        )
    try:  # the terms are read from the config again when first asked for
        gen = GklsGenerator._of(_checked_hermitian(h, "hamiltonian"), _Channels(
            jumps, np.array(rates), labels, lambda: tuple(map(
                LindbladTerm, _matrices(nodes, paths, dim=len(h)), rates, labels))))
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
    m = _matrices([node["observable"]], [f"{path}.observable"], dim=dim)[0]
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
        inter_rates=_matrices([node["inter_rates"]], [f"{path}.inter_rates"], real=True)[0],
        mu_v=_number(node.get("mu_v", 0.0), f"{path}.mu_v"),
        amplitude=_number(node.get("amplitude", 0.0), f"{path}.amplitude"),
        frequency=_number(node.get("frequency", 1.0), f"{path}.frequency", strict_min=0.0),
    )
    for key in ("intra_rates_c", "intra_rates_v"):
        if key in node:
            kwargs[key] = _matrices([node[key]], [f"{path}.{key}"], real=True)[0]
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
    labels = [b.bath_label for b in baths]
    for i, label in enumerate(labels):
        if labels.index(label) < i:
            _fail(f"model.baths[{i}].label", f"bath {label!r} is already listed")
    for k, item in enumerate(config["model"]["terms"]):
        label = item.get("bath", "")
        if label not in labels:
            _fail(f"model.terms[{k}]" + (".bath" if "bath" in item else ""),
                  f"bath {label!r} is not listed in model.baths")
    initial = _matrices([config["initial"]], ["initial"], dim=gen.dim)[0]
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
        # fails at its first sample, else the v_max end that it ran into
        key = "sweep.v_min" if exc.sample == 0 else "sweep.v_max"
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
    try:
        traj = evolve_oscillator(spec, initial, times, on_overflow=overflow, tol=tol)
    except TruncationOverflow as exc:
        if getattr(exc, "sample", None) != 0:
            raise
        raise TruncationOverflow(
            f"initial_alpha: {exc}; raise chem.dim to hold this start") from exc
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
