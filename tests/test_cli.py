"""End-to-end checks of the scenario runner: exit codes, determinism, replay."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lindtherm.cli import (
    _complex_entry, _complex_matrix, _real_matrix, _write_csv, main, run_scenario,
)
from lindtherm.errors import ConfigError


ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def _evolve_config(**extra):
    config = {
        "scenario": "evolve",
        "model": {
            "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
            "terms": [
                {"jump": [[0.0, 1.0], [0.0, 0.0]], "rate": 1.0, "bath": "b"},
                {"jump": [[0.0, 0.0], [1.0, 0.0]], "rate": 0.5, "bath": "b"},
            ],
            "baths": [{"label": "b", "beta": 0.6931471805599453}],
        },
        "initial": [[0.5, 0.0], [0.0, 0.5]],
        "grid": {"t_max": 1.0, "steps": 50},
    }
    config.update(extra)
    return config


def _replicator_config(**extra):
    config = {
        "scenario": "replicator",
        "gamma_up": 0.4,
        "gamma_down": 0.3,
        "n0": 2,
        "n_max": 40,
        "grid": {"t_max": 1.0, "steps": 4},
        "trajectories": 200,
        "seed": 5,
    }
    config.update(extra)
    return config


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


# --- happy paths ---------------------------------------------------------------

def test_evolve_writes_trace_and_manifest(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _evolve_config())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "thermo_trace.csv")
    assert header == ["t", "U", "P", "J_b", "S", "sigma",
                      "firstLawResidual", "secondLawResidual"]
    assert rows.shape[0] == 51
    assert np.all(rows[:, 5] >= -1e-10)  # sigma column
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "evolve"
    assert manifest["outputs"] == ["thermo_trace.csv"]
    assert manifest["config"]["seed"] == 0


def test_evolve_with_drive(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _evolve_config(
        drive={"observable": [[0.0, 0.0], [0.0, 0.3]],
               "amplitude": 0.4, "frequency": 2.0}))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    _, rows = _read_csv(out / "thermo_trace.csv")
    assert np.max(np.abs(rows[:, 2])) > 0  # drive does work


def test_pv_sweep(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "pv-sweep",
        "pv": {
            "conduction_energies": [1.0],
            "valence_energies": [0.0],
            "beta": 2.0,
            "beta1": 0.6931471805599453,
            "inter_rates": [[4.0]],
        },
        "sweep": {"v_min": 0.1, "v_max": 0.9, "points": 5},
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "pv_curve.csv")
    assert header == ["V", "pAnalytic", "pNumeric"]
    assert rows.shape == (5, 3)
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-10
    manifest = json.loads((out / "manifest.json").read_text())
    v_oc = manifest["extras"]["v_oc"]
    assert 0.0 < v_oc < 1.0


def test_chem_engine(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "chem-engine",
        "chem": {"omega": 1.0, "gamma_up": 0.5, "gamma_down": 0.25, "dim": 40},
        "initial_alpha": 1.0,
        "grid": {"t_max": 1.0, "steps": 10},
        "overflow": "truncate",
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "chem_trace.csv")
    assert header == ["t", "E_numeric", "E_analytic", "alpha_abs_numeric",
                      "alpha_abs_analytic", "ergotropy", "eta"]
    assert rows.shape[0] == 11
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-8
    assert np.max(np.abs(rows[:, 3] - rows[:, 4])) < 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extras"]["truncated"] is False


def _chem_phase_config(alpha):
    return {
        "scenario": "chem-engine",
        "chem": {"omega": 1.1, "gamma_up": 0.5, "gamma_down": 0.25,
                 "decoherence": 0.05, "dim": 60},
        "initial_alpha": alpha,
        "grid": {"t_max": 1.0, "steps": 5},
    }


def test_chem_engine_csv_is_independent_of_the_phase_of_alpha0(tmp_path):
    tables = []
    for name, alpha in (("real", 3.0), ("phase", [3.0 * np.cos(2.1), 3.0 * np.sin(2.1)])):
        cfg = _write(tmp_path, f"{name}.json", _chem_phase_config(alpha))
        assert main(["run", cfg, "--out", str(tmp_path / name)]) == 0
        tables.append(_read_csv(tmp_path / name / "chem_trace.csv")[1])
    real, phase = tables
    assert np.all(np.abs(phase - real) <= 1e-12 * np.abs(real))


def test_chem_engine_runs_one_real_basis_and_no_generator(tmp_path, monkeypatch):
    import lindtherm.cli as cli
    import lindtherm.models.chem as chem
    from lindtherm.operators import DensityMatrix

    built, seeds = [], []
    expm_multiply = chem.expm_multiply

    def spy(sub, diag, sup, v0, tau):
        seeds.append(v0)
        return expm_multiply(sub, diag, sup, v0, tau)

    monkeypatch.setattr(chem, "expm_multiply", spy)
    for module in (chem, cli):
        monkeypatch.setattr(module, "build_chem_generator",
                            lambda spec: built.append(spec), raising=False)
    # the start and the samples are certified in band storage and the CSV
    # reads no lab-frame state, so no dense state check runs
    checked = []
    init = DensityMatrix.__init__

    def counted(self, matrix, *args, **kwargs):
        checked.append(matrix)
        init(self, matrix, *args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__init__", counted)
    cfg = _write(tmp_path, "cfg.json",
                 _chem_phase_config([3.0 * np.cos(2.1), 3.0 * np.sin(2.1)]))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    monkeypatch.undo()
    assert built == []
    assert checked == []
    assert len(seeds) == 1 and not np.iscomplexobj(seeds[0])
    # the seed is the kept lower bands of the real coherent state, end to end
    ref = chem.coherent_state(3.0, 60).matrix
    kept = seeds[0].reshape(-1, 60)
    bands = [np.append(np.diagonal(ref, -k), np.zeros(k)) for k in range(kept.shape[0])]
    assert np.array_equal(kept, bands)


def test_replicator(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _replicator_config())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "repl_stats.csv")
    assert header == ["t", "mean_ode", "var_ode", "mean_mc", "stderr_mc",
                      "extinction_fraction"]
    assert rows.shape[0] == 5
    assert np.all(rows[1:, 4] > 0)
    assert np.all((rows[:, 5] >= 0) & (rows[:, 5] <= 1))
    # MC mean should not wander far from the master equation at 200 samples
    assert np.max(np.abs(rows[:, 3] - rows[:, 1])) < 5 * np.max(rows[:, 4])


def test_engine_power_with_equilibrium_bound(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "engine-power",
        "model": {
            "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
            "terms": [
                {"jump": [[0.0, 1.0], [0.0, 0.0]], "rate": 0.9, "bath": "b"},
                {"jump": [[0.0, 0.0], [1.0, 0.0]],
                 "rate": 0.3310914970542981, "bath": "b"},
            ],
        },
        "drive": {"observable": [[0.0, 0.0], [0.0, 0.3]],
                  "amplitude": 0.4, "frequency": 600.0},
        "beta": 1.0,
    })
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "power_report.csv")
    assert header == ["pBarResolvent", "pBarFast", "identityResidual"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extras"]["single_bath_bound"] < 0


# --- determinism and replay ------------------------------------------------------

def test_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _replicator_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "repl_stats.csv").read_bytes() == (out2 / "repl_stats.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_manifest_replay_reproduces_outputs(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _replicator_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["run", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "repl_stats.csv").read_bytes() == (out2 / "repl_stats.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


def test_run_scenario_returns_the_written_manifest(tmp_path):
    manifest = run_scenario(_replicator_config(), tmp_path / "out")
    assert manifest == json.loads((tmp_path / "out" / "manifest.json").read_text())


def test_seed_flag_changes_monte_carlo(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _replicator_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2), "--seed", "77"]) == 0
    _, rows1 = _read_csv(out1 / "repl_stats.csv")
    _, rows2 = _read_csv(out2 / "repl_stats.csv")
    assert np.array_equal(rows1[:, 1], rows2[:, 1])  # ODE column unaffected
    assert not np.array_equal(rows1[:, 3], rows2[:, 3])


def test_override_dotted_path(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _replicator_config())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--override", "grid.steps=8"]) == 0
    _, rows = _read_csv(out / "repl_stats.csv")
    assert rows.shape[0] == 9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid"]["steps"] == 8


# --- failure paths ---------------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_key_names_the_field(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", _evolve_config(bogus=1))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "config error" in err


def test_bad_grid_steps_names_the_path(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json",
                 _replicator_config(grid={"t_max": 1.0, "steps": -3}))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "grid.steps" in capsys.readouterr().err


def test_unknown_scenario(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"scenario": "nope"})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "scenario" in capsys.readouterr().err


def test_non_integer_seed(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", _replicator_config(seed="abc"))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_malformed_override(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", _replicator_config())
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--override", "no_equals_sign"]) == 2
    assert "--override" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["rate", "beta", "t_max", "hamiltonian", "jump"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, field, value):
    config = _evolve_config()
    if field == "rate":
        config["model"]["terms"][0]["rate"] = value
    elif field == "beta":
        config["model"]["baths"][0]["beta"] = value
    elif field == "hamiltonian":
        config["model"]["hamiltonian"][1][1] = value
    elif field == "jump":
        config["model"]["terms"][1]["jump"][1][0] = [0.0, value]
    else:
        config["grid"]["t_max"] = value
    cfg = _write(tmp_path, "cfg.json", config)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    if field == "hamiltonian":
        assert "model.hamiltonian[1][1]" in err
    elif field == "jump":
        assert "model.terms[1].jump[1][0]" in err


@pytest.mark.parametrize("field, value, message", [
    ("hamiltonian", True, "model.hamiltonian[1][1]: expected a number or [re, im] pair, got True"),
    ("hamiltonian", "x", "model.hamiltonian[1][1]: expected a number or [re, im] pair, got 'x'"),
    ("hamiltonian", None, "model.hamiltonian[1][1]: expected a number or [re, im] pair, got None"),
    ("hamiltonian", [0.0, 1.0, 2.0],
     "model.hamiltonian[1][1]: expected a number or [re, im] pair, got [0.0, 1.0, 2.0]"),
    ("hamiltonian", [0.0, None],
     "model.hamiltonian[1][1]: expected a number or [re, im] pair, got [0.0, None]"),
    ("jump", [0.0, True],
     "model.terms[1].jump[1][0]: expected a number or [re, im] pair, got [0.0, True]"),
    ("jump", "x", "model.terms[1].jump[1][0]: expected a number or [re, im] pair, got 'x'"),
    ("ragged", None, "model.terms[0].jump[1]: row length 2 != 3"),
    ("row", 3.0, "model.hamiltonian: expected a matrix as a list of rows"),
])
def test_malformed_matrix_entry_is_a_config_error(tmp_path, capsys, field, value, message):
    config = _evolve_config()
    if field == "hamiltonian":
        config["model"]["hamiltonian"][1][1] = value
    elif field == "jump":
        config["model"]["terms"][1]["jump"][1][0] = value
    elif field == "ragged":
        config["model"]["terms"][0]["jump"][0] = [0.0, 1.0, 0.0]
    else:
        config["model"]["hamiltonian"][1] = value
    cfg = _write(tmp_path, "cfg.json", config)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def _walked(node):
    """The entry-by-entry conversion that the bulk parse must reproduce."""
    out = np.zeros((len(node), len(node[0])), dtype=complex)
    for i, row in enumerate(node):
        for j, x in enumerate(row):
            out[i, j] = _complex_entry(x, "m")
    return out


@pytest.mark.parametrize("node", [
    [[0.1, -0.0], [1e-300, -2.5e17]],
    [[0, 1], [2 ** 63 + 1, -7]],
    [[[0.1, -0.0], [-0.0, 3]], [[2 ** 60 + 1, 1e-310], [0, -1.25]]],
    [[0.5, [0.25, -1]], [-3, [-0.0, 0.0]]],
])
def test_bulk_matrix_parse_matches_the_entry_walk(node):
    parsed = _complex_matrix(node, "m")
    walked = _walked(node)
    assert parsed.shape == walked.shape
    assert parsed.tobytes() == walked.tobytes()
    if all(type(x) in (int, float) for row in node for x in row):
        assert _real_matrix(node, "m").tobytes() == walked.real.copy().tobytes()


def _hermiticity_config(key, defect, tolerance):
    config = {
        "scenario": "engine-power",
        "tolerances": {"hamiltonian_hermiticity": tolerance},
        "model": {
            "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
            "terms": [
                {"jump": [[0.0, 1.0], [0.0, 0.0]], "rate": 0.9, "bath": "b"},
                {"jump": [[0.0, 0.0], [1.0, 0.0]], "rate": 0.3, "bath": "b"},
            ],
        },
        "drive": {"observable": [[0.0, 0.0], [0.0, 0.3]],
                  "amplitude": 0.4, "frequency": 600.0},
    }
    node = config["model"]["hamiltonian"] if key == "model.hamiltonian" \
        else config["drive"]["observable"]
    node[1][1] = [node[1][1], defect / 2.0]  # max|X - X+| = defect
    return config


@pytest.mark.parametrize("key", ["model.hamiltonian", "drive.observable"])
def test_config_tolerance_reaches_the_hermiticity_check(tmp_path, capsys, key):
    cfg = _write(tmp_path, "ok.json", _hermiticity_config(key, 1e-9, 1e-6))
    assert main(["run", cfg, "--out", str(tmp_path / "ok")]) == 0
    exact = _write(tmp_path, "exact.json", _hermiticity_config(key, 0.0, 1e-6))
    assert main(["run", exact, "--out", str(tmp_path / "exact")]) == 0
    # the run uses the hermitian part, so the defect leaves no trace
    assert ((tmp_path / "ok" / "power_report.csv").read_bytes()
            == (tmp_path / "exact" / "power_report.csv").read_bytes())
    cfg = _write(tmp_path, "bad.json", _hermiticity_config(key, 1e-5, 1e-6))
    assert main(["run", cfg, "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: hermiticity defect" in err
    assert "tolerances.hamiltonian_hermiticity" in err


def test_non_finite_initial_alpha_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "chem-engine",
        "chem": {"omega": 1.0, "gamma_up": 0.5, "gamma_down": 0.25, "dim": 12},
        "initial_alpha": [1.0, float("nan")],
        "grid": {"t_max": 1.0, "steps": 2},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "initial_alpha: must be finite" in capsys.readouterr().err


def test_initial_state_of_wrong_shape_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", _evolve_config(initial=np.eye(3).tolist()))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "initial: shape (3, 3)" in capsys.readouterr().err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", _replicator_config(seed=-3))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err
    cfg = _write(tmp_path, "ok.json", _replicator_config())
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--seed", "-3"]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err


def _pv_config():
    return {"scenario": "pv-sweep",
            "pv": {"conduction_energies": [1.0], "valence_energies": [0.0], "beta": 2.0,
                   "beta1": 0.7, "inter_rates": [[4.0]]},
            "sweep": {"v_min": 0.1, "v_max": 0.9, "points": 5}}


# 400 digits: beyond float64 and int64.  Only such values are tried, never a
# size that fits in int64, which numpy could try to allocate.
_HUGE = "1" + "0" * 400


_HUGE_CASES = [  # (key, config, path to the value, sign)
    ("model.hamiltonian[1][1]", _evolve_config, ("model", "hamiltonian", 1, 1), ""),
    ("model.terms[0].rate", _evolve_config, ("model", "terms", 0, "rate"), ""),
    ("model.terms[1].jump[1][0]", _evolve_config, ("model", "terms", 1, "jump", 1, 0), ""),
    ("model.baths[0].beta", _evolve_config, ("model", "baths", 0, "beta"), "-"),
    ("grid.t_max", _evolve_config, ("grid", "t_max"), ""),
    ("grid.steps", _evolve_config, ("grid", "steps"), ""),
    ("initial[0][1]", lambda: _evolve_config(initial=[[0.5, [0.0, 0.0]], [[0.0, 0.0], 0.5]]),
     ("initial", 0, 1, 1), ""),
    ("initial_alpha", lambda: _chem_phase_config(1.0), ("initial_alpha",), ""),
    ("chem.omega", lambda: _chem_phase_config(1.0), ("chem", "omega"), "-"),
    ("chem.dim", lambda: _chem_phase_config(1.0), ("chem", "dim"), ""),
    ("pv.inter_rates[0][0]", _pv_config, ("pv", "inter_rates", 0, 0), ""),
    ("trajectories", _replicator_config, ("trajectories",), ""),
    ("n_max", _replicator_config, ("n_max",), ""),
    ("seed", _replicator_config, ("seed",), ""),
]


@pytest.mark.parametrize("key, make, path, sign", _HUGE_CASES, ids=[c[0] for c in _HUGE_CASES])
def test_integers_beyond_float_or_int64_are_config_errors(tmp_path, capsys, key, make, path,
                                                          sign):
    config = node = make()
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = "HUGE"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config).replace('"HUGE"', sign + _HUGE))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1, err


def test_numerical_failure_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "chem-engine",
        "chem": {"omega": 1.0, "gamma_up": 0.5, "gamma_down": 0.25, "dim": 12},
        "initial_alpha": 1.0,
        "grid": {"t_max": 4.0, "steps": 16},
        "overflow": "raise",
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "TruncationOverflow" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["evolve", "engine-power"])
@pytest.mark.parametrize("term", [0, 1])
@pytest.mark.parametrize("key", ["rate", "jump"])
def test_overflowing_channel_names_its_key(tmp_path, capsys, scenario, term, key):
    # the channel record's scale d^2 sum rate ||V||^2 overflows before any
    # superoperator, propagator or solve sees it, and the message names the
    # larger factor: a rate of 1e308, or a jump entry of 1e200 at rate 1; any
    # RuntimeWarning would fail this test
    config = _evolve_config()
    item = config["model"]["terms"][term]
    if key == "rate":
        item["rate"] = 1e308
    else:
        item["rate"], item["jump"] = 1.0, [[0.0, 1e200], [0.0, 0.0]]
    if scenario == "engine-power":
        config = {"scenario": scenario, "model": config["model"],
                  "drive": {"observable": [[0.0, 0.0], [0.0, 0.3]], "amplitude": 0.4,
                            "frequency": 5.0}}
    cfg = _write(tmp_path, "cfg.json", config)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical error: NumericalDrift: model.terms[{term}].{key}: ")
    assert "RuntimeWarning" not in err


def test_overflowing_evolve_grid_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", _evolve_config(grid={"t_max": 1e300, "steps": 50}))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "NumericalDrift" in err and "non-finite" in err


def test_overflowing_pv_sweep_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "pv-sweep",
        "pv": {
            "conduction_energies": [1.0],
            "valence_energies": [0.0],
            "beta": 2.0,
            "beta1": 0.6931471805599453,
            "inter_rates": [[4.0]],
        },
        "sweep": {"v_min": 0.1, "v_max": 1e308, "points": 5},
    })
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "non-finite" in err


@pytest.mark.parametrize("v_min, v_max, code, message", [
    (0.1, 1e308, 3, "numerical error: NumericalDrift: sweep.v_max:"),
    (1e307, 1e308, 3, "numerical error: NumericalDrift: sweep.v_min:"),
    (-1e308, 1e308, 2, "config error: sweep.v_max:"),
])
def test_overflowing_pv_sweep_names_its_key_without_warnings(tmp_path, v_min, v_max,
                                                              code, message):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "pv-sweep",
        "pv": {
            "conduction_energies": [1.0],
            "valence_energies": [0.0],
            "beta": 2.0,
            "beta1": 0.6931471805599453,
            "inter_rates": [[4.0]],
        },
        "sweep": {"v_min": v_min, "v_max": v_max, "points": 5},
    })
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "lindtherm", "run", cfg, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    assert "RuntimeWarning" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize(
    "field", ["chem.gamma_up", "chem.gamma_down", "chem.decoherence", "grid.t_max"]
)
def test_chem_engine_extreme_input_exits_cleanly(tmp_path, field):
    # one subprocess per value, each with a timeout: these inputs once ran the
    # band evolver for minutes or ended in a traceback
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "chem-engine",
        "chem": {"omega": 1.0, "gamma_up": 0.5, "gamma_down": 0.25, "dim": 40},
        "initial_alpha": 1.0,
        "grid": {"t_max": 1.0, "steps": 10},
    })
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )

    def run(value):
        out = tmp_path / value
        proc = subprocess.run(
            [sys.executable, "-m", "lindtherm", "run", cfg, "--out", str(out),
             "--override", f"{field}={value}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        return value, out, proc

    with ThreadPoolExecutor(max_workers=3) as pool:
        runs = list(pool.map(run, ["1e30", "1e200", "1e308"]))
    for value, out, proc in runs:
        assert proc.returncode in (0, 3), (value, proc.stderr[-2000:])
        assert "Traceback" not in proc.stderr, value
        if proc.returncode == 0:
            _, rows = _read_csv(out / "chem_trace.csv")
            assert np.isfinite(rows).all(), value
        else:
            assert "numerical error" in proc.stderr, value


@pytest.mark.parametrize("field", ["gamma_up", "gamma_down", "grid.t_max"])
def test_overflowing_replicator_exits_three(tmp_path, capsys, field):
    cfg = _write(tmp_path, "cfg.json", _replicator_config())
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", cfg, "--out", str(tmp_path / "o"),
                     "--override", f"{field}=1e308"])
    assert code == 3
    err = capsys.readouterr().err
    assert "NumericalDrift" in err and "not finite" in err


def test_non_finite_csv_value_exits_three(tmp_path, capsys):
    # with a subnormal span the law residuals' finite differences divide by
    # zero and come out NaN; the CSV writer refuses them and names the column
    cfg = _write(tmp_path, "cfg.json", _evolve_config(grid={"t_max": 1e-320, "steps": 50}))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "NumericalDrift" in err and "column firstLawResidual" in err
    assert not (tmp_path / "o" / "thermo_trace.csv").exists()


def test_csv_rows_are_the_per_value_format(tmp_path):
    # each row is one "%.17g,..." format over the float64 values: the bytes
    # of "%.17g" % float(x) per value, signed zero, subnormals, the top of
    # the range and integers (Python and numpy) included
    header = ["a", "b", "c"]
    rows = [[-0.0, 5e-324, 1e308], [1, 2 ** 53 + 1, -3], [0.1, np.float64(1 / 3), np.int64(7)],
            [np.float32(0.1), -1e-300, 0.0]]
    _write_csv(tmp_path / "t.csv", header, rows)
    want = ["a,b,c"] + [",".join("%.17g" % float(x) for x in row) for row in rows]
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(want) + "\n").encode()


def _cli_under_runtime_warning_errors(tmp_path, config):
    """(exit code, stderr) of ``python -W error::RuntimeWarning -m lindtherm run`` on config."""
    cfg = _write(tmp_path, "cfg.json", config)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lindtherm", "run", cfg,
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("drive", [None, {"observable": [[0.0, 0.0], [0.0, 0.3]],
                                          "amplitude": 0.4, "frequency": 2.0}])
def test_evolve_runs_without_runtime_warnings(tmp_path, drive):
    config = _evolve_config(**({"drive": drive} if drive else {}))
    assert _cli_under_runtime_warning_errors(tmp_path, config) == (0, "")


def test_overflowing_propagation_exits_three_without_runtime_warnings(tmp_path):
    # a rate of 1e50 overflows the first step's exponential: the propagated
    # state check names step 1, with no warning on the way
    config = _evolve_config()
    config["model"]["terms"][0]["rate"] = 1e50
    assert _cli_under_runtime_warning_errors(tmp_path, config) == (3, (
        "numerical error: NumericalDrift: state invariant violated at step 1: "
        "density matrix has non-finite entries\n"))


def test_engine_power_out_of_equilibrium_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "engine-power",
        "model": {
            "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
            "terms": [
                {"jump": [[0.0, 1.0], [0.0, 0.0]], "rate": 0.9, "bath": "b"},
                {"jump": [[0.0, 0.0], [1.0, 0.0]], "rate": 0.5, "bath": "b"},
            ],
        },
        "drive": {"observable": [[0.0, 0.0], [0.0, 0.3]],
                  "amplitude": 0.4, "frequency": 600.0},
        "beta": 1.0,
    })
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "NotEquilibrium" in capsys.readouterr().err


def test_run_scenario_rejects_non_dict():
    with pytest.raises(ConfigError):
        run_scenario([1, 2, 3], "/tmp/ignored")
