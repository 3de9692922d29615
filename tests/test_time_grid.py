"""Every time-evolution entry point rejects a grid that is not finite,
1-d and strictly increasing, or that is too short."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lindtherm import (
    GklsGenerator,
    ShapeError,
    Trajectory,
    basis_state,
    evolve,
    evolve_driven,
    modulated_family,
)
from lindtherm.models.chem import (
    BirthDeathState,
    ChemSpec,
    birth_death_evolve,
    coherent_state,
    evolve_oscillator,
)

ROOT = Path(__file__).resolve().parent.parent

BAD_GRIDS = {
    "nan": [0.0, 0.01, np.nan, 0.03],
    "inf": [0.0, 0.01, np.inf],
    "repeated": [0.0, 0.01, 0.01, 0.02],
    "decreasing": [0.0, 0.02, 0.01],
    "2d": [[0.0, 0.01], [0.02, 0.03]],
    "too_few": None,  # one point fewer than the entry point needs
}

_GEN = GklsGenerator(np.diag([0.0, 1.0]), ())
_RHO = basis_state(2, 0)


def _trajectory(times):
    return Trajectory(times, (_RHO,) * np.size(times))


def _evolve_driven(times):
    fam = modulated_family(_GEN, np.diag([0.0, 0.25]), amplitude=0.3, frequency=2.0)
    return evolve_driven(fam, _RHO, times)


def _oscillator(times):
    return evolve_oscillator(ChemSpec(1.0, 0.5, 0.25, dim=20), coherent_state(0.5, 20), times)


def _birth_death(times):
    return birth_death_evolve(BirthDeathState(np.eye(30)[1]), 0.5, 0.25, times)


# (name, call, fewest grid points accepted)
ENTRY_POINTS = [
    ("Trajectory", _trajectory, 1),
    ("evolve", lambda times: evolve(_GEN, _RHO, times), 1),
    ("evolve_driven", _evolve_driven, 2),
    ("evolve_oscillator", _oscillator, 1),
    ("birth_death_evolve", _birth_death, 1),
]


def _grid(name, points):
    return np.linspace(0.0, 0.01, points - 1) if BAD_GRIDS[name] is None else BAD_GRIDS[name]


@pytest.mark.parametrize("grid", list(BAD_GRIDS))
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: e[0])
def test_bad_grid_raises_shape_error(entry, grid):
    _, call, points = entry
    with pytest.raises(ShapeError):
        call(_grid(grid, points))


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: e[0])
def test_shortest_grid_is_accepted(entry):
    _, call, points = entry
    call(np.linspace(0.0, 0.01, points))


@pytest.mark.parametrize("grid", list(BAD_GRIDS))
def test_gillespie_bad_grid_raises_shape_error(grid):
    # a subprocess with a timeout: a non-finite grid once kept the sampler
    # waiting forever for a sample time its jumps never reach
    times = np.asarray(_grid(grid, 1), dtype=float)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from lindtherm import ShapeError\n"
        "from lindtherm.models.chem import gillespie_ensemble\n"
        "shape = [int(x) for x in sys.argv[1].split()]\n"
        "times = np.array([float(x) for x in sys.argv[2:]]).reshape(shape)\n"
        "try:\n"
        "    gillespie_ensemble(1, 1.0, 0.0, times, 1, 0)\n"
        "except ShapeError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    args = [" ".join(map(str, times.shape))] + [repr(float(x)) for x in times.ravel()]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
