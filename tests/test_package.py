"""Each package re-exports its modules' public names, each listed once."""

import subprocess
import sys
from pathlib import Path

import lindtherm
import lindtherm.models
from lindtherm import engine, errors, gkls, operators, thermo, tolerances
from lindtherm.models import chem, pv


def _assert_reexports(package, modules):
    names = [n for mod in modules for n in mod.__all__]
    assert len(set(names)) == len(names)  # no name is listed twice
    for mod in modules:
        for name in mod.__all__:
            assert getattr(package, name) is getattr(mod, name), (mod.__name__, name)


def test_lindtherm_lists_each_module_all_in_import_order():
    modules = (errors, tolerances, operators, gkls, thermo, engine)
    assert lindtherm.__all__ == [
        "__version__", *(n for mod in modules for n in mod.__all__), "models",
    ]
    assert len(set(lindtherm.__all__)) == len(lindtherm.__all__)
    _assert_reexports(lindtherm, modules)


def test_models_lists_each_module_all_in_import_order():
    modules = (pv, chem)
    assert lindtherm.models.__all__ == [n for mod in modules for n in mod.__all__]
    _assert_reexports(lindtherm.models, modules)


def test_every_listed_name_is_its_defining_modules_own_object():
    # a name re-exported by a module that imported it would name a copy's
    # home, not the one that defines it
    for mod in (errors, tolerances, operators, gkls, thermo, engine, pv, chem):
        for name in mod.__all__:
            obj = getattr(mod, name)
            home = getattr(obj, "__module__", mod.__name__)
            assert home == mod.__name__, (mod.__name__, name, home)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize pulls in several scipy subpackages; only the PV floating
    # voltage needs it, so importing the package and its CLI must not load it
    code = "import sys, lindtherm, lindtherm.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(lindtherm.__file__).parents[1])
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the chem band evolver scatters its bands with numpy index arrays
    code = "import sys, lindtherm.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(lindtherm.__file__).parents[1])
    assert out.stdout.strip() == "False"
