"""Package surface: exported names, pinned CODATA factors, numpy- and scipy-free cold starts,
and no unused imports in the modules."""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gupmol
from gupmol import core

# The package's public names, listed on purpose: a new export must be added here.
EXPORTS = (
    "AMU_TO_INTERNAL", "BetaBound", "ConvergenceError", "DataFormatError", "Deformation",
    "DomainError", "DunhamFit", "EV_TO_CM1", "EnergyLevel", "ExperimentalLevel", "FitError",
    "GridError", "GupmolError", "HBAR", "HBARC_EV_ANGSTROM", "KratzerPotential", "LevelTable",
    "Molecule", "NO_DEFORMATION", "PerturbationWarning", "PhoPotential", "QuantumNumbers",
    "RadialEigenstate", "RadialGrid", "SpectroscopicConstants", "SweepCell", "SweepReport",
    "UNITS", "UnitSystem",
    "beta_from_minimal_length", "closed_form_table", "closed_vs_oracle_sweep", "core",
    "extrapolate", "fit_beta_bound", "fit_dunham", "gamma",
    "kratzer", "kratzer_correction_slope", "kratzer_energy_deformed",
    "kratzer_energy_expansion", "kratzer_energy_undeformed", "kratzer_spectroscopic_constants",
    "lambda_kratzer", "lambda_pho", "load_levels", "load_molecules", "master_energy",
    "minimal_length", "oracle", "p4_expectation", "packaged_data_path",
    "pho", "pho_correction_slope", "pho_energy_deformed",
    "pho_energy_expansion", "pho_energy_undeformed", "pho_spectroscopic_constants",
    "solve_radial", "spectroscopy", "synthetic_molecule",
    "verify",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_exported_name_resolves(name):
    assert getattr(gupmol, name) is not None
    assert name in dir(gupmol)


def test_star_import_keeps_every_name():
    namespace = {}
    exec("from gupmol import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_lazy_names_are_the_solver_modules_own():
    from gupmol import closed_vs_oracle_sweep, solve_radial
    from gupmol.oracle import solve_radial as oracle_solve_radial
    from gupmol.verify import closed_vs_oracle_sweep as verify_sweep

    assert solve_radial is oracle_solve_radial
    assert closed_vs_oracle_sweep is verify_sweep


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        gupmol.no_such_name  # noqa: B018


def test_codata_literals_match_scipy():
    constants = pytest.importorskip("scipy.constants")
    table = constants.physical_constants
    assert core._HBARC_MEV_FM == table["reduced Planck constant times c in MeV fm"][0]
    assert core._EV_INVERSE_METRE == table["electron volt-inverse meter relationship"][0]
    assert core._AMU_MEV == table["atomic mass constant energy equivalent in MeV"][0]


COLD_START = """
import contextlib, io, json, sys
import gupmol.cli
runs = [
    ["spectrum", "--potential", "kratzer", "--molecule", "H2"],
    ["constants", "--potential", "pho", "--molecule", "H2", "--beta", "1e-5", "--fit"],
    ["fit-beta", "--molecule", "H2-kratzer", "--e-exp", "2170"],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        codes.append(gupmol.cli.main(argv))
scipy = sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_closed_form_commands_load_no_scipy():
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"codes": [0, 0, 0], "scipy": []}


NUMPY_FREE = """
import contextlib, io, json, sys
import gupmol
loaded = {"import gupmol": "numpy" in sys.modules}
import gupmol.cli
from gupmol import (Deformation, Molecule, QuantumNumbers, kratzer_energy_deformed,
                    pho_spectroscopic_constants)
runs = [
    ["spectrum", "--potential", "kratzer", "--molecule", "H2", "--beta", "1e-6"],
    ["spectrum", "--potential", "pho", "--molecule", "H2",
     "--nmax", str(gupmol.cli.PER_LEVEL_MAX - 1), "--lmax", "0"],
    ["constants", "--potential", "pho", "--molecule", "H2", "--beta", "1e-5"],
    ["fit-beta", "--molecule", "H2-kratzer", "--e-exp", "2170"],
    ["fit-beta", "--potential", "pho", "--molecule", "H2"],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        codes.append(gupmol.cli.main(argv))
        loaded[argv[0]] = "numpy" in sys.modules
h2 = Molecule.from_spectroscopic("H2", 4.7446, 0.74144, 0.503913)
kratzer_energy_deformed(h2, Deformation(1e-6), QuantumNumbers(2, 1))
pho_spectroscopic_constants(h2, Deformation(1e-6))
loaded["library"] = "numpy" in sys.modules
print(json.dumps({"codes": codes, "numpy": loaded}))
"""


def test_closed_form_commands_load_no_numpy():
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["numpy"] == {"import gupmol": False, "spectrum": False, "constants": False,
                               "fit-beta": False, "library": False}


NUMPY_CALL = """
import contextlib, io, json, sys
import gupmol.cli
argv = [arg.replace("{rule}", str(gupmol.cli.PER_LEVEL_MAX)) for arg in sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    code = gupmol.cli.main(argv)
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("argv", [
    ["constants", "--potential", "kratzer", "--molecule", "H2-kratzer", "--fit"],
    ["spectrum", "--potential", "kratzer", "--molecule", "H2", "--nmax", "{rule}", "--lmax", "0"],
], ids=["constants-fit", "spectrum-above-the-size-rule"])
def test_array_commands_load_numpy(argv):
    proc = subprocess.run([sys.executable, "-c", NUMPY_CALL, *argv], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "numpy": True}


SWEEP_START = """
import json, sys
from gupmol.verify import closed_vs_oracle_sweep
report = closed_vs_oracle_sweep(gammas=(20.0,), n_max=1, l_max=1)
scipy = sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))
print(json.dumps({"passed": report.all_passed, "scipy": scipy}))
"""


def test_sweep_loads_scipy_linalg_only():
    proc = subprocess.run([sys.executable, "-c", SWEEP_START], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["passed"]
    assert "scipy.linalg" in result["scipy"]
    assert not any(n.startswith("scipy.integrate") for n in result["scipy"])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in ``source`` that no expression reads,
    alone or as the root of an attribute chain (annotations included); a
    ``from __future__`` import binds nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read]


def test_unused_import_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == [
        "os (line 1)", "pi (line 2)"]
    assert unused_imports("import numpy as np\nx: np.ndarray\n") == []


def test_modules_import_only_what_they_use():
    package = Path(gupmol.__file__).parent
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}



def unbounded_caches(source: str) -> list[str]:
    """Caches in ``source`` that can grow without bound: an ``lru_cache`` without
    an integer literal maxsize (bare, None or computed), and a ``functools.cache``
    anywhere but on a function without parameters; in line order."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        parent = parents.get(node)
        decorates = node in getattr(parent, "decorator_list", ())
        if getattr(node, "attr", getattr(node, "id", None)) == "lru_cache":
            if isinstance(parent, ast.Call) and parent.func is node:
                keywords = [k.value for k in parent.keywords if k.arg == "maxsize"]
                maxsize = (parent.args + keywords or [None])[0]
                if isinstance(maxsize, ast.Constant) and type(maxsize.value) is int:
                    continue
            found.append((node.lineno, "lru_cache"))
        elif ((isinstance(node, ast.Attribute) and node.attr == "cache"
               and getattr(node.value, "id", None) == "functools")
              or (isinstance(node, ast.Name) and node.id == "cache" and decorates)):
            a = parent.args if decorates else None
            if a is None or a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                found.append((node.lineno, "cache"))
    return [f"{kind} (line {line})" for line, kind in sorted(found)]


def test_cache_check_sees_an_unbounded_cache():
    source = """
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=4)
def kept(a): ...

@functools.cache
def once(): ...

@lru_cache
def bare(a): ...

@lru_cache(maxsize=None)
def unbounded(a): ...

@functools.lru_cache(None)
def positional(a): ...

@cache
def grows(a): ...

wrapped = functools.cache(kept)
"""
    assert unbounded_caches(source) == [
        "lru_cache (line 11)", "lru_cache (line 14)", "lru_cache (line 17)", "cache (line 20)",
        "cache (line 23)"]


def test_caches_are_bounded():
    package = Path(gupmol.__file__).parent
    found = {path.name: unbounded_caches(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: caches for name, caches in found.items() if caches} == {}
