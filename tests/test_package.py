"""Package surface: exported names, pinned CODATA factors, numpy- and scipy-free cold starts,
and no unused imports, unused private names or writes to imported names in the modules."""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gupmol
from gupmol import core
from gupmol.spectroscopy import MODELS

# The package's public names, listed on purpose: a new export must be added here.
EXPORTS = (
    "AMU_TO_INTERNAL", "BetaBound", "ConvergenceError", "DataFormatError", "Deformation",
    "DomainError", "DunhamFit", "EV_TO_CM1", "EnergyLevel", "ExperimentalLevel", "FitError",
    "GridError", "GupmolError", "LevelTable",
    "Molecule", "PerturbationWarning", "QuantumNumbers",
    "SpectroscopicConstants", "SweepCell", "SweepReport",
    "closed_form_table", "closed_vs_oracle_sweep", "core",
    "fit_beta_bound", "fit_dunham", "gamma",
    "kratzer", "kratzer_correction_slope", "kratzer_energy_deformed",
    "kratzer_energy_undeformed", "kratzer_spectroscopic_constants",
    "lambda_kratzer", "lambda_pho", "load_levels", "load_molecules", "master_energy",
    "oracle", "packaged_data_path",
    "pho", "pho_correction_slope", "pho_energy_deformed",
    "pho_energy_undeformed", "pho_spectroscopic_constants",
    "spectroscopy", "synthetic_molecule",
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


def test_star_import_skips_a_submodule_imported_later():
    import gupmol.cli  # noqa: F401  (binds gupmol.cli)

    namespace = {}
    exec("from gupmol import *", namespace)
    assert "cli" in dir(gupmol) and "cli" not in namespace


def test_sweep_names_are_the_verify_modules_own():
    from gupmol import verify

    for name in ("SweepCell", "SweepReport", "closed_vs_oracle_sweep"):
        assert getattr(gupmol, name) is getattr(verify, name)
    assert len(EXPORTS) == 46


@pytest.mark.parametrize("kind", ["kratzer", "pho"])
def test_each_per_potential_export_is_its_records_view(kind):
    # A wrapper function in place of a view would be a second home for the potential.
    model = MODELS[kind]
    views = {"energy_undeformed": core.Model.undeformed, "correction_slope": core.Model.slope,
             "energy_deformed": core.Model.level}
    for suffix, method in views.items():
        view = getattr(gupmol, f"{kind}_{suffix}")
        assert view.__self__ is model and view.__func__ is method
    assert getattr(gupmol, f"{kind}_spectroscopic_constants") is model.constants
    assert {name for name in EXPORTS if name.startswith(f"{kind}_")} == {
        f"{kind}_{suffix}" for suffix in (*views, "spectroscopic_constants")}


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
    ["verify", "--nmax", "201"],
    ["verify", "--rmax", "-1"],
    ["verify", "--tol-energy", "0"],
    ["verify", "--levels", "0"],
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
    assert result == {"codes": [0, 0, 0, 2, 2, 2, 2], "scipy": []}


NUMPY_FREE = """
import contextlib, io, json, sys
import gupmol
loaded = {"import gupmol": "numpy" in sys.modules}
import gupmol.cli
from gupmol import (Deformation, Molecule, QuantumNumbers, kratzer_energy_deformed,
                    pho_spectroscopic_constants)
runs = [
    ["spectrum", "--potential", "kratzer", "--molecule", "H2", "--beta", "1e-6"],
    ["spectrum", "--potential", "pho", "--molecule", "H2", "--beta", "1e-6", "--nmax", "200",
     "--lmax", "0"],
    ["constants", "--potential", "pho", "--molecule", "H2", "--beta", "1e-5"],
    ["fit-beta", "--molecule", "H2-kratzer", "--e-exp", "2170"],
    ["fit-beta", "--potential", "pho", "--molecule", "H2"],
    ["verify", "--gamma", "-5"],
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
    assert result["codes"] == [0, 0, 0, 0, 0, 2]
    assert result["numpy"] == {"import gupmol": False, "spectrum": False, "constants": False,
                               "fit-beta": False, "verify": False, "library": False}


NUMPY_CALL = """
import contextlib, io, json, sys
import gupmol.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = gupmol.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("argv", [
    ["constants", "--potential", "kratzer", "--molecule", "H2-kratzer", "--fit"],
], ids=["constants-fit"])
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


def import_scopes(source: str, package: str) -> list[str]:
    """Where ``source`` imports ``package`` or one of its submodules, in line
    order: the enclosing function's name, ``TYPE_CHECKING`` inside an ``if
    TYPE_CHECKING:`` block outside any function, or ``<module>``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if not any(m == package or m.startswith(package + ".") for m in modules):
            continue
        scope, owner = "<module>", parents.get(node)
        while owner is not None and not isinstance(owner, (ast.FunctionDef,
                                                           ast.AsyncFunctionDef)):
            if isinstance(owner, ast.If) and getattr(owner.test, "id", None) == "TYPE_CHECKING":
                scope = "TYPE_CHECKING"
            owner = parents.get(owner)
        found.append((node.lineno, owner.name if owner is not None else scope))
    return [scope for _, scope in sorted(found)]


def test_import_scope_check_sees_each_scope():
    source = """
from typing import TYPE_CHECKING
import numpy as np
if TYPE_CHECKING:
    import numpy.typing
def solve():
    if True:
        import numpy
    from numpy.linalg import eigh
import numpyro
from . import numpy
"""
    assert import_scopes(source, "numpy") == ["<module>", "TYPE_CHECKING", "solve", "solve"]


def test_scipy_is_imported_only_by_the_eigensolve():
    # numpy outside a function only for annotations, so no module load costs it
    package = Path(gupmol.__file__).parent
    scopes = {root: sorted(f"{path.stem}.{scope}" for path in sorted(package.glob("*.py"))
                           for scope in import_scopes(path.read_text(encoding="utf-8"), root))
              for root in ("numpy", "scipy")}
    assert scopes["scipy"] == ["oracle._dvr_eigensolve"]
    assert [scope for scope in scopes["numpy"] if scope.endswith(".<module>")] == []


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


def imported_attribute_writes(source: str) -> list[str]:
    """Assignments in ``source`` whose target is an attribute chain rooted at a
    name an import binds (``warnings.showwarning = f``): a write into another
    module or into what it exports, which whoever stands in for that name
    never sees.  In line order."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)):
            continue
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in imported:
            found.append((node.lineno, ast.unparse(node)))
    return [f"{target} (line {line})" for line, target in sorted(found)]


def test_attribute_write_check_sees_each_write():
    source = """
import warnings
import numpy as np
from . import core as _core
from .core import Model
def install(table):
    warnings.showwarning = print
    np.random.state, count = None, 1
    _core._PER_EV.extra: dict = {}
    Model.level += 1
    table.flags.writeable = False
    for warnings.filters in ():
        pass
"""
    assert imported_attribute_writes(source) == [
        "warnings.showwarning (line 7)", "np.random.state (line 8)",
        "_core._PER_EV.extra (line 9)", "Model.level (line 10)", "warnings.filters (line 12)"]


def test_modules_write_no_attribute_of_an_imported_name():
    package = Path(gupmol.__file__).parent
    found = {path.name: imported_attribute_writes(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: writes for name, writes in found.items() if writes} == {}


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private names (one leading underscore, not dunder) that a module of
    ``sources`` (file name -> source) binds at its top level, by a def, class,
    assignment or import, and that no module reads: as a name, as an
    attribute (``core._grid``) or in a ``from ... import``."""
    read = set()
    bound = []
    for file_name, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            else:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            bound += [(file_name, node.lineno, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return [f"{file_name}: {name} (line {line})" for file_name, line, name in bound
            if name not in read]


def test_private_name_check_sees_an_unused_name():
    sources = {
        "a.py": "import numpy as _np\n_x = 1\n_y: int = 2\n__version__ = '1'\n"
                "def _f(): return _y\nclass _C: ...\n_p, (_q, _r) = 1, (2, 3)\nprint(_q)\n",
        "b.py": "from a import _f\nimport a\na._C\ndef g(): return _f()\n",
    }
    assert unused_private_names(sources) == [
        "a.py: _np (line 1)", "a.py: _x (line 2)", "a.py: _p (line 7)", "a.py: _r (line 7)"]


def test_modules_read_every_private_name():
    package = Path(gupmol.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert unused_private_names(sources) == []


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


# Every cache in the package, listed on purpose with the benchmark workload that
# hits it: a new cache must be added here.
CACHES = {
    "core._grid": "tables",
    "spectroscopy._parse_molecules": "interactive",
    "cli._parser": "interactive",
}


def cached_names(module: str, source: str) -> list[str]:
    """``module.qualname`` of each definition in ``source`` that an ``lru_cache``,
    a ``functools.cache`` or a ``cached_property`` decorates, and ``module: line N``
    for one of them used other than as a decorator (a bare ``cache`` counts only as
    a decorator); in line order."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def qualname(node):
        names = []
        while node in parents:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            node = parents[node]
        return ".".join([module, *reversed(names)])

    found = []
    for node in ast.walk(tree):
        name = getattr(node, "attr", getattr(node, "id", None))
        if name not in ("lru_cache", "cache", "cached_property"):
            continue
        call = parents.get(node)
        top = call if isinstance(call, ast.Call) and call.func is node else node
        owner = parents.get(top)
        if top in getattr(owner, "decorator_list", ()):
            found.append((node.lineno, qualname(owner)))
        elif name != "cache" or getattr(getattr(node, "value", None), "id", None) == "functools":
            found.append((node.lineno, f"{module}: line {node.lineno}"))
    return [name for _, name in sorted(found)]


def test_cache_list_sees_every_cache():
    source = """
import functools
from functools import cache, cached_property, lru_cache

@lru_cache(maxsize=4)
def kept(a): ...

@functools.cache
def once(): ...

class Table:
    @cached_property
    def view(self): ...

    @functools.lru_cache
    def method(self): ...

cache = {}
wrapped = functools.lru_cache(maxsize=2)(kept)
"""
    assert cached_names("m", source) == [
        "m.kept", "m.once", "m.Table.view", "m.Table.method", "m: line 19"]


def test_every_cache_is_listed_with_the_workload_that_hits_it():
    package = Path(gupmol.__file__).parent
    found = [name for path in sorted(package.glob("*.py"))
             for name in cached_names(path.stem, path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(CACHES)
    benchmark = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    assert set(CACHES.values()) <= {workload["name"] for workload in benchmark["workloads"]}


def test_every_cache_is_empty_after_a_cold_import():
    # a call at import time would fill a cache and move its work into every start
    code = ("import operator, gupmol, gupmol.cli\n"
            f"for name in {sorted(CACHES)!r}:\n"
            "    print(name, operator.attrgetter(name)(gupmol).cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(f"{name} 0\n" for name in sorted(CACHES))
