"""Package surface: exported names, pinned CODATA factors, scipy-free cold start."""
import json
import subprocess
import sys

import pytest

import gupmol
from gupmol import core

# Every name the package exported while it imported the solver eagerly.
EXPORTS = (
    "AMU_TO_INTERNAL", "BetaBound", "ConvergenceError", "DataFormatError", "Deformation",
    "DomainError", "DunhamFit", "EV_TO_CM1", "EnergyLevel", "ExperimentalLevel", "FitError",
    "GridError", "GupmolError", "HBAR", "HBARC_EV_ANGSTROM", "KratzerPotential", "LevelTable",
    "Molecule", "NO_DEFORMATION", "PerturbationWarning", "PhoPotential", "QuantumNumbers",
    "RadialEigenstate", "RadialGrid", "SpectroscopicConstants", "SweepCell", "SweepReport",
    "UNITS", "UnitSystem", "auto_grid",
    "beta_from_minimal_length", "closed_form_table", "closed_vs_oracle_sweep", "core",
    "dump_eigenstate", "extrapolate", "fit_beta_bound", "fit_dunham", "gamma",
    "kinetic_expectation", "kratzer", "kratzer_correction_slope", "kratzer_energy_deformed",
    "kratzer_energy_expansion", "kratzer_energy_undeformed", "kratzer_spectroscopic_constants",
    "lambda_kratzer", "lambda_pho", "load_levels", "load_molecules", "master_energy",
    "minimal_length", "oracle", "p4_expectation", "p4_expectation_fd", "packaged_data_path",
    "pho", "pho_correction_slope", "pho_energy_deformed",
    "pho_energy_expansion", "pho_energy_undeformed", "pho_spectroscopic_constants",
    "potential_expectation", "solve_radial", "spectroscopy", "synthetic_molecule",
    "verify",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_exported_name_resolves(name):
    assert getattr(gupmol, name) is not None
    assert name in dir(gupmol)


def test_star_import_keeps_every_name():
    namespace = {}
    exec("from gupmol import *", namespace)
    assert set(EXPORTS) <= set(namespace)


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
