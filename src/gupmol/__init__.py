"""Vibration-rotation spectra of diatomic molecules under a minimal length.

Closed-form spectra and band-spectrum constants for the 1/r^2 - 1/r and
pseudoharmonic molecular potentials in quantum mechanics deformed by a
smallest resolvable length hbar*sqrt(5 beta), an independent eigensolver
of the radial equation that verifies every formula, and an estimator for the
upper bound on beta from experimental data.

The solver (``oracle``) and the sweep built on it (``verify``) load scipy, so
their names are resolved on first use.  The closed forms load no numpy:
importing the package and computing single levels, slopes, band constants and
beta bounds runs on Python floats.  numpy is imported where an array is built:
level tables (``closed_form_table``, ``LevelTable``), ``fit_dunham`` and the
potentials' values.
"""
from importlib import import_module as _import_module

from .core import (
    AMU_TO_INTERNAL,
    EV_TO_CM1,
    HBAR,
    HBARC_EV_ANGSTROM,
    NO_DEFORMATION,
    UNITS,
    ConvergenceError,
    DataFormatError,
    Deformation,
    DomainError,
    EnergyLevel,
    FitError,
    GridError,
    GupmolError,
    Molecule,
    PerturbationWarning,
    QuantumNumbers,
    UnitSystem,
    beta_from_minimal_length,
    gamma,
    lambda_kratzer,
    lambda_pho,
    master_energy,
    minimal_length,
    synthetic_molecule,
)
from .kratzer import (
    KratzerPotential,
    kratzer_correction_slope,
    kratzer_energy_deformed,
    kratzer_energy_expansion,
    kratzer_energy_undeformed,
    kratzer_spectroscopic_constants,
)
from .pho import (
    PhoPotential,
    pho_correction_slope,
    pho_energy_deformed,
    pho_energy_expansion,
    pho_energy_undeformed,
    pho_spectroscopic_constants,
)
from .spectroscopy import (
    BetaBound,
    DunhamFit,
    ExperimentalLevel,
    LevelTable,
    SpectroscopicConstants,
    closed_form_table,
    fit_beta_bound,
    fit_dunham,
    load_levels,
    load_molecules,
    packaged_data_path,
)

__version__ = "0.1.0"

_LAZY_MODULES = {
    "oracle": ("RadialEigenstate", "RadialGrid", "extrapolate", "p4_expectation", "solve_radial"),
    "verify": ("SweepCell", "SweepReport", "closed_vs_oracle_sweep"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | set(_LAZY_MODULES)
    | set(_LAZY_NAMES)
)


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        return getattr(_import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
