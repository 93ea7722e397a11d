"""Vibration-rotation spectra of diatomic molecules under a minimal length.

Closed-form spectra and band-spectrum constants for the 1/r^2 - 1/r and
pseudoharmonic molecular potentials in quantum mechanics deformed by a
smallest resolvable length hbar*sqrt(5 beta), an independent eigensolver
of the radial equation (a sinc DVR in ln r) that verifies every formula, and
an estimator for the upper bound on beta from experimental data.

Importing the package loads neither numpy nor scipy.  The closed forms run
on Python floats: single levels, slopes, band constants and beta bounds.
numpy is imported where an array is built: level tables
(``closed_form_table``, ``LevelTable``), ``fit_dunham`` and the solver.
scipy is imported by the solver's eigensolve alone (``oracle._dvr_eigensolve``),
so a sweep loads it at its first solve and a refused one never does.
"""
from .core import (
    AMU_TO_INTERNAL,
    EV_TO_CM1,
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
    gamma,
    lambda_kratzer,
    lambda_pho,
    master_energy,
    synthetic_molecule,
)
from .kratzer import (
    kratzer_correction_slope,
    kratzer_energy_deformed,
    kratzer_energy_undeformed,
    kratzer_spectroscopic_constants,
)
from .pho import (
    pho_correction_slope,
    pho_energy_deformed,
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
from .verify import SweepCell, SweepReport, closed_vs_oracle_sweep

__version__ = "0.1.0"

# The names bound now: without __all__, a star import would also bind each
# submodule imported later, such as ``cli``.
__all__ = sorted(name for name in globals() if not name.startswith("_"))
