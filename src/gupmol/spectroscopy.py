"""Band-spectrum constants, level tables, least-squares extraction, data files.

The master vibration-rotation energy expression used throughout is

    E(n, ell) = y00 + we*(n+1/2) - wexe*(n+1/2)^2 + weye*(n+1/2)^3
                + be*ell(ell+1) - alphae*(n+1/2)*ell(ell+1)

with level energies measured from the potential-curve minimum.  Fitting that
model to a level table is a plain linear least-squares problem; the sign
convention above means the returned wexe and alphae are positive when the
spectrum bends the way real molecules do.

Data files are small CSVs documented in the README: ``molecules.csv`` with
columns name, De_eV, re_angstrom, mu_amu, source and ``levels.csv`` with
columns molecule, n, l, energy, unit, source (energies from the potential
minimum).  Packaged reference data for H2 ships under ``gupmol/data``.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import (
    UNITS,
    DataFormatError,
    Deformation,
    DomainError,
    FitError,
    Model,
    Molecule,
    QuantumNumbers,
    SpectroscopicConstants,
    _master_basis,
    master_energy,  # noqa: F401  (one of this module's public names)
)
from .kratzer import KRATZER
from .pho import PHO

# The one table of potentials: every command and routine that takes a
# potential kind looks it up here.
MODELS = {model.name: model for model in (KRATZER, PHO)}

PROVENANCES = tuple(f"computed-{kind}" for kind in MODELS) + ("experimental",)

# Distinct quantum-number coverage needed for the six-parameter model: the
# cubic in (n+1/2) needs four distinct n, the two ell columns two distinct ell.
MIN_DISTINCT_N = 4
MIN_DISTINCT_L = 2


def get_model(kind: str) -> Model:
    """The record of one potential kind; DomainError names the known kinds."""
    if kind not in MODELS:
        raise DomainError(f"unknown potential kind {kind!r}; expected one of {tuple(MODELS)}")
    return MODELS[kind]


@dataclass(frozen=True)
class LevelTable:
    """Levels of one molecule: ((QuantumNumbers, energy), ...) plus provenance."""

    molecule: Molecule | None
    entries: tuple[tuple[QuantumNumbers, float], ...]
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise DomainError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        seen = set()
        for qn, _ in self.entries:
            key = (qn.n, qn.ell)
            if key in seen:
                raise DomainError(f"duplicate level (n={qn.n}, ell={qn.ell}) in table")
            seen.add(key)


@dataclass(frozen=True)
class DunhamFit:
    """Fit result: constants plus max and RMS residuals of the linear model."""

    constants: SpectroscopicConstants
    residual_max: float
    residual_rms: float
    n_entries: int


def fit_dunham(table: LevelTable) -> DunhamFit:
    """Least-squares extraction of the six constants from a level table.

    Uses an orthogonal-factorization solve (numpy lstsq), never normal
    equations.  Raises FitError naming the missing quantum-number coverage
    when the design matrix cannot have full rank: the basis
    {1, nu, nu^2, nu^3, L, nu L} needs at least 4 distinct n and 2 distinct
    ell (and 6 entries).
    """
    entries = table.entries
    distinct_n = len({qn.n for qn, _ in entries})
    distinct_l = len({qn.ell for qn, _ in entries})
    problems = []
    if len(entries) < 6:
        problems.append(f"at least 6 levels (got {len(entries)})")
    if distinct_n < MIN_DISTINCT_N:
        problems.append(f"at least {MIN_DISTINCT_N} distinct n (got {distinct_n})")
    if distinct_l < MIN_DISTINCT_L:
        problems.append(f"at least {MIN_DISTINCT_L} distinct ell (got {distinct_l})")
    if problems:
        raise FitError("level table cannot determine all six constants; need " + "; ".join(problems))

    # The basis carries the master expression's signs, so the solution vector is the constants.
    design = np.array([_master_basis(qn) for qn, _ in entries])
    rhs = np.array([e for _, e in entries])
    coeff, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 6:
        raise FitError("design matrix is rank deficient despite quantum-number coverage")
    residuals = design @ coeff - rhs
    constants = SpectroscopicConstants(*coeff)
    return DunhamFit(
        constants=constants,
        residual_max=float(np.max(np.abs(residuals))),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        n_entries=len(entries),
    )


def closed_form_table(
    m: Molecule, d: Deformation, kind: str, n_max: int, l_max: int
) -> LevelTable:
    """Level table from the closed forms, energies from the potential minimum.

    Each level is moved by its model's ``well_offset``: the 1/r^2 - 1/r well
    sits at -de, so its levels are shifted by +de; the pseudoharmonic well is
    already zero at its minimum.  This reference
    makes fitted y00 directly comparable with the closed-form constant.
    """
    model = get_model(kind)
    entries = []
    for n in range(n_max + 1):
        for ell in range(l_max + 1):
            qn = QuantumNumbers(n=n, ell=ell)
            entries.append((qn, model.level(m, d, qn).total + model.well_offset(m)))
    return LevelTable(molecule=m, entries=tuple(entries), provenance=f"computed-{kind}")


@dataclass(frozen=True)
class BetaBound:
    """Upper bound on beta from one theory-vs-experiment gap.

    This is an attribution bound, never a measurement: the entire gap is
    blamed on the deformation term.
    """

    beta_upper: float
    minimal_length_upper: float
    basis: str

    def __post_init__(self) -> None:
        expected = Deformation(self.beta_upper).minimal_length
        if not math.isclose(self.minimal_length_upper, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise DomainError("minimal_length_upper inconsistent with beta_upper")


def fit_beta_bound(m: Molecule, e_exp: float, qn: QuantumNumbers, kind: str) -> BetaBound:
    """Solve |E(beta) - E(0)| = |e_exp - E(0)| for beta (a division: the shift
    is linear in beta).

    ``e_exp`` must be measured from the potential-curve minimum, the same
    convention as the levels data file.  A zero gap returns a zero bound; a
    vanishing shift coefficient cannot bound anything and raises FitError.
    """
    model = get_model(kind)
    if not math.isfinite(e_exp):
        raise DomainError(f"e_exp must be finite, got {e_exp!r}")
    e_theory = model.undeformed(m, qn) + model.well_offset(m)
    slope = model.slope(m, qn)

    gap = abs(e_exp - e_theory)
    if gap == 0.0:
        beta_upper = 0.0
    else:
        if slope == 0.0:
            raise FitError(
                f"level (n={qn.n}, ell={qn.ell}) has zero deformation sensitivity; cannot bound beta"
            )
        beta_upper = gap / abs(slope)
        if math.isinf(beta_upper):
            raise DomainError(f"beta bound {gap:.6e} / {abs(slope):.6e} overflows a float")
    basis = (
        f"full |experiment - theory(beta=0)| gap of {gap:.6e} eV for {m.name!r} "
        f"(n={qn.n}, ell={qn.ell}, {kind}) attributed to the deformation shift "
        f"({slope:.6e} eV per unit beta)"
    )
    return BetaBound(
        beta_upper=beta_upper,
        minimal_length_upper=Deformation(beta_upper).minimal_length,
        basis=basis,
    )


# ---------------------------------------------------------------------------
# data files


@dataclass(frozen=True)
class ExperimentalLevel:
    """One measured level, internal eV, referenced to the potential minimum."""

    molecule: str
    qn: QuantumNumbers
    energy: float
    source: str


def _data_rows(path: Path, expected_fields: int):
    """Yield (lineno, fields) from a CSV, skipping blanks, comments, header."""
    with open(path, newline="") as handle:
        try:
            rows = list(csv.reader(handle))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
        header_skipped = False
        for lineno, row in enumerate(rows, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if not header_skipped:
                header_skipped = True
                if not _looks_numeric(row[1] if len(row) > 1 else ""):
                    continue  # header row
            if len(row) < expected_fields:
                raise DataFormatError(
                    f"{path}:{lineno}: expected at least {expected_fields} fields, got {len(row)}"
                )
            yield lineno, [field.strip() for field in row]


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_float(path: Path, lineno: int, name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: field {name!r} is not a number: {text!r}") from None


def load_molecules(path) -> list[Molecule]:
    """Read a molecules CSV (name, De_eV, re_angstrom, mu_amu[, source]).

    Values are converted to internal units; nonpositive parameters and
    duplicate names are rejected with the offending line number.  An empty
    file parses to an empty list with a warning.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"molecule file not found: {path}")
    molecules: list[Molecule] = []
    seen: dict[str, int] = {}
    for lineno, row in _data_rows(path, 4):
        name = row[0]
        if not name:
            raise DataFormatError(f"{path}:{lineno}: empty molecule name")
        if name in seen:
            raise DataFormatError(
                f"{path}:{lineno}: duplicate molecule {name!r} (first seen on line {seen[name]})"
            )
        de_ev = _parse_float(path, lineno, "De_eV", row[1])
        re_a = _parse_float(path, lineno, "re_angstrom", row[2])
        mu_amu = _parse_float(path, lineno, "mu_amu", row[3])
        try:
            molecule = Molecule.from_spectroscopic(name, de_ev, re_a, mu_amu)
        except DomainError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        seen[name] = lineno
        molecules.append(molecule)
    if not molecules:
        warnings.warn(f"molecule file {path} contains no records", stacklevel=2)
    return molecules


def load_levels(path) -> list[ExperimentalLevel]:
    """Read a levels CSV (molecule, n, l, energy, unit[, source]).

    Energies are converted to internal eV and are understood to be measured
    from the potential-curve minimum.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"levels file not found: {path}")
    levels: list[ExperimentalLevel] = []
    seen = set()
    for lineno, row in _data_rows(path, 5):
        name = row[0]
        try:
            qn = QuantumNumbers(n=int(row[1]), ell=int(row[2]))
        except (ValueError, DomainError):
            raise DataFormatError(
                f"{path}:{lineno}: n and l must be nonnegative integers, got {row[1]!r}, {row[2]!r}"
            ) from None
        value = _parse_float(path, lineno, "energy", row[3])
        unit = row[4]
        try:
            energy = UNITS.energy_to_internal(value, unit)
        except DomainError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        key = (name, qn.n, qn.ell)
        if key in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate level {key}")
        seen.add(key)
        source = row[5] if len(row) > 5 else ""
        levels.append(ExperimentalLevel(molecule=name, qn=qn, energy=energy, source=source))
    if not levels:
        warnings.warn(f"levels file {path} contains no records", stacklevel=2)
    return levels


def packaged_data_path(filename: str) -> Path:
    """Path of a CSV shipped under gupmol/data (molecules.csv, levels.csv)."""
    resource = resources.files("gupmol").joinpath("data", filename)
    with resources.as_file(resource) as concrete:
        return Path(concrete)
