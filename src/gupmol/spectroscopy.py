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
import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

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
    _grid,
    _master_basis,
    gamma,
)
from .kratzer import KRATZER
from .pho import PHO

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True, init=False, eq=False)
class LevelTable:
    """Levels of one molecule as read-only columns, integer ``n`` and ``ell`` and float
    ``energy``, plus provenance.  Built from ``entries``, ((QuantumNumbers, energy), ...),
    or by closed_form_table from its kernel columns, when ``entries`` is a view made
    on first use.  A level may not repeat: entries are checked for repeats; the kernel
    columns of closed_form_table are an n-major grid and are not re-checked.  A table
    equals only itself.

    The fit basis (fit_dunham's design matrix and distinct counts) is built on the
    first fit and kept.  A closed_form_table shares its ``n`` and ``ell`` columns and
    its basis, all read-only, with every table of its (n_max, l_max) shape."""

    molecule: Molecule | None
    n: np.ndarray
    ell: np.ndarray
    energy: np.ndarray
    provenance: str

    def __init__(self, molecule: Molecule | None, entries: tuple | None, provenance: str, *,
                 _columns: tuple | None = None) -> None:
        import numpy as np

        if provenance not in PROVENANCES:
            raise DomainError(f"provenance must be one of {PROVENANCES}, got {provenance!r}")
        if _columns is None:
            self.__dict__["entries"] = entries = tuple(entries)
            n = np.array([qn.n for qn, _ in entries], dtype=np.int64)
            ell = np.array([qn.ell for qn, _ in entries], dtype=np.int64)
            order = np.lexsort((ell, n))  # stable, so each repeat sorts after its first row
            repeats = order[1:][(np.diff(n[order]) == 0) & (np.diff(ell[order]) == 0)]
            if repeats.size:
                k = repeats.min()
                raise DomainError(f"duplicate level (n={n[k]}, ell={ell[k]}) in table")
            _columns = (n, ell, [e for _, e in entries])
        n, ell = (np.asarray(column, dtype=np.int64) for column in _columns[:2])
        energy = np.asarray(_columns[2], dtype=float)
        for column in (n, ell, energy):
            column.flags.writeable = False
        self.__dict__.update(molecule=molecule, n=n, ell=ell, energy=energy, provenance=provenance)

    @cached_property
    def entries(self) -> tuple[tuple[QuantumNumbers, float], ...]:
        return tuple(zip(map(QuantumNumbers, self.n.tolist(), self.ell.tolist()),
                         self.energy.tolist()))

    @cached_property
    def _basis(self) -> tuple:
        return _fit_basis(self.n, self.ell)


def _fit_basis(n, ell) -> tuple:
    """The master expression's design matrix over the levels (n, ell), one
    read-only row each, and the numbers of distinct n and of distinct ell."""
    import numpy as np

    # The basis carries the master expression's signs, so the solution vector is the constants.
    design = np.empty((len(n), 6))
    for j, column in enumerate(_master_basis(n, ell)):
        design[:, j] = column
    design.flags.writeable = False
    # Steps in a sorted copy, not np.unique, whose first call imports numpy.ma
    # (15 ms of a cold CLI); the rows may come in any order.
    distinct_n, distinct_l = (int(np.count_nonzero(np.diff(np.sort(c)))) + 1 if c.size else 0
                              for c in (n, ell))
    return design, distinct_n, distinct_l


# A cached basis holds 48 bytes a level: 1.9 MB at the CLI's 201 x 201 cap, so
# the four kept shapes hold at most 7.8 MB there (48 bytes a level beyond).
@lru_cache(maxsize=4)
def _grid_basis(n_max: int, l_max: int) -> tuple:
    """The fit basis of the (n_max + 1) x (l_max + 1) grid, built once per shape."""
    return _fit_basis(*_grid(n_max, l_max)[:2])


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
    ell (and 6 entries), and FitError naming the first level, in row order,
    whose energy is not finite.
    """
    import numpy as np

    n, ell, rhs = table.n, table.ell, table.energy
    design, distinct_n, distinct_l = table._basis
    problems = []
    if len(rhs) < 6:
        problems.append(f"at least 6 levels (got {len(rhs)})")
    if distinct_n < MIN_DISTINCT_N:
        problems.append(f"at least {MIN_DISTINCT_N} distinct n (got {distinct_n})")
    if distinct_l < MIN_DISTINCT_L:
        problems.append(f"at least {MIN_DISTINCT_L} distinct ell (got {distinct_l})")
    if problems:
        raise FitError("level table cannot determine all six constants; need " + "; ".join(problems))
    if not np.isfinite(rhs).all():
        k = np.flatnonzero(~np.isfinite(rhs))[0]  # the first, in row order
        raise FitError(f"level (n={n[k]}, ell={ell[k]}) has a non-finite energy "
                       f"({float(rhs[k])}); cannot fit")

    coeff, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 6:
        raise FitError("design matrix is rank deficient despite quantum-number coverage")
    residuals = design @ coeff - rhs
    # The RMS is taken on residuals scaled by the largest, which cannot overflow.
    residual_max = float(np.max(np.abs(residuals)))
    if 0.0 < residual_max < math.inf:
        residual_rms = residual_max * float(np.sqrt(np.mean((residuals / residual_max) ** 2)))
    else:
        residual_rms = residual_max
    return DunhamFit(
        # Python floats, as the closed forms give them: a unit conversion that
        # overflows is then inf without a numpy RuntimeWarning.
        constants=SpectroscopicConstants(*coeff.tolist()),
        residual_max=residual_max,
        residual_rms=residual_rms,
        n_entries=len(rhs),
    )


def closed_form_table(
    m: Molecule, d: Deformation, kind: str, n_max: int, l_max: int
) -> LevelTable:
    """Level table from the closed forms, energies from the potential minimum.

    One evaluation of the model's kernels over the whole (n, ell) grid, rows
    in n-major order; the kernel's columns become the table's, with no
    per-level object, and its fit basis is the one kept for its shape.  Each
    energy is the kernel's level above the well minimum plus its shift, so
    fitted y00 is directly comparable with the closed-form constant.  n_max
    and l_max must be nonnegative integers.
    """
    import numpy as np

    n, ell, _, e_min, de = get_model(kind).table(m, d, n_max, l_max)
    with np.errstate(over="ignore"):  # a level beyond float range is inf
        energy = e_min + de
    table = LevelTable(m, None, f"computed-{kind}", _columns=(n, ell, energy))
    table.__dict__["_basis"] = _grid_basis(int(n_max), int(l_max))  # the cached property's slot
    return table


@dataclass(frozen=True)
class BetaBound:
    """Upper bound on beta from one theory-vs-experiment gap.

    This is an attribution bound, never a measurement: the entire gap is
    blamed on the deformation term.
    """

    beta_upper: float
    basis: str

    @property
    def minimal_length_upper(self) -> float:
        return Deformation(self.beta_upper).minimal_length


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
    e_theory = float(model.energies(m, qn.n, qn.ell)[1])  # the level above the minimum
    slope = model.slope(m, qn)
    if not (math.isfinite(e_theory) and math.isfinite(slope)):
        raise DomainError(
            f"level (n={qn.n}, ell={qn.ell}) of {m.name!r} at gamma = {gamma(m)!r} is out of "
            f"floating-point range (level {e_theory!r} eV, slope {slope!r} eV per unit beta); "
            f"cannot bound beta"
        )

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
    return BetaBound(beta_upper=beta_upper, basis=basis)


# ---------------------------------------------------------------------------
# data files


@dataclass(frozen=True)
class ExperimentalLevel:
    """One measured level, internal eV, referenced to the potential minimum."""

    molecule: str
    qn: QuantumNumbers
    energy: float
    source: str


def _data_rows(path: Path, data: bytes, expected_fields: int):
    """Yield (lineno, fields) from the bytes of the CSV at ``path``, skipping blanks,
    comments, header; decoded as ``open(path, newline="")`` decodes them."""
    with io.TextIOWrapper(io.BytesIO(data), newline="") as handle:
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
    file parses to an empty list with a warning, on every call.

    The file is read on every call, so an edit is seen by the next one, but
    its bytes are parsed once per process: the molecules of the last few
    (path, content) pairs are kept, and each call returns a new list of them.
    A file that fails to parse is not kept and fails alike on every call.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"molecule file not found: {path}")
    molecules = list(_parse_molecules(path, path.read_bytes()))
    if not molecules:
        warnings.warn(f"molecule file {path} contains no records", stacklevel=2)
    return molecules


@lru_cache(maxsize=8)
def _parse_molecules(path: Path, data: bytes) -> tuple[Molecule, ...]:
    """The molecules of one file's bytes.  The key holds the content itself,
    never a stat field, so it cannot go stale; the path is in it because the
    error messages name it."""
    molecules: list[Molecule] = []
    seen: dict[str, int] = {}
    for lineno, row in _data_rows(path, data, 4):
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
    return tuple(molecules)


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
    for lineno, row in _data_rows(path, path.read_bytes(), 5):
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
