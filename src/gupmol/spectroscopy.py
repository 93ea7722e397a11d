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
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .core import (
    DataFormatError,
    Deformation,
    DomainError,
    FitError,
    Model,
    Molecule,
    QuantumNumbers,
    SpectroscopicConstants,
    _fit_basis,
    _grid,
    _per_ev,
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
    or by closed_form_table from its kernel columns; ``entries`` is a view built from
    the columns on each read, so a loop over levels reads the columns.  A level may not
    repeat: entries are checked for repeats; the kernel columns of closed_form_table
    are an n-major grid and are not re-checked.  A table equals only itself.

    The fit basis (the QR factors of fit_dunham's design matrix, its rank and the
    distinct counts) is part of the table: a table built from ``entries`` builds
    its own when it is built, and a closed_form_table shares its ``n`` and ``ell``
    columns and its basis, all read-only, with every table of its (n_max, l_max)
    shape (core._grid)."""

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
            entries = tuple(entries)
            n = np.array([qn.n for qn, _ in entries], dtype=np.int64)
            ell = np.array([qn.ell for qn, _ in entries], dtype=np.int64)
            order = np.lexsort((ell, n))  # stable, so each repeat sorts after its first row
            n_sorted, ell_sorted = n[order], ell[order]
            repeats = order[1:][(n_sorted[1:] == n_sorted[:-1])
                                & (ell_sorted[1:] == ell_sorted[:-1])]
            if repeats.size:
                k = repeats.min()
                raise DomainError(f"duplicate level (n={n[k]}, ell={ell[k]}) in table")
            _columns = (n, ell, [e for _, e in entries], _fit_basis(n, ell))
        n, ell = (np.asarray(column, dtype=np.int64) for column in _columns[:2])
        energy = np.asarray(_columns[2], dtype=float)
        for column in (n, ell, energy):
            column.flags.writeable = False
        self.__dict__.update(molecule=molecule, n=n, ell=ell, energy=energy, provenance=provenance,
                             _basis=_columns[3])

    @property
    def entries(self) -> tuple[tuple[QuantumNumbers, float], ...]:
        return tuple(zip(map(QuantumNumbers, self.n.tolist(), self.ell.tolist()),
                         self.energy.tolist()))


@dataclass(frozen=True)
class DunhamFit:
    """Fit result: the constants, the number of levels fitted, and the solve
    that gave them, from which ``residual_max`` and ``residual_rms``, the max
    and RMS residuals of the linear model, are computed on each read.

    The solve is (Q^T, Q^T E / scale, E, scale): the basis's read-only Q^T, the
    projection the constants were solved from, the table's read-only energy
    column and the power of two it was scaled by.  Nothing writes to these,
    and dividing by the scale again gives the scaled energies the solve took
    bit for bit, so a read computes the residuals from the same values, with
    the same expressions in the same order, as a fit that computed them at
    once, and gets the same bits.  A fit keeps no array of a level's size
    of its own.  The solve is neither compared nor shown: two fits are equal
    when their constants and level counts are."""

    constants: SpectroscopicConstants
    n_entries: int
    _solve: tuple = field(compare=False, repr=False)

    @property
    def residual_max(self) -> float:
        return _residuals(*self._solve)[0]

    @property
    def residual_rms(self) -> float:
        return _residuals(*self._solve)[1]


def _residuals(q_t: np.ndarray, projection: np.ndarray, energy: np.ndarray,
               scale: float) -> tuple[float, float]:
    """Max and RMS of the residuals Q (Q^T E) - E of one solve (see DunhamFit)."""
    import numpy as np

    rhs = energy / scale  # the quotients the solve took, bit for bit
    residuals = projection @ q_t - rhs
    # The RMS is taken on residuals scaled by the largest, which cannot underflow.
    residual_max = float(np.abs(residuals).max())
    residual_rms = residual_max
    if residual_max > 0.0:
        scaled = residuals / residual_max
        residual_rms *= math.sqrt(float((scaled * scaled).sum()) / len(scaled))
    return residual_max * scale, residual_rms * scale


def fit_dunham(table: LevelTable) -> DunhamFit:
    """Least-squares extraction of the six constants from a level table.

    Solves through the Householder QR the table keeps with its basis, never
    normal equations: the constants are R^-1 (Q^T E), two small products per
    table, and that is all a fit computes.  The residuals Q (Q^T E) - E are
    computed when the result's ``residual_max`` or ``residual_rms`` is read,
    from the solve it keeps (see DunhamFit).  Raises FitError naming the
    missing quantum-number coverage when the design matrix cannot have full
    rank: the basis {1, nu, nu^2, nu^3, L, nu L} needs at least 4 distinct n
    and 2 distinct ell (and 6 entries); FitError naming the first level, in
    row order, whose energy is not finite; and FitError when the design is
    rank deficient all the same.
    """
    import numpy as np

    n, ell, rhs = table.n, table.ell, table.energy
    q_t, r_inv, rank, distinct_n, distinct_l = table._basis
    problems = []
    if len(rhs) < 6:
        problems.append(f"at least 6 levels (got {len(rhs)})")
    if distinct_n < MIN_DISTINCT_N:
        problems.append(f"at least {MIN_DISTINCT_N} distinct n (got {distinct_n})")
    if distinct_l < MIN_DISTINCT_L:
        problems.append(f"at least {MIN_DISTINCT_L} distinct ell (got {distinct_l})")
    if problems:
        raise FitError("level table cannot determine all six constants; need " + "; ".join(problems))
    e_max = float(np.abs(rhs).max())  # not finite if any energy is not
    if not math.isfinite(e_max):
        k = np.flatnonzero(~np.isfinite(rhs))[0]  # the first, in row order
        raise FitError(f"level (n={n[k]}, ell={ell[k]}) has a non-finite energy "
                       f"({float(rhs[k])}); cannot fit")

    if rank < 6:
        raise FitError("design matrix is rank deficient despite quantum-number coverage")
    # Solved for E over the power of two at or below max|E|, which changes no bit
    # of the result, so that no sum of the products overflows near the float maximum.
    scale = math.ldexp(1.0, math.frexp(e_max)[1] - 1)
    projection = q_t @ (rhs / scale)
    coeff = r_inv @ projection
    return DunhamFit(
        # Python floats, as the closed forms give them: a unit conversion that
        # overflows is then inf without a numpy RuntimeWarning.
        constants=SpectroscopicConstants(*(c * scale for c in coeff.tolist())),
        n_entries=len(rhs),
        _solve=(q_t, projection, rhs, scale),
    )


def closed_form_table(
    m: Molecule, d: Deformation, kind: str, n_max: int, l_max: int
) -> LevelTable:
    """Level table from the closed forms, energies from the potential minimum.

    One evaluation of the model's kernels over the whole (n, ell) grid, rows
    in n-major order; the kernel's columns become the table's, with no
    per-level object, and its fit basis is the one core._grid keeps for its
    shape.  Each energy is the kernel's level above the well minimum plus its
    shift, so fitted y00 is directly comparable with the closed-form constant.
    n_max and l_max must be nonnegative integers.
    """
    import numpy as np

    n, ell, _, e_min, de = get_model(kind).table(m, d, n_max, l_max)
    with np.errstate(over="ignore"):  # a level beyond float range is inf
        energy = e_min + de
    return LevelTable(m, None, f"computed-{kind}",
                      _columns=(n, ell, energy, _grid(int(n_max), int(l_max))[4]))


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
    comments, header; decoded as UTF-8 without a leading byte-order mark, every
    newline handed to the csv reader.  The first row is the header only if none
    of fields 2 to 4, numbers in both files, is one."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as handle:
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
                if not any(map(_looks_numeric, row[1:4])):
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
            energy = value / _per_ev(unit)
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
