"""Shared model types and the internal unit system.

Internal units fix hbar = 1 with energies in eV and lengths in Angstrom.
The derived mass unit is then eV^-1 A^-2 (1 amu is about 239.225 internal)
and the deformation parameter beta, an inverse squared momentum, carries A^2.
Every public function in the package operates on internal-unit quantities.
Units change only at the package's edges (the CLI's ``--units``, the unit
column of a levels file, the amu masses of a molecules file), each by one
multiply or divide by ``_per_ev(unit)`` or ``AMU_TO_INTERNAL``.

The algebra implemented here is the one-parameter deformation in which the
position and momentum commutator picks up a quadratic momentum term.  Its
coordinate representation replaces the momentum operator by
``p * (1 + beta * p^2)``, which turns the kinetic term into
``p^2/2mu + (beta/mu) p^4`` to first order in beta and gives the smallest
resolvable length ``hbar * sqrt(5 beta)`` in three dimensions.  A variant
representation with a 1/3 factor on the quadratic term exists but is not
implemented; the Hamiltonian above is the one every formula in this package
is derived from.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import asdict, astuple, dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    import numpy as np

# CODATA 2022 factors, as scipy 1.17's scipy.constants gives them (pinned here
# so that importing the package loads no scipy): hbar*c in MeV fm, eV in
# inverse metres, and the atomic mass constant in MeV.  From them: hbar*c in
# eV*Angstrom, eV <-> cm^-1, and amu -> internal mass
# = (amu c^2 in eV) / (hbar c in eV*A)^2.
_HBARC_MEV_FM = 197.3269804593025
_EV_INVERSE_METRE = 806554.3937349211
_AMU_MEV = 931.49410372

_HBARC_EV_ANGSTROM = _HBARC_MEV_FM * 10.0
EV_TO_CM1 = _EV_INVERSE_METRE / 100.0
AMU_TO_INTERNAL = _AMU_MEV * 1.0e6 / _HBARC_EV_ANGSTROM**2

# 1 eV in each energy unit; x * 1.0 and x / 1.0 are x bit for bit in IEEE 754.
_PER_EV = {"internal": 1.0, "eV": 1.0, "cm-1": EV_TO_CM1}
ENERGY_UNITS = tuple(_PER_EV)

# |de| / |e0| above which the first-order shift is flagged as untrustworthy.
FIRST_ORDER_WARN_RATIO = 0.1


class GupmolError(Exception):
    """Base class for all package errors."""


class DomainError(GupmolError, ValueError):
    """Input outside the mathematical domain of a formula (poles, signs, ranges)."""


class GridError(GupmolError, RuntimeError):
    """Radial grid cannot support the requested computation."""


class ConvergenceError(GupmolError, RuntimeError):
    """An eigensolve of the oracle failed or found a state whose node count is
    not its index, or successive sinc-DVR solves never agreed."""


class DataFormatError(GupmolError, ValueError):
    """Malformed molecule or experimental-level data file."""


class FitError(GupmolError, ValueError):
    """Least-squares problem is unsolvable as posed."""


class PerturbationWarning(UserWarning):
    """First-order correction is not small against the level it corrects.

    ``count`` is the number of flagged levels: 1 from a single level, any
    number from a level table, which warns once.  ``qn`` and ``ratio``,
    |shift| / |undeformed level|, are those of the worst of them, so that a
    caller can summarize many warnings.
    """

    def __init__(self, message: str, qn: QuantumNumbers | None = None,
                 ratio: float = math.nan, count: int = 1) -> None:
        super().__init__(message)
        self.qn = qn
        self.ratio = ratio
        self.count = count


def _per_ev(unit: str) -> float:
    """1 eV in ``unit``; DomainError names the known units."""
    try:
        return _PER_EV[unit]
    except (KeyError, TypeError):
        raise DomainError(f"unknown energy unit {unit!r}; expected one of {ENERGY_UNITS}") from None


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


def _require_counts(**counts: int) -> None:
    """DomainError unless each value is a nonnegative integer (numpy's, not a bool)."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True)
class Molecule:
    """Diatomic molecule parameters, internal units.

    de: well depth (eV); re: equilibrium separation (A); mu: reduced mass
    (eV^-1 A^-2).  Use :meth:`from_spectroscopic` to build from tabulated
    eV / Angstrom / amu values.
    """

    name: str
    de: float
    re: float
    mu: float

    def __post_init__(self) -> None:
        _require_positive("de", self.de)
        _require_positive("re", self.re)
        _require_positive("mu", self.mu)

    @classmethod
    def from_spectroscopic(cls, name: str, de_ev: float, re_angstrom: float,
                           mu_amu: float) -> "Molecule":
        return cls(name=name, de=de_ev, re=re_angstrom, mu=mu_amu * AMU_TO_INTERNAL)


def synthetic_molecule(gamma_value: float, de: float = 1.0, re: float = 1.0,
                       name: str | None = None) -> Molecule:
    """Molecule whose well-depth parameter equals ``gamma_value`` exactly.

    Fixes de and re and solves for the reduced mass; handy for sweeps where
    gamma is the controlled variable.
    """
    for label, value in (("gamma_value", gamma_value), ("de", de), ("re", re)):
        _require_positive(label, value)
    try:
        mu = (gamma_value / re) ** 2 / (2.0 * de)
    except OverflowError:
        mu = math.inf
    if mu == 0.0 or math.isinf(mu):
        raise DomainError(f"gamma = {gamma_value!r} is out of range for de = {de!r} and "
                          f"re = {re!r}: the reduced mass it needs is {mu!r} in floats")
    return Molecule(name=name or f"synthetic-gamma-{gamma_value:g}", de=de, re=re, mu=mu)


@dataclass(frozen=True)
class Deformation:
    """Deformation parameter beta (A^2 internal); beta = 0 is the ordinary theory."""

    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.beta == 0.0:  # -0.0 passes the check above; store it as +0.0
            object.__setattr__(self, "beta", 0.0)

    @property
    def minimal_length(self) -> float:
        """Smallest resolvable length hbar*sqrt(5 beta), in Angstrom (hbar = 1)."""
        return math.sqrt(5.0 * self.beta)

    @classmethod
    def from_minimal_length(cls, x: float) -> "Deformation":
        """Inverse of :attr:`minimal_length`; rejects negative lengths."""
        if not (math.isfinite(x) and x >= 0.0):
            raise DomainError(f"minimal length must be finite and >= 0, got {x!r}")
        if math.isinf(x * x):
            raise DomainError(f"minimal length {x!r} is out of floating-point range: its "
                              "beta = x^2/5 overflows")
        return cls(beta=x * x / 5.0)


@dataclass(frozen=True)
class QuantumNumbers:
    """Vibrational (n) and rotational (ell) quantum numbers, both >= 0."""

    n: int
    ell: int

    def __post_init__(self) -> None:
        if type(self.n) is int and type(self.ell) is int and self.n >= 0 and self.ell >= 0:
            return  # exact ints need neither a check nor a conversion
        for label, value in (("n", self.n), ("ell", self.ell)):
            try:  # None >= 0 and int(inf) raise errors of their own
                integral = not isinstance(value, bool) and value >= 0 and int(value) == value
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise DomainError(f"{label} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, label, int(value))


def gamma(m: Molecule) -> float:
    """Dimensionless well-depth parameter re*sqrt(2 mu de)/hbar.

    The same expression serves both potentials; it is large (>> 1) for real
    molecules and is the expansion variable of the band-spectrum series.
    """
    value = m.re * math.sqrt(2.0 * m.mu * m.de)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"gamma is not finite and positive for {m.name!r}")
    return value


def _series_gamma(m: Molecule) -> float:
    """gamma for the 1/gamma band-spectrum series, whose 1/gamma^3 terms need
    a finite gamma^3 > 0."""
    g = gamma(m)
    try:
        cube = g**3
    except OverflowError:  # float ** raises where float * would give inf
        raise DomainError(
            f"gamma = {g!r} is too large for the 1/gamma series of {m.name!r}") from None
    if cube == 0.0:
        raise DomainError(f"gamma = {g!r} is too small for the 1/gamma series of {m.name!r}")
    return g


def lambda_kratzer(gamma_value: float, ell):
    """Effective radial index 1/2 + sqrt((ell+1/2)^2 + gamma^2); always > 1.
    Elementwise over an array of ell."""
    return 0.5 + lambda_pho(gamma_value, ell)


def lambda_pho(gamma_value: float, ell):
    """Effective radial index sqrt(gamma^2 + (ell+1/2)^2); no 1/2 shift here.
    Elementwise over an array of ell."""
    a = ell + 0.5
    return _sqrt(gamma_value * gamma_value + a * a)


def _sqrt(x):
    """math.sqrt of a Python number (np.float64 included, a float subclass),
    np.sqrt of anything else, an array.  Both round correctly, so a level
    equals its table entry bit for bit, and a number stays a Python float,
    whose arithmetic overflows to inf without a warning.  Only an array
    loads numpy."""
    if isinstance(x, (int, float)):
        return math.sqrt(x)
    import numpy as np

    return np.sqrt(x)


def _reject_pole(bad, lam, ell, g: float, pole: str) -> None:
    """DomainError at the first ell where ``bad`` holds, where the slope formula
    ``pole`` names is undefined.  ``lam`` a Python number (np.float64 included)
    is one level; otherwise ``bad`` and ``lam`` are arrays over ell, and as the
    masks never depend on n, a table's first offending level is n = 0 there."""
    if isinstance(lam, (int, float)):
        if not bad:
            return
    else:
        if not bad.any():
            return
        k = int(bad.argmax())
        lam, ell = float(lam[k]), ell[k]
    raise DomainError(f"correction formula {pole}, where <p^4> diverges, so first order is "
                      f"undefined there; got lambda = {lam!r} (gamma = {g!r}, ell = {int(ell)})")


@dataclass(frozen=True)
class EnergyLevel:
    """One level split into its undeformed part and the deformation shift."""

    qn: QuantumNumbers
    e0: float
    de: float

    @property
    def total(self) -> float:
        return self.e0 + self.de


@dataclass(frozen=True)
class SpectroscopicConstants:
    """The six coefficients of the master energy expression (internal eV)."""

    y00: float
    we: float
    wexe: float
    weye: float
    be: float
    alphae: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _master_basis(n, ell) -> tuple:
    """(1, nu, -nu^2, nu^3, L, -nu L), elementwise over arrays of n and ell: the
    master expression is the constants dotted with it."""
    nu = n + 0.5
    ll = ell * (ell + 1.0)
    return 1.0, nu, -nu * nu, nu * nu * nu, ll, -nu * ll


def master_energy(c: SpectroscopicConstants, qn: QuantumNumbers) -> float:
    """Evaluate the master expression for one level."""
    return sum(x * b for x, b in zip(astuple(c), _master_basis(qn.n, qn.ell)))


def _fit_basis(n, ell) -> tuple:
    """The master expression's design matrix over the levels (n, ell), kept as
    its reduced Householder QR: (Q^T, R^-1, rank, distinct n, distinct ell).
    Q^T is read-only with one column a level; R^-1 is read-only, and None
    unless the rank is 6.  The rank is lstsq's with rcond=None, counted on the
    singular values of R, which are the design's."""
    import numpy as np

    # The basis carries the master expression's signs, so the solution vector is the constants.
    # Column-major, as LAPACK takes it, so the factorization copies it straight.
    design = np.empty((len(n), 6), order="F")
    for j, column in enumerate(_master_basis(n, ell)):
        design[:, j] = column
    q, r = np.linalg.qr(design)
    s = np.linalg.svd(r, compute_uv=False)  # descending; empty for a table of no levels
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(design.shape) * s[:1]))
    q.flags.writeable = False
    r_inv = None
    if rank == 6:
        r_inv = np.linalg.inv(r)
        r_inv.flags.writeable = False
    # Steps in a sorted copy, not np.unique, whose first call imports numpy.ma
    # (15 ms of a cold CLI); the rows may come in any order.
    distinct_n, distinct_l = (int(np.count_nonzero(c[1:] != c[:-1])) + 1 if c.size else 0
                              for c in map(np.sort, (n, ell)))
    return q.T, r_inv, rank, distinct_n, distinct_l


# A cached grid holds 64 bytes a level, 16 in its two int64 columns and 48 in
# its Q^T, and 8 bytes per n and per ell in the kernel inputs, besides the 6 x 6
# R^-1: 2.6 MB at the CLI's 201 x 201 cap, so the four kept shapes hold at most
# 10.4 MB there.
@lru_cache(maxsize=4)
def _grid(n_max: int, l_max: int) -> tuple:
    """The levels n <= n_max, ell <= l_max, built once per shape and shared
    read-only by every table of that shape: n-major int64 columns of n and
    ell, the kernels' inputs, a float column of n and a float row of ell, and
    the fit basis of those levels (see _fit_basis)."""
    import numpy as np

    n_col, ell_col = np.divmod(np.arange((n_max + 1) * (l_max + 1)), l_max + 1)
    grid = (n_col, ell_col, np.arange(n_max + 1.0)[:, None], np.arange(l_max + 1.0))
    for array in grid:
        array.flags.writeable = False
    return *grid, _fit_basis(n_col, ell_col)


def _warn_first_order(m: Molecule, qn: QuantumNumbers, shift: float, level: float,
                      stacklevel: int, count: int = 1) -> None:
    """The PerturbationWarning of ``count`` levels whose shift is not small
    against them; ``qn``, ``shift`` and ``level`` are the worst one's."""
    where = f"for {m.name!r} (n={qn.n}, ell={qn.ell})"
    if count > 1:
        where = f"at {count} levels of {m.name!r}, worst (n={qn.n}, ell={qn.ell})"
    warnings.warn(
        PerturbationWarning(
            f"first-order shift |{shift:.3e}| exceeds {FIRST_ORDER_WARN_RATIO:g} of "
            f"|e0| = {abs(level):.3e} {where}",
            qn=qn,
            ratio=abs(shift) / abs(level) if level else math.inf,
            count=count,
        ),
        PerturbationWarning,
        stacklevel=stacklevel,
    )


@dataclass(frozen=True)
class Model:
    """One potential's closed forms, as every routine that takes a kind reads them.

    ``potential(m, r)``, V on an array of radii, which the solver evaluates;
    the closed forms in two stages, the one home of their formulas; the band
    constants; and the offset that moves a level to the well minimum.  The
    row stage ``row(m, ell, slopes)`` holds what depends on the molecule and
    ell alone, and the slope's part, with the pole guard, only if ``slopes``.
    The n stage ``at(row, n)`` gives (e0 on the potential's own scale, from
    dissociation for the 1/r^2 - 1/r well; the level above the well minimum;
    the shift per unit beta, None from a row without slopes).  Both take a
    number or an array, and no large terms cancel in either: a table runs the
    row stage on its ell row and the n stage on its n column, and the scalar
    methods run both on Python floats, so a level equals its table entry bit
    for bit; the package exports them per potential.  ``expansion``, the
    large-gamma series of a level, is the master expression of ``constants``,
    which holds its terms.
    """

    name: str
    potential: Callable[[Molecule, Any], Any]
    row: Callable[[Molecule, Any, bool], tuple]
    at: Callable[[tuple, Any], tuple]
    constants: Callable[[Molecule, Deformation], SpectroscopicConstants]
    well_offset: Callable[[Molecule], float]

    def undeformed(self, m: Molecule, qn: QuantumNumbers) -> float:
        """Undeformed level on the potential's own energy scale."""
        return float(self.at(self.row(m, float(qn.ell), False), float(qn.n))[0])

    def slope(self, m: Molecule, qn: QuantumNumbers) -> float:
        """First-order shift per unit beta; DomainError at the formula's pole."""
        return float(self.at(self.row(m, float(qn.ell), True), float(qn.n))[2])

    def level(self, m: Molecule, d: Deformation, qn: QuantumNumbers) -> EnergyLevel:
        """Level with its minimal-length shift beta*slope, exact to first order in
        beta; at beta = 0 the slope, whose poles a shallow well can reach, is not
        evaluated.  Warns (PerturbationWarning) when |shift| exceeds
        FIRST_ORDER_WARN_RATIO of |e0|, where first order stops being a
        controlled approximation.
        """
        e0, _, slope = self.at(self.row(m, float(qn.ell), d.beta != 0.0), float(qn.n))
        e0 = float(e0)
        de = 0.0 if slope is None else d.beta * float(slope)
        if abs(de) > FIRST_ORDER_WARN_RATIO * abs(e0):
            _warn_first_order(m, qn, de, e0, stacklevel=3)  # at the caller of level
        return EnergyLevel(qn=qn, e0=e0, de=de)

    def table(self, m: Molecule, d: Deformation, n_max: int, l_max: int):
        """Every level n <= n_max, ell <= l_max in n-major order, the row stage run
        on the ell row and the n stage on the n column, as flat columns: (n, ell,
        e0, level above the minimum, shift), n and ell int64.  The n and ell
        columns come from the grid built once per (n_max, l_max) and shared
        read-only by every table of that shape (see _grid, which also holds the
        shape's fit basis); the other three are new arrays.
        Flags levels as ``level`` does, but warns once per table, at the caller of
        closed_form_table: the warning's ``count`` is the number flagged and its
        ``qn`` and ``ratio`` are the first level of largest |shift| / |e0|, the only
        one that gets a QuantumNumbers.  Every flagged level is in the e0 and shift
        columns.  A value beyond float range is inf or nan, which callers that print
        refuse.
        """
        import numpy as np

        _require_counts(n_max=n_max, l_max=l_max)
        n_col, ell_col, n, ell, _ = _grid(int(n_max), int(l_max))
        with np.errstate(over="ignore", invalid="ignore"):
            e0, e_min, slope = self.at(self.row(m, ell, d.beta != 0.0), n)
            de = np.zeros_like(e0) if slope is None else d.beta * slope
        e0, e_min, de = e0.ravel(), e_min.ravel(), de.ravel()
        if d.beta == 0.0:  # |0| > ratio |e0| holds for no e0, nan and inf included
            return n_col, ell_col, e0, e_min, de
        k = np.flatnonzero(np.abs(de) > FIRST_ORDER_WARN_RATIO * np.abs(e0))
        if k.size:
            with np.errstate(divide="ignore", over="ignore"):  # inf, as for one level
                ratio = np.abs(de[k]) / np.abs(e0[k])
            w = k[ratio.argmax()]  # the first maximum, as max() over levels takes it
            _warn_first_order(m, QuantumNumbers(int(n_col[w]), int(ell_col[w])), float(de[w]),
                              float(e0[w]), stacklevel=4, count=k.size)
        return n_col, ell_col, e0, e_min, de

    def expansion(self, m: Molecule, d: Deformation, qn: QuantumNumbers) -> float:
        """Large-gamma series of the deformed level, truncated at 1/gamma^3, on
        the level's own energy scale (the band constants' scale less well_offset)."""
        return master_energy(self.constants(m, d), qn) - self.well_offset(m)
