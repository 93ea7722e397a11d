"""Shared model types and the internal unit system.

Internal units fix hbar = 1 with energies in eV and lengths in Angstrom.
The derived mass unit is then eV^-1 A^-2 (1 amu is about 239.225 internal)
and the deformation parameter beta, an inverse squared momentum, carries A^2.
Every public function in the package operates on internal-unit quantities;
conversions live in :class:`UnitSystem` and nowhere else.

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
import warnings
from dataclasses import asdict, astuple, dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    import numpy as np

HBAR = 1.0

# CODATA 2022 factors, as scipy 1.17's scipy.constants gives them (pinned here
# so that importing the package loads no scipy): hbar*c in MeV fm, eV in
# inverse metres, and the atomic mass constant in MeV.  From them: hbar*c in
# eV*Angstrom, eV <-> cm^-1, and amu -> internal mass
# = (amu c^2 in eV) / (hbar c in eV*A)^2.
_HBARC_MEV_FM = 197.3269804593025
_EV_INVERSE_METRE = 806554.3937349211
_AMU_MEV = 931.49410372

HBARC_EV_ANGSTROM = _HBARC_MEV_FM * 10.0
EV_TO_CM1 = _EV_INVERSE_METRE / 100.0
AMU_TO_INTERNAL = _AMU_MEV * 1.0e6 / HBARC_EV_ANGSTROM**2

ENERGY_UNITS = ("internal", "eV", "cm-1")

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


@dataclass(frozen=True)
class UnitSystem:
    """Conversions between spectroscopic units and the internal system.

    Lengths are Angstrom both externally and internally, so only energies
    (eV, cm-1) and masses (amu) carry conversion factors.
    """

    ev_to_cm1: float = EV_TO_CM1
    amu_to_internal: float = AMU_TO_INTERNAL

    def energy_to_internal(self, value: float, unit: str) -> float:
        if unit in ("internal", "eV"):
            return value
        if unit == "cm-1":
            return value / self.ev_to_cm1
        raise DomainError(f"unknown energy unit {unit!r}; expected one of {ENERGY_UNITS}")

    def energy_from_internal(self, value: float, unit: str) -> float:
        if unit in ("internal", "eV"):
            return value
        if unit == "cm-1":
            return value * self.ev_to_cm1
        raise DomainError(f"unknown energy unit {unit!r}; expected one of {ENERGY_UNITS}")

    def mass_to_internal(self, mu_amu: float) -> float:
        return mu_amu * self.amu_to_internal

    def mass_from_internal(self, mu: float) -> float:
        return mu / self.amu_to_internal


UNITS = UnitSystem()


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


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
        return cls(name=name, de=de_ev, re=re_angstrom, mu=UNITS.mass_to_internal(mu_amu))


def synthetic_molecule(gamma_value: float, de: float = 1.0, re: float = 1.0,
                       name: str | None = None) -> Molecule:
    """Molecule whose well-depth parameter equals ``gamma_value`` exactly.

    Fixes de and re and solves for the reduced mass; handy for sweeps where
    gamma is the controlled variable.
    """
    for label, value in (("gamma_value", gamma_value), ("de", de), ("re", re)):
        _require_positive(label, value)
    try:
        mu = (gamma_value * HBAR / re) ** 2 / (2.0 * de)
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

    @property
    def minimal_length(self) -> float:
        return HBAR * math.sqrt(5.0 * self.beta)

    @classmethod
    def from_minimal_length(cls, x: float) -> "Deformation":
        if not (math.isfinite(x) and x >= 0.0):
            raise DomainError(f"minimal length must be finite and >= 0, got {x!r}")
        return cls(beta=x * x / (5.0 * HBAR * HBAR))


NO_DEFORMATION = Deformation(0.0)


def minimal_length(d: Deformation) -> float:
    """Smallest resolvable length hbar*sqrt(5 beta), in Angstrom."""
    return d.minimal_length


def beta_from_minimal_length(x: float) -> Deformation:
    """Inverse of :func:`minimal_length`; rejects negative lengths."""
    return Deformation.from_minimal_length(x)


@dataclass(frozen=True)
class QuantumNumbers:
    """Vibrational (n) and rotational (ell) quantum numbers, both >= 0."""

    n: int
    ell: int

    def __post_init__(self) -> None:
        if type(self.n) is int and type(self.ell) is int and self.n >= 0 and self.ell >= 0:
            return  # exact ints need neither a check nor a conversion
        for label, value in (("n", self.n), ("ell", self.ell)):
            if isinstance(value, bool) or int(value) != value or value < 0:
                raise DomainError(f"{label} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, label, int(value))


def gamma(m: Molecule) -> float:
    """Dimensionless well-depth parameter re*sqrt(2 mu de)/hbar.

    The same expression serves both potentials; it is large (>> 1) for real
    molecules and is the expansion variable of the band-spectrum series.
    """
    value = m.re * math.sqrt(2.0 * m.mu * m.de) / HBAR
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


def _pole_at(bad, lam, ell) -> tuple[float, int] | None:
    """(lambda, ell) at the first ell where ``bad`` holds; None if it holds
    nowhere.  ``lam`` a Python number (np.float64 included) is one level,
    whose ``bad`` may be a bool or an np.bool_; otherwise ``bad`` and ``lam``
    are arrays over ell.  The kernels' pole masks depend on gamma and ell,
    never on n, so a table's first offending level is n = 0 at this ell."""
    if isinstance(lam, (int, float)):
        return (lam, int(ell)) if bad else None
    if not bad.any():
        return None
    k = int(bad.argmax())
    return float(lam[k]), int(ell[k])


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


def _warn_first_order(m: Molecule, qn: QuantumNumbers, shift: float, level: float,
                      count: int = 1) -> None:
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
        # through Model.level or Model.table, the caller of kratzer_energy_deformed,
        # closed_form_table and the like
        stacklevel=4,
    )


@dataclass(frozen=True)
class Model:
    """One potential's closed forms, as every routine that takes a kind reads them.

    V(r) from a molecule; two array kernels, each the one home of its
    formulas; the band constants; and the offset that moves a level to the
    well minimum.  ``energies(m, n, ell)`` gives the undeformed level on the
    potential's own scale (from dissociation for the 1/r^2 - 1/r well) and the
    level above the well minimum; ``slopes(m, n, ell)`` gives the shift per
    unit beta.  Both take arrays of n and ell that broadcast (a column of n
    against a row of ell for a table) and are written so that no large terms
    cancel.  The scalar methods are float views of the same kernels run on
    Python floats, so a level equals its table entry bit for bit.  The
    large-gamma series of a level is the master expression of the band
    constants; it has no home of its own.
    """

    name: str
    potential: Callable[[Molecule], Any]
    energies: Callable[[Molecule, Any, Any], tuple[np.ndarray, np.ndarray]]
    slopes: Callable[[Molecule, Any, Any], np.ndarray]
    constants: Callable[[Molecule, Deformation], SpectroscopicConstants]
    well_offset: Callable[[Molecule], float]

    def undeformed(self, m: Molecule, qn: QuantumNumbers) -> float:
        """Undeformed level on the potential's own energy scale."""
        return float(self.energies(m, float(qn.n), float(qn.ell))[0])

    def slope(self, m: Molecule, qn: QuantumNumbers) -> float:
        """First-order shift per unit beta; DomainError at the formula's pole."""
        return float(self.slopes(m, float(qn.n), float(qn.ell)))

    def shift(self, m: Molecule, d: Deformation, qn: QuantumNumbers) -> float:
        """First-order shift beta*slope; at beta = 0 the slope, whose poles a
        shallow well can reach, is not evaluated."""
        return 0.0 if d.beta == 0.0 else d.beta * self.slope(m, qn)

    def level(self, m: Molecule, d: Deformation, qn: QuantumNumbers) -> EnergyLevel:
        """Level with its minimal-length shift (see shift); exact to first order
        in beta.  Warns (PerturbationWarning) when |shift| exceeds
        FIRST_ORDER_WARN_RATIO of |e0|, where first order stops being a
        controlled approximation.
        """
        e0 = self.undeformed(m, qn)
        de = self.shift(m, d, qn)
        if abs(de) > FIRST_ORDER_WARN_RATIO * abs(e0):
            _warn_first_order(m, qn, de, e0)
        return EnergyLevel(qn=qn, e0=e0, de=de)

    def table(self, m: Molecule, d: Deformation, n_max: int, l_max: int):
        """Every level n <= n_max, ell <= l_max in n-major order, one kernel call each,
        as flat columns: (n, ell, e0, level above the minimum, shift), n and ell
        integers.  Flags levels as ``level`` does, but warns once per table: the
        warning's ``count`` is the number flagged and its ``qn`` and ``ratio`` are
        the first level of largest |shift| / |e0|, the only one that gets a
        QuantumNumbers.  Every flagged level is in the e0 and shift columns.  A
        value beyond float range is inf or nan, which callers that print refuse.
        """
        import numpy as np

        for label, value in (("n_max", n_max), ("l_max", l_max)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise DomainError(f"{label} must be a nonnegative integer, got {value!r}")
        n_col, ell_col = np.divmod(np.arange((n_max + 1) * (l_max + 1)), l_max + 1)
        n = np.arange(n_max + 1.0)[:, None]
        ell = np.arange(l_max + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            e0, e_min = self.energies(m, n, ell)
            de = np.zeros_like(e0) if d.beta == 0.0 else d.beta * self.slopes(m, n, ell)
        e0, e_min, de = e0.ravel(), e_min.ravel(), de.ravel()
        k = np.flatnonzero(np.abs(de) > FIRST_ORDER_WARN_RATIO * np.abs(e0))
        if k.size:
            with np.errstate(divide="ignore", over="ignore"):  # inf, as for one level
                ratio = np.abs(de[k]) / np.abs(e0[k])
            w = k[ratio.argmax()]  # the first maximum, as max() over levels takes it
            _warn_first_order(m, QuantumNumbers(int(n_col[w]), int(ell_col[w])), float(de[w]),
                              float(e0[w]), count=k.size)
        return n_col, ell_col, e0, e_min, de

    def expansion(self, m: Molecule, d: Deformation, qn: QuantumNumbers) -> float:
        """Large-gamma series of the deformed level, truncated at 1/gamma^3, on
        the level's own energy scale (the band constants' scale less well_offset)."""
        return master_energy(self.constants(m, d), qn) - self.well_offset(m)
