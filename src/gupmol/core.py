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
from dataclasses import asdict, dataclass
from typing import Any, Callable

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
    """solve_radial found a state whose node count does not match its index."""


class DataFormatError(GupmolError, ValueError):
    """Malformed molecule or experimental-level data file."""


class FitError(GupmolError, ValueError):
    """Least-squares problem is unsolvable as posed."""


class PerturbationWarning(UserWarning):
    """First-order correction is not small against the level it corrects.

    The level functions set ``qn``, the level's quantum numbers, and ``ratio``,
    |shift| / |undeformed level|, so that a caller can summarize many warnings.
    """

    def __init__(self, message: str, qn: QuantumNumbers | None = None,
                 ratio: float = math.nan) -> None:
        super().__init__(message)
        self.qn = qn
        self.ratio = ratio


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
    def from_spectroscopic(
        cls,
        name: str,
        de_ev: float,
        re_angstrom: float,
        mu_amu: float,
        units: UnitSystem = UNITS,
    ) -> "Molecule":
        return cls(name=name, de=de_ev, re=re_angstrom, mu=units.mass_to_internal(mu_amu))


def synthetic_molecule(gamma_value: float, de: float = 1.0, re: float = 1.0,
                       name: str | None = None) -> Molecule:
    """Molecule whose well-depth parameter equals ``gamma_value`` exactly.

    Fixes de and re and solves for the reduced mass; handy for sweeps where
    gamma is the controlled variable.
    """
    _require_positive("gamma_value", gamma_value)
    mu = (gamma_value * HBAR / re) ** 2 / (2.0 * de)
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
    """gamma for the 1/gamma band-spectrum series, whose 1/gamma^3 terms need gamma^3 > 0."""
    g = gamma(m)
    if g**3 == 0.0:
        raise DomainError(f"gamma = {g!r} is too small for the 1/gamma series of {m.name!r}")
    return g


def lambda_kratzer(gamma_value: float, ell: int) -> float:
    """Effective radial index 1/2 + sqrt((ell+1/2)^2 + gamma^2); always > 1."""
    return 0.5 + math.sqrt((ell + 0.5) ** 2 + gamma_value**2)


def lambda_pho(gamma_value: float, ell: int) -> float:
    """Effective radial index sqrt(gamma^2 + (ell+1/2)^2); no 1/2 shift here."""
    return math.sqrt(gamma_value**2 + (ell + 0.5) ** 2)


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


@dataclass(frozen=True)
class Model:
    """One potential's closed forms, as every routine that takes a kind reads them.

    V(r) from a molecule, the undeformed level, its shift per unit beta, the
    band constants, and the offset that moves a level to the well minimum.
    """

    name: str
    potential: Callable[[Molecule], Any]
    undeformed: Callable[[Molecule, QuantumNumbers], float]
    slope: Callable[[Molecule, QuantumNumbers], float]
    constants: Callable[[Molecule, Deformation], SpectroscopicConstants]
    well_offset: Callable[[Molecule], float]

    def level(self, m: Molecule, d: Deformation, qn: QuantumNumbers) -> EnergyLevel:
        """Level with its minimal-length shift; exact to first order in beta.

        At beta = 0 the slope, whose poles a shallow well can reach, is not
        evaluated.  Warns (PerturbationWarning) when |shift| exceeds
        FIRST_ORDER_WARN_RATIO of |e0|, where first order stops being a
        controlled approximation.
        """
        e0 = self.undeformed(m, qn)
        de = 0.0 if d.beta == 0.0 else d.beta * self.slope(m, qn)
        if abs(de) > FIRST_ORDER_WARN_RATIO * abs(e0):
            warnings.warn(
                PerturbationWarning(
                    f"first-order shift |{de:.3e}| exceeds {FIRST_ORDER_WARN_RATIO:g} of |e0| = "
                    f"{abs(e0):.3e} for {m.name!r} (n={qn.n}, ell={qn.ell})",
                    qn=qn,
                    ratio=abs(de) / abs(e0) if e0 else math.inf,
                ),
                PerturbationWarning,
                stacklevel=3,  # the call site of kratzer_energy_deformed and the like
            )
        return EnergyLevel(qn=qn, e0=e0, de=de)
