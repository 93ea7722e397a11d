"""Closed-form spectra for the g1/r^2 - g2/r molecular potential.

Provides the exact bound-state energies, the first-order minimal-length
shift, the large-gamma series of both, and the band-spectrum constants the
series implies.  Everything is analytic; the numerical cross-checks live in
:mod:`gupmol.oracle`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FIRST_ORDER_WARN_RATIO,  # noqa: F401  (one of this module's public names)
    Deformation,
    DomainError,
    EnergyLevel,
    Model,
    Molecule,
    QuantumNumbers,
    SpectroscopicConstants,
    _require_positive,
    _series_gamma,
    gamma,
    lambda_kratzer,
)


@dataclass(frozen=True)
class KratzerPotential:
    """V(r) = g1/r^2 - g2/r with g1 = de*re^2 and g2 = 2*de*re.

    The minimum sits at re with value -de; the well dissociates to 0 from
    below as r -> infinity.
    """

    g1: float
    g2: float

    def __post_init__(self) -> None:
        _require_positive("g1", self.g1)
        _require_positive("g2", self.g2)

    @classmethod
    def from_molecule(cls, m: Molecule) -> "KratzerPotential":
        return cls(g1=m.de * m.re * m.re, g2=2.0 * m.de * m.re)

    @property
    def de(self) -> float:
        return self.g2 * self.g2 / (4.0 * self.g1)

    @property
    def re(self) -> float:
        return 2.0 * self.g1 / self.g2

    def value(self, r):
        """Potential at r (scalar or array); rejects r <= 0."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
            raise DomainError("radius must be finite and > 0")
        out = self.g1 / (r * r) - self.g2 / r
        return float(out) if out.ndim == 0 else out

    __call__ = value


def kratzer_energy_undeformed(m: Molecule, qn: QuantumNumbers) -> float:
    """Exact bound level -gamma^2*de/(lambda+n)^2; always in (-de, 0)."""
    g = gamma(m)
    lam = lambda_kratzer(g, qn.ell)
    return -g * g * m.de / (lam + qn.n) ** 2


def kratzer_correction_slope(m: Molecule, qn: QuantumNumbers) -> float:
    """First-order level shift per unit beta, d(Delta E)/d(beta).

    The closed form has poles at lambda = 1 and lambda = 3/2 coming from the
    inverse-power expectation values it is built from, so lambda <= 3/2
    (gamma^2 + ell(ell+1) <= 3/4 + ...) is rejected; physical molecules have
    gamma >> 1 and never get near the guard.
    """
    g = gamma(m)
    lam = lambda_kratzer(g, qn.ell)
    if lam <= 1.5:
        raise DomainError(
            f"correction formula has poles for lambda <= 3/2; got lambda = {lam!r} "
            f"(gamma = {g!r}, ell = {qn.ell})"
        )
    n = qn.n
    nn = lam + n
    bracket = (
        -0.75
        + (nn / (lam - 0.5)) * (1.0 + (g * g / 2.0) * (1.0 / (nn * nn) - 2.0 / (lam * (lam - 1.0))))
        + (g**4 / 4.0)
        * (1.0 / ((lam - 0.5) * (lam - 1.0) * (lam - 1.5) * nn))
        * (1.0 + 3.0 * n * (2.0 * lam + n) / (lam * (2.0 * lam + 1.0)))
    )
    return m.mu * m.de * m.de * (2.0 * g / nn) ** 4 * bracket


def kratzer_energy_deformed(m: Molecule, d: Deformation, qn: QuantumNumbers) -> EnergyLevel:
    """Level with its minimal-length shift; exact to first order in beta (see Model.level)."""
    return KRATZER.level(m, d, qn)


def kratzer_energy_expansion(m: Molecule, d: Deformation, qn: QuantumNumbers) -> float:
    """Large-gamma series of the deformed level, truncated at 1/gamma^3.

    It is the master expression of :func:`kratzer_spectroscopic_constants`
    less the well depth (see Model.expansion).  Undeformed part:

        de * [-1 + 2 nu/g + ((ell+1/2)^2 - 3 nu^2)/g^2
              + (4 nu^3 - 3 nu (ell+1/2)^2)/g^3],    nu = n + 1/2.

    Beta part:

        beta*mu*de^2 * [6 (nu^2 + 1/4)/g^2
                        + 2 nu (-1/4 + 4 (ell+1/2)^2 - 15 nu^2)/g^3].

    The beta coefficients were fixed by re-expanding the closed form to high
    precision (the -1/4 term belongs inside the 1/g^3 bracket); the remainder
    of both parts is O(1/g^4), which tests/test_acceptance.py measures as a
    log-log slope.  Note the undeformed 1/g^4 coefficient vanishes
    identically when n == ell.
    """
    return KRATZER.expansion(m, d, qn)


def kratzer_spectroscopic_constants(m: Molecule, d: Deformation) -> SpectroscopicConstants:
    """Band-spectrum constants implied by the 1/gamma series; the one home of
    its coefficients.

    y00 is referenced to the potential minimum (the well-depth offset -de is
    not part of it).  The rotational constant be = de/gamma^2 carries no beta
    term: the deformation leaves it untouched.
    """
    g = _series_gamma(m)
    bm = d.beta * m.mu * m.de * m.de
    return SpectroscopicConstants(
        y00=m.de / (4.0 * g * g) + 1.5 * bm / g**2,
        we=2.0 * m.de / g - 0.75 * m.de / g**3 + 1.5 * bm / g**3,
        wexe=3.0 * m.de / g**2 - 6.0 * bm / g**2,
        weye=4.0 * m.de / g**3 - 30.0 * bm / g**3,
        be=m.de / (g * g),
        alphae=3.0 * m.de / g**3 - 8.0 * bm / g**3,
    )


KRATZER = Model(
    name="kratzer",
    potential=KratzerPotential.from_molecule,
    undeformed=kratzer_energy_undeformed,
    slope=kratzer_correction_slope,
    constants=kratzer_spectroscopic_constants,
    well_offset=lambda m: m.de,  # the well bottom sits at -de
)
