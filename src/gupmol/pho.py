"""Closed-form spectra for the pseudoharmonic potential de*(r/re - re/r)^2.

Exact levels, first-order minimal-length shift, large-gamma series, and the
derived band-spectrum constants; the model record ``PHO`` holds the ones the
package dispatches on, as ``KRATZER`` does in :mod:`gupmol.kratzer`.  The
undeformed spectrum is exactly linear in n, so the anharmonicity and
rotation-vibration coupling constants vanish at beta = 0 and are generated
purely by the deformation, with a negative sign.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
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
    lambda_pho,
)


@dataclass(frozen=True)
class PhoPotential:
    """V(r) = de*(r/re - re/r)^2; zero at re, nonnegative everywhere."""

    de: float
    re: float

    def __post_init__(self) -> None:
        _require_positive("de", self.de)
        _require_positive("re", self.re)

    @classmethod
    def from_molecule(cls, m: Molecule) -> "PhoPotential":
        return cls(de=m.de, re=m.re)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
            raise DomainError("radius must be finite and > 0")
        x = r / self.re - self.re / r
        out = self.de * x * x
        return float(out) if out.ndim == 0 else out

    __call__ = value


def pho_energy_undeformed(m: Molecule, qn: QuantumNumbers) -> float:
    """Exact level -2*de*(1 - (2n + 1 + lambda)/gamma), measured from the minimum.

    lambda > gamma makes this strictly positive, and consecutive n are spaced
    by exactly 4*de/gamma: the spectrum is harmonic in n with no truncation.
    """
    g = gamma(m)
    lam = lambda_pho(g, qn.ell)
    return -2.0 * m.de * (1.0 - (2.0 * qn.n + 1.0 + lam) / g)


def pho_correction_slope(m: Molecule, qn: QuantumNumbers) -> float:
    """First-order level shift per unit beta.

    The inverse-quartic expectation value behind the last term brings a
    lambda*(lambda^2 - 1) denominator, so lambda <= 1 is rejected; gamma > 1
    already guarantees lambda > 1.
    """
    g = gamma(m)
    lam = lambda_pho(g, qn.ell)
    if lam <= 1.0 or g * g == 0.0:
        raise DomainError(
            f"correction formula has a pole for lambda <= 1 or gamma^2 = 0; got lambda = {lam!r} "
            f"(gamma = {g!r}, ell = {qn.ell})"
        )
    n = qn.n
    e0 = pho_energy_undeformed(m, qn)
    de = m.de
    s = lam + 2.0 * n + 1.0
    return 4.0 * m.mu * (
        e0 * e0
        + 4.0 * de * e0
        + 6.0 * de * de
        - (4.0 * de * de + 2.0 * de * e0) * s / g
        + de * de * (lam * lam + (6.0 * n + 3.0) * lam + 6.0 * n * (n + 1.0) + 2.0) / (g * g)
        - g * 2.0 * de * (2.0 * de + e0) / lam
        + de * de * g * g * s / (lam * (lam * lam - 1.0))
    )


def pho_energy_deformed(m: Molecule, d: Deformation, qn: QuantumNumbers) -> EnergyLevel:
    """Level with its minimal-length shift, exact to first order in beta (see Model.level)."""
    return PHO.level(m, d, qn)


def pho_energy_expansion(m: Molecule, d: Deformation, qn: QuantumNumbers) -> float:
    """Large-gamma series of the deformed level, truncated at 1/gamma^3: the
    master expression of :func:`pho_spectroscopic_constants` (see Model.expansion).

        de/(4 g^2) + (4 de/g) nu + de*ell(ell+1)/g^2
        + beta*mu*de^2 * [6/g^2 + 24 nu^2/g^2 + 12 nu/g^3
                          + 16 nu ell(ell+1)/g^3],    nu = n + 1/2.

    The 12 nu/g^3 coefficient (equivalently a we correction of
    12*beta*mu*de^2/g^3) was fixed by re-expanding the closed form; it is the
    only dimensionally consistent possibility, the remainder being O(1/g^4).
    There is no nu^3 term: the deformed spectrum is exactly quadratic in n.
    """
    return PHO.expansion(m, d, qn)


def pho_spectroscopic_constants(m: Molecule, d: Deformation) -> SpectroscopicConstants:
    """Band-spectrum constants implied by the series; the one home of its coefficients.

    At beta = 0 the anharmonicity wexe, the coupling alphae and weye are all
    exactly zero; for beta > 0, wexe and alphae turn on with a negative sign,
    opposite to the tabulated values for real molecules.  be = de/gamma^2 is
    untouched by the deformation and equals the 1/r^2 - 1/r result for the
    same molecule.
    """
    g = _series_gamma(m)
    bm = d.beta * m.mu * m.de * m.de
    return SpectroscopicConstants(
        y00=m.de / (4.0 * g * g) + 6.0 * bm / g**2,
        we=4.0 * m.de / g + 12.0 * bm / g**3,
        wexe=-24.0 * bm / g**2,
        weye=0.0,
        be=m.de / (g * g),
        alphae=-16.0 * bm / g**3,
    )


PHO = Model(
    name="pho",
    potential=PhoPotential.from_molecule,
    undeformed=pho_energy_undeformed,
    slope=pho_correction_slope,
    constants=pho_spectroscopic_constants,
    well_offset=lambda m: 0.0,  # the well bottom sits at 0
)
