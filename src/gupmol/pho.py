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
from typing import TYPE_CHECKING

from .core import (
    Deformation,
    EnergyLevel,
    Model,
    Molecule,
    QuantumNumbers,
    SpectroscopicConstants,
    _radial,
    _reject_pole,
    _require_positive,
    _series_gamma,
    gamma,
    lambda_pho,
)

if TYPE_CHECKING:
    import numpy as np


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

    @_radial
    def value(self, r):
        """Potential at r (scalar or array); rejects r <= 0."""
        x = r / self.re - self.re / r
        return self.de * x * x

    __call__ = value


def _slope_polynomial(lam, delta, n):
    """Q(lambda, delta, n), the paper's slope bracket over de^2 times
    gamma^2 lambda (lambda^2 - 1) once gamma = lambda - delta is substituted:
    its O(1) terms, which cancel to O(1/gamma^2), cancel here symbolically.
    Horner form in lambda, plain arithmetic on floats and arrays alike; the
    coefficients are whole numbers, which sympy's nsimplify recovers exactly.
    """
    s = 2.0 * n + 1.0
    d2 = delta * delta
    return (
        ((6.0 * n * n + 6.0 * n + 3.0 + 4.0 * delta * s + 4.0 * d2) * lam
         + s - 4.0 * delta + d2 * (2.0 * s - 4.0 * delta)) * lam
        - 6.0 * n * n - 6.0 * n - 2.0 - 8.0 * delta * s + d2 * (2.0 - 4.0 * delta * s + d2)
    ) * lam + d2 * (d2 * s + 4.0 * s)


def _energies(m: Molecule, n, ell) -> tuple[np.ndarray, np.ndarray]:
    """Exact level 2 de (2n + 1 + delta)/gamma, measured from the minimum
    (the well's own zero), twice: as the level and as the level above the
    minimum.  delta = lambda - gamma = (ell+1/2)^2/(lambda + gamma) > 0 makes
    it strictly positive, and consecutive n are spaced by exactly
    4*de/gamma: the spectrum is harmonic in n with no truncation.
    """
    g = gamma(m)
    a = ell + 0.5
    delta = a * a / (lambda_pho(g, ell) + g)
    e0 = 2.0 * m.de * (2.0 * n + 1.0 + delta) / g
    return e0, e0


def _slopes(m: Molecule, n, ell) -> np.ndarray:
    """First-order level shift per unit beta,

        4 mu de^2 Q / (gamma^2 lambda (lambda^2 - 1))

    with Q from _slope_polynomial.  The inverse-quartic expectation value
    behind the paper's last term brings the lambda*(lambda^2 - 1)
    denominator, so lambda <= 1 is rejected; gamma > 1 already guarantees
    lambda > 1.
    """
    g = gamma(m)
    lam = lambda_pho(g, ell)
    _reject_pole((lam <= 1.0) | (g * g == 0.0), lam, ell, g,
                 "has a pole for gamma^2 = 0 and for lambda <= 1")
    a = ell + 0.5
    delta = a * a / (lam + g)
    return (4.0 * m.mu * m.de * m.de * _slope_polynomial(lam, delta, n)
            / (g * g * lam * (lam - 1.0) * (lam + 1.0)))


def pho_energy_undeformed(m: Molecule, qn: QuantumNumbers) -> float:
    """Exact level 2*de*(2n + 1 + lambda - gamma)/gamma, measured from the minimum."""
    return PHO.undeformed(m, qn)


def pho_correction_slope(m: Molecule, qn: QuantumNumbers) -> float:
    """First-order level shift per unit beta (see _slopes); DomainError for
    lambda <= 1, where the closed form has a pole."""
    return PHO.slope(m, qn)


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
        # 0.0 - x, not -x: +0.0 at beta = 0, the same bits as -x for beta > 0
        wexe=0.0 - 24.0 * bm / g**2,
        weye=0.0,
        be=m.de / (g * g),
        alphae=0.0 - 16.0 * bm / g**3,
    )


PHO = Model(
    name="pho",
    potential=PhoPotential.from_molecule,
    energies=_energies,
    slopes=_slopes,
    constants=pho_spectroscopic_constants,
    well_offset=lambda m: 0.0,  # the well bottom sits at 0
)
