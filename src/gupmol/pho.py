"""Closed-form spectra for the pseudoharmonic potential de*(r/re - re/r)^2.

The potential, exact levels, first-order minimal-length shift, and the
band-spectrum constants of the large-gamma series, as the fields of the
model record ``PHO``, the twin of ``KRATZER`` in :mod:`gupmol.kratzer`; the
public per-level names (``pho_energy_deformed`` ...) are its methods.  The
undeformed spectrum is exactly linear in n, so the anharmonicity and
rotation-vibration coupling constants vanish at beta = 0 and are generated
purely by the deformation, with a negative sign.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .core import (
    Deformation,
    Model,
    Molecule,
    SpectroscopicConstants,
    _reject_pole,
    _series_gamma,
    gamma,
    lambda_pho,
)

if TYPE_CHECKING:
    import numpy as np


def _potential(m: Molecule, r):
    """V(r) = de*(r/re - re/r)^2 on a number or an array of radii; zero at re,
    nonnegative everywhere."""
    x = r / m.re - m.re / r
    return m.de * x * x


def _slope_polynomial(lam, a2, n):
    """Q(lambda, a^2, n), the paper's slope bracket over de^2 times
    gamma^2 lambda (lambda^2 - 1) once gamma^2 = lambda^2 - a^2 is
    substituted: its O(1) terms, which cancel to O(1/gamma^2), cancel here
    symbolically.  Grouped by powers of n, (c2 n + c1) n + c0, with

        c2 = 6 lambda (lambda^2 - 1),
        c1 = 2 ((a^2 + 2 lambda^2 - 4) a^2 + (3 lambda^2 + lambda - 3) lambda),
        c0 = (lambda + 1) ((a^2 + 2 lambda - 4) a^2 + (3 lambda - 2) lambda).

    On a table the c_k are computed once on the ell row, and only the two
    multiply-adds in n run on the full grid.  Plain arithmetic on floats and
    arrays alike; the coefficients are whole numbers, which sympy's
    nsimplify recovers exactly.
    """
    x = 2.0 * lam
    c2 = 6.0 * lam * (lam - 1.0) * (lam + 1.0)
    c1 = 2.0 * ((a2 + x * lam - 4.0) * a2 + ((3.0 * lam + 1.0) * lam - 3.0) * lam)
    c0 = ((a2 + x - 4.0) * a2 + (3.0 * lam - 2.0) * lam) * (lam + 1.0)
    return (c2 * n + c1) * n + c0


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

    with Q from _slope_polynomial.  The grid sees Q divided by the ell row
    lambda (lambda^2 - 1), then times the number 4 mu de^2/gamma^2, about
    2 de/re^2.  Q overflows before the row does (gamma ~ 3e102 at n = 0), so
    a slope is accurate, inf or nan, never a denominator's overflow to 0.  The
    inverse-quartic expectation value behind the paper's last term brings the
    lambda*(lambda^2 - 1) denominator, so lambda <= 1 is rejected; gamma > 1
    already guarantees lambda > 1.
    """
    g = gamma(m)
    lam = lambda_pho(g, ell)
    _reject_pole((lam <= 1.0) | (g * g == 0.0), lam, ell, g,
                 "has a pole for gamma^2 = 0 and for lambda <= 1")
    a = ell + 0.5
    return (_slope_polynomial(lam, a * a, n) / (lam * (lam - 1.0) * (lam + 1.0))
            * (4.0 * m.mu * m.de * m.de / (g * g)))


def pho_spectroscopic_constants(m: Molecule, d: Deformation) -> SpectroscopicConstants:
    """Band-spectrum constants of the large-gamma series of the deformed level,
    truncated at 1/gamma^3; the one home of its coefficients.

    The series is the master expression of these constants (see
    Model.expansion):

        de/(4 g^2) + (4 de/g) nu + de*ell(ell+1)/g^2
        + beta*mu*de^2 * [6/g^2 + 24 nu^2/g^2 + 12 nu/g^3
                          + 16 nu ell(ell+1)/g^3],    nu = n + 1/2.

    The 12 nu/g^3 coefficient (equivalently a we correction of
    12*beta*mu*de^2/g^3) was fixed by re-expanding the closed form; it is the
    only dimensionally consistent possibility, the remainder being O(1/g^4).
    There is no nu^3 term: the deformed spectrum is exactly quadratic in n.

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
    potential=_potential,
    energies=_energies,
    slopes=_slopes,
    constants=pho_spectroscopic_constants,
    well_offset=lambda m: 0.0,  # the well bottom sits at 0
)

pho_energy_undeformed = PHO.undeformed
pho_correction_slope = PHO.slope
pho_energy_deformed = PHO.level
