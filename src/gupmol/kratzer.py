"""Closed-form spectra for the g1/r^2 - g2/r molecular potential.

Provides the potential itself, the exact bound-state energies, the
first-order minimal-length shift, and the band-spectrum constants of the
large-gamma series, as the fields of the model record ``KRATZER``; the
public per-level names (``kratzer_energy_deformed`` ...) are its methods.
Everything is analytic; the numerical cross-checks, which solve the radial
equation on this potential, live in :mod:`gupmol.oracle`.
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
    lambda_kratzer,
    lambda_pho,
)

if TYPE_CHECKING:
    import numpy as np


def _potential(m: Molecule, r):
    """V(r) = g1/r^2 - g2/r with g1 = de*re^2 and g2 = 2*de*re, on a number or
    an array of radii.  The minimum sits at re with value -de; the well
    dissociates to 0 from below as r -> infinity.  Evaluated left to right,
    the expression forms g1 and g2 first, so its values are g1/(r*r) - g2/r
    bit for bit: the solver's digits, and so verify's output, depend on it.
    """
    return m.de * m.re * m.re / (r * r) - 2.0 * m.de * m.re / r


def _slope_polynomial(lam, n, a2):
    """P(lambda, n, a^2), the slope's bracket times
    16 lambda (lambda-1) N (2lambda-3)(2lambda-1)(2lambda+1) once gamma^2 =
    (lambda-1/2)^2 - a^2 is substituted: the paper's O(1) terms, which cancel
    to O(1/gamma^2), cancel here symbolically.  Grouped by powers of n,
    (c2 n + c1) n + c0, where with u = lambda (lambda-1) the c_k share two
    polynomials in u and a^2:

        y = (48 a^2 + 32 u - 120) a^2 + 28 u + 27,   z = (48 u - 36) u,
        c2 = y + z,   c1 = 2 lambda y + z,
        c0 = lambda y + ((32 a^2 - 64) a^2 + 24 u + 14) u.

    On a table the c_k are computed once on the ell row, and only the two
    multiply-adds in n run on the full grid.  Plain arithmetic on floats and
    arrays alike; the coefficients are whole numbers, which sympy's
    nsimplify recovers exactly.
    """
    u = lam * (lam - 1.0)
    y = (48.0 * a2 + 32.0 * u - 120.0) * a2 + 28.0 * u + 27.0
    z = (48.0 * u - 36.0) * u
    v = lam * y
    c2 = y + z
    c1 = 2.0 * v + z
    c0 = v + ((32.0 * a2 - 64.0) * a2 + 24.0 * u + 14.0) * u
    return (c2 * n + c1) * n + c0


def _energies(m: Molecule, n, ell) -> tuple[np.ndarray, np.ndarray]:
    """Exact bound level -gamma^2 de/N^2 (N = lambda + n), always in (-de, 0),
    and the same level above the well minimum,

        de (n + 1/2 + a^2/(R + gamma)) (N + gamma)/N^2,   a = ell + 1/2,
        R = lambda - 1/2 = sqrt(a^2 + gamma^2),

    the difference of squares de (N - gamma)(N + gamma)/N^2 with
    N - gamma = n + 1/2 + R - gamma written without cancellation.
    """
    g = gamma(m)
    r = lambda_pho(g, ell)
    a = ell + 0.5
    nn = (0.5 + r) + n
    e0 = -g * g * m.de / (nn * nn)
    e_min = m.de * (n + 0.5 + a * a / (r + g)) * (nn + g) / (nn * nn)
    return e0, e_min


def _slopes(m: Molecule, n, ell) -> np.ndarray:
    """First-order level shift per unit beta, d(Delta E)/d(beta):

        mu de^2 (2 gamma/N)^4 P / (16 lambda (lambda-1) N (2lambda-3)(2lambda-1)(2lambda+1))

    with P from _slope_polynomial; the 16s cancel.  On a table the
    lambda-only factors are two ell rows: (2lambda-3)(2lambda-1)(2lambda+1),
    which divides P, and mu de^2/(lambda (lambda-1)), about de/(2 re^2),
    which multiplies P/N (gamma/N)^4 last.  Kept apart, no factor leaves
    float range before P does (gamma ~ 4e76 at n = 0), so a slope is
    accurate, inf or nan, never a denominator's overflow to 0.
    The closed form has poles at lambda = 1 and lambda = 3/2 coming from the
    inverse-power expectation values it is built from, so lambda <= 3/2
    (gamma^2 + ell(ell+1) <= 3/4 + ...) is rejected; physical molecules have
    gamma >> 1 and never get near the guard.
    """
    g = gamma(m)
    lam = lambda_kratzer(g, ell)
    _reject_pole(lam <= 1.5, lam, ell, g, "has poles for lambda <= 3/2")
    a = ell + 0.5
    x = 2.0 * lam
    nn = lam + n
    t = g / nn
    t2 = t * t
    return (_slope_polynomial(lam, n, a * a) / ((x - 3.0) * (x - 1.0) * (x + 1.0)) / nn
            * (t2 * t2) * (m.mu * m.de * m.de / (lam * (lam - 1.0))))


def kratzer_spectroscopic_constants(m: Molecule, d: Deformation) -> SpectroscopicConstants:
    """Band-spectrum constants of the large-gamma series of the deformed level,
    truncated at 1/gamma^3; the one home of its coefficients.

    The series is the master expression of these constants less the well
    depth (see Model.expansion).  Undeformed part:

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
    potential=_potential,
    energies=_energies,
    slopes=_slopes,
    constants=kratzer_spectroscopic_constants,
    well_offset=lambda m: m.de,  # the well bottom sits at -de
)

kratzer_energy_undeformed = KRATZER.undeformed
kratzer_correction_slope = KRATZER.slope
kratzer_energy_deformed = KRATZER.level
