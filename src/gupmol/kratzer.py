"""Closed-form spectra for the g1/r^2 - g2/r molecular potential.

Provides the exact bound-state energies, the first-order minimal-length
shift, the large-gamma series of both, and the band-spectrum constants the
series implies.  Everything is analytic; the numerical cross-checks live in
:mod:`gupmol.oracle`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    FIRST_ORDER_WARN_RATIO,  # noqa: F401  (one of this module's public names)
    Deformation,
    DomainError,
    EnergyLevel,
    Model,
    Molecule,
    QuantumNumbers,
    SpectroscopicConstants,
    _pole_at,
    _require_positive,
    _series_gamma,
    gamma,
    lambda_kratzer,
    lambda_pho,
)

if TYPE_CHECKING:
    import numpy as np


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
        import numpy as np

        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
            raise DomainError("radius must be finite and > 0")
        out = self.g1 / (r * r) - self.g2 / r
        return float(out) if out.ndim == 0 else out

    __call__ = value


def _slope_polynomial(lam, n, a2):
    """P(lambda, n, a^2), the slope's bracket times
    16 lambda (lambda-1) N (2lambda-3)(2lambda-1)(2lambda+1) once gamma^2 =
    (lambda-1/2)^2 - a^2 is substituted: the paper's O(1) terms, which cancel
    to O(1/gamma^2), cancel here symbolically.  Horner form in lambda,
    plain arithmetic on floats and arrays alike; the coefficients are whole
    numbers, which sympy's nsimplify recovers exactly.
    """
    nn = n * n
    a4 = a2 * a2
    return (
        (
            (
                (48.0 * nn + 48.0 * n + 24.0) * lam
                + 32.0 * a2 * (2.0 * n + 1.0) - 96.0 * nn - 40.0 * n - 20.0
            ) * lam
            + 32.0 * a4 + a2 * (32.0 * nn - 64.0 * n - 96.0) + 40.0 * nn - 44.0 * n + 10.0
        ) * lam
        + a4 * (96.0 * n + 16.0) - a2 * (32.0 * nn + 240.0 * n + 56.0)
        + 8.0 * nn + 90.0 * n + 13.0
    ) * lam + nn * (48.0 * a4 - 120.0 * a2 + 27.0)


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

    with P from _slope_polynomial.  The closed form has poles at lambda = 1
    and lambda = 3/2 coming from the inverse-power expectation values it is
    built from, so lambda <= 3/2 (gamma^2 + ell(ell+1) <= 3/4 + ...) is
    rejected; physical molecules have gamma >> 1 and never get near the guard.
    """
    g = gamma(m)
    lam = lambda_kratzer(g, ell)
    pole = _pole_at(lam <= 1.5, lam, ell)
    if pole is not None:
        raise DomainError(
            f"correction formula has poles for lambda <= 3/2, where <p^4> diverges, so first "
            f"order is undefined there; got lambda = {pole[0]!r} (gamma = {g!r}, ell = {pole[1]})"
        )
    a = ell + 0.5
    nn = lam + n
    t = 2.0 * g / nn
    t2 = t * t
    return (m.mu * m.de * m.de * (t2 * t2) * _slope_polynomial(lam, n, a * a)
            / (16.0 * lam * (lam - 1.0) * nn * (2.0 * lam - 3.0) * (2.0 * lam - 1.0)
               * (2.0 * lam + 1.0)))


def kratzer_energy_undeformed(m: Molecule, qn: QuantumNumbers) -> float:
    """Exact bound level -gamma^2*de/(lambda+n)^2; always in (-de, 0)."""
    return KRATZER.undeformed(m, qn)


def kratzer_correction_slope(m: Molecule, qn: QuantumNumbers) -> float:
    """First-order level shift per unit beta (see _slopes); DomainError for
    lambda <= 3/2, where the closed form has poles."""
    return KRATZER.slope(m, qn)


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
    energies=_energies,
    slopes=_slopes,
    constants=kratzer_spectroscopic_constants,
    well_offset=lambda m: m.de,  # the well bottom sits at -de
)
