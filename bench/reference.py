"""60-digit mpmath evaluation of the paper's closed forms.

This module is the benchmark's independent reference: it imports nothing
from gupmol.  Inputs are the molecule parameters in internal units (eV,
Angstrom, eV^-1 A^-2, hbar = 1) exactly as the program receives them; the
results come back as double-double pairs (hi, lo) so that the deviation of
a float64 program value can be taken to well below one ulp with numpy.

Closed forms, with g = re*sqrt(2 mu de), nu = n + 1/2:

* 1/r^2 - 1/r well, lam = 1/2 + sqrt((l+1/2)^2 + g^2), N = lam + n:
  E0 = -g^2 de / N^2 and dE/dbeta =
  mu de^2 (2g/N)^4 [-3/4 + N/(lam-1/2) (1 + g^2/2 (1/N^2 - 2/(lam(lam-1))))
  + g^4/4 / ((lam-1/2)(lam-1)(lam-3/2) N) (1 + 3n(2lam+n)/(lam(2lam+1)))].
* pseudoharmonic well, lam = sqrt(g^2 + (l+1/2)^2), s = lam + 2n + 1:
  E0 = -2 de (1 - s/g) and dE/dbeta = 4 mu [E0^2 + 4 de E0 + 6 de^2
  - (4 de^2 + 2 de E0) s/g + de^2 (lam^2 + (6n+3) lam + 6n(n+1) + 2)/g^2
  - 2 g de (2 de + E0)/lam + de^2 g^2 s/(lam (lam^2 - 1))].

Band constants (bm = beta mu de^2):

* 1/r^2 - 1/r: y00 = de/(4g^2) + 3/2 bm/g^2, we = 2de/g - 3/4 de/g^3
  + 3/2 bm/g^3, wexe = 3de/g^2 - 6bm/g^2, weye = 4de/g^3 - 30bm/g^3,
  Be = de/g^2, alphae = 3de/g^3 - 8bm/g^3.
* pseudoharmonic: y00 = de/(4g^2) + 6bm/g^2, we = 4de/g + 12bm/g^3,
  wexe = -24bm/g^2, weye = 0, Be = de/g^2, alphae = -16bm/g^3.

Energies of the 1/r^2 - 1/r well are reported by the program both from the
dissociation limit (E0) and from the well minimum (E0 + de); both are here.
"""
from __future__ import annotations

import numpy as np
from mpmath import mp, mpf, sqrt

DIGITS = 60
CONSTANT_NAMES = ("y00", "we", "wexe", "weye", "be", "alphae")


def mpf_exact(x) -> mpf:
    """x itself if already an mpf, else the float the program parses from x
    (a float or a decimal string), exactly."""
    return x if isinstance(x, mpf) else mpf(float(x))


def split(x: mpf) -> tuple[float, float]:
    """Double-double (hi, lo) with hi + lo equal to x to ~32 digits."""
    hi = float(x)
    return hi, float(x - mpf(hi))


class Molecule:
    """de, re, mu at 60 digits; g computed from them as the paper defines it."""

    def __init__(self, de, re, mu):
        with mp.workdps(DIGITS):
            self.de = mpf_exact(de)
            self.re = mpf_exact(re)
            self.mu = mpf_exact(mu)
            self.g = self.re * sqrt(2 * self.mu * self.de)


def mass_to_internal(mu_amu, amu_mev: float, hbarc_mev_fm: float) -> mpf:
    """amu -> eV^-1 A^-2 from the CODATA factors the caller supplies."""
    with mp.workdps(DIGITS):
        hbarc = mpf(hbarc_mev_fm) * 10
        return mpf_exact(mu_amu) * mpf(amu_mev) * 10**6 / (hbarc * hbarc)


def _kratzer_row(m: Molecule, ell: int, ns):
    g, de, mu = m.g, m.de, m.mu
    g2 = g * g
    lam = mpf(1) / 2 + sqrt((ell + mpf(1) / 2) ** 2 + g2)
    a = 1 / (lam - mpf(1) / 2)
    b = 2 / (lam * (lam - 1))
    c = g2 * g2 / 4 / ((lam - mpf(1) / 2) * (lam - 1) * (lam - mpf(3) / 2))
    d = 3 / (lam * (2 * lam + 1))
    k = mu * de * de * 16 * g2 * g2
    e0s, slopes = [], []
    for n in ns:
        nn = lam + n
        inv = 1 / nn
        inv2 = inv * inv
        bracket = (-mpf(3) / 4 + nn * a * (1 + g2 / 2 * (inv2 - b))
                   + c * inv * (1 + n * (2 * lam + n) * d))
        e0s.append(-g2 * de * inv2)
        slopes.append(k * inv2 * inv2 * bracket)
    return e0s, slopes


def _pho_row(m: Molecule, ell: int, ns):
    g, de, mu = m.g, m.de, m.mu
    g2 = g * g
    lam = sqrt(g2 + (ell + mpf(1) / 2) ** 2)
    tail = de * de * g2 / (lam * (lam * lam - 1))
    e0s, slopes = [], []
    for n in ns:
        s = lam + 2 * n + 1
        e0 = -2 * de * (1 - s / g)
        slope = 4 * mu * (
            e0 * e0 + 4 * de * e0 + 6 * de * de
            - (4 * de * de + 2 * de * e0) * s / g
            + de * de * (lam * lam + (6 * n + 3) * lam + 6 * n * (n + 1) + 2) / g2
            - g * 2 * de * (2 * de + e0) / lam
            + tail * s
        )
        e0s.append(e0)
        slopes.append(slope)
    return e0s, slopes


ROWS = {"kratzer": _kratzer_row, "pho": _pho_row}


def levels(kind: str, m: Molecule, n_max: int, l_max: int) -> dict[str, np.ndarray]:
    """E0 (from dissociation for kratzer), E0 from the well minimum, and the
    shift per unit beta on the (n_max+1, l_max+1) grid, as hi/lo arrays."""
    shape = (n_max + 1, l_max + 1)
    out = {key: np.empty(shape) for key in
           ("e0_hi", "e0_lo", "emin_hi", "emin_lo", "slope_hi", "slope_lo")}
    offset = m.de if kind == "kratzer" else mpf(0)
    ns = range(n_max + 1)
    with mp.workdps(DIGITS):
        for ell in range(l_max + 1):
            e0s, slopes = ROWS[kind](m, ell, ns)
            for n, (e0, slope) in enumerate(zip(e0s, slopes)):
                out["e0_hi"][n, ell], out["e0_lo"][n, ell] = split(e0)
                out["emin_hi"][n, ell], out["emin_lo"][n, ell] = split(e0 + offset)
                out["slope_hi"][n, ell], out["slope_lo"][n, ell] = split(slope)
    return out


def constants(kind: str, m: Molecule, beta) -> tuple[dict[str, mpf], dict[str, mpf]]:
    """The six band constants at deformation beta (internal units), and for
    each the sum of its terms' magnitudes: the scale its rounding error and
    any cancellation between its terms are measured against."""
    with mp.workdps(DIGITS):
        g, de = m.g, m.de
        bm = mpf_exact(beta) * m.mu * de * de
        g2, g3 = g * g, g * g * g
        if kind == "kratzer":
            terms = {
                "y00": (de / (4 * g2), mpf(3) / 2 * bm / g2),
                "we": (2 * de / g, -mpf(3) / 4 * de / g3, mpf(3) / 2 * bm / g3),
                "wexe": (3 * de / g2, -6 * bm / g2),
                "weye": (4 * de / g3, -30 * bm / g3),
                "be": (de / g2,),
                "alphae": (3 * de / g3, -8 * bm / g3),
            }
        else:
            terms = {
                "y00": (de / (4 * g2), 6 * bm / g2),
                "we": (4 * de / g, 12 * bm / g3),
                "wexe": (-24 * bm / g2,),
                "weye": (mpf(0),),
                "be": (de / g2,),
                "alphae": (-16 * bm / g3,),
            }
        values = {k: sum(v, mpf(0)) for k, v in terms.items()}
        scales = {k: sum((abs(t) for t in v), mpf(0)) for k, v in terms.items()}
        return values, scales


def master_energy(c: dict, n: int, ell: int) -> mpf:
    """The master vibration-rotation expression at 60 digits."""
    with mp.workdps(DIGITS):
        nu = mpf(n) + mpf(1) / 2
        big_l = mpf(ell) * (ell + 1)
        return (mpf_exact(c["y00"]) + mpf_exact(c["we"]) * nu - mpf_exact(c["wexe"]) * nu**2
                + mpf_exact(c["weye"]) * nu**3 + mpf_exact(c["be"]) * big_l
                - mpf_exact(c["alphae"]) * nu * big_l)


def level(kind: str, m: Molecule, n: int, ell: int) -> tuple[mpf, mpf, mpf]:
    """(E0 from dissociation, E0 from the minimum, shift per beta) of one level."""
    with mp.workdps(DIGITS):
        e0s, slopes = ROWS[kind](m, ell, [n])
        offset = m.de if kind == "kratzer" else mpf(0)
        return e0s[0], e0s[0] + offset, slopes[0]
