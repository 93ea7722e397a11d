"""The closed forms as the kernels evaluate them, against the paper's forms.

The paper writes each undeformed level and shift slope in a form whose O(1)
terms cancel at large gamma; the kernels use rearranged forms in which they
cancel symbolically.  The paper's forms are kept here as the specification:
sympy proves that the kernels' slope polynomials (``_slope_polynomial``) and
the rearranged levels equal them identically, and an mpmath evaluation of
them at 60 digits and more bounds the kernels' float64 error.  The structural
properties are tested in test_closed_form_properties.py.
"""
import json
import math
import warnings

import numpy as np
import pytest

from gupmol import (
    Deformation,
    DomainError,
    Molecule,
    QuantumNumbers,
    cli,
    closed_form_table,
    kratzer,
    pho,
)
from gupmol.spectroscopy import MODELS

KINDS = tuple(MODELS)
# float64 levels against the paper forms, per kind and label, about twice the
# worst measured on test_against_60_digits' grid (Kratzer 2.8e-16 from
# dissociation and 4.1e-16 above the minimum, pho 1.9e-16 for both, which are
# one value)
LEVEL_BOUND = {
    "kratzer": {"e0": 6e-16, "level above minimum": 8e-16},
    "pho": {"e0": 4e-16, "level above minimum": 4e-16},
}
# float64 slopes against the paper forms, about twice the worst measured on the
# grid (1.22e-15 and 3.2e-16)
SLOPE_BOUND = {"kratzer": 2e-15, "pho": 1e-15}
GAMMAS = (2.5, 5.0, 20.0, 36.0, 100.0, 3e3, 1e4, 2e5, 2e6, 1e8, 1e12, 1e20, 1e40, 1e55)
NS = (0, 1, 5, 50, 200)
ELLS = (0, 1, 10, 200)


def paper_kratzer(g, a, n, de, mu, sqrt, half):
    """(level from dissociation, level above the minimum, slope) as the paper writes them."""
    lam = half + sqrt(a * a + g * g)
    nn = lam + n
    e0 = -g * g * de / (nn * nn)
    bracket = (
        -3 * half / 2
        + (nn / (lam - half)) * (1 + (g * g / 2) * (1 / (nn * nn) - 2 / (lam * (lam - 1))))
        + (g**4 / 4) * (1 / ((lam - half) * (lam - 1) * (lam - 3 * half) * nn))
        * (1 + 3 * n * (2 * lam + n) / (lam * (2 * lam + 1)))
    )
    return e0, e0 + de, mu * de * de * (2 * g / nn) ** 4 * bracket


def paper_pho(g, a, n, de, mu, sqrt, half):
    """(level, level above the minimum, slope) as the paper writes them."""
    lam = sqrt(g * g + a * a)
    s = lam + 2 * n + 1
    e0 = -2 * de * (1 - s / g)
    slope = 4 * mu * (
        e0 * e0 + 4 * de * e0 + 6 * de * de
        - (4 * de * de + 2 * de * e0) * s / g
        + de * de * (lam * lam + (6 * n + 3) * lam + 6 * n * (n + 1) + 2) / (g * g)
        - g * 2 * de * (2 * de + e0) / lam
        + de * de * g * g * s / (lam * (lam * lam - 1))
    )
    return e0, e0, slope


PAPER = {"kratzer": paper_kratzer, "pho": paper_pho}


def exact(sp, expr):
    """The code's polynomial with its float coefficients, all whole numbers, as integers."""
    return sp.nsimplify(expr, rational=True)


class TestIdentities:
    """simplify(new - paper) == 0 for both levels and both slopes."""

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy")

    @pytest.fixture(scope="class")
    def symbols(self, sp):
        g, a, de, mu = sp.symbols("gamma a de mu", positive=True)
        n = sp.Symbol("n", integer=True, nonnegative=True)
        return g, a, n, de, mu

    def test_kratzer(self, sp, symbols):
        g, a, n, de, mu = symbols
        half = sp.Rational(1, 2)
        _, e_min, slope = paper_kratzer(g, a, n, de, mu, sp.sqrt, half)
        r = sp.sqrt(a * a + g * g)
        lam = half + r
        nn = lam + n
        new_e_min = de * (n + half + a * a / (r + g)) * (nn + g) / (nn * nn)
        new_slope = (mu * de * de * (2 * g / nn) ** 4 * exact(sp, kratzer._slope_polynomial(lam, n, a * a))
                     / (16 * lam * (lam - 1) * nn * (2 * lam - 3) * (2 * lam - 1) * (2 * lam + 1)))
        assert sp.simplify(new_e_min - e_min) == 0
        assert sp.simplify(new_slope - slope) == 0

    def test_pho(self, sp, symbols):
        g, a, n, de, mu = symbols
        e0, _, slope = paper_pho(g, a, n, de, mu, sp.sqrt, sp.Rational(1, 2))
        lam = sp.sqrt(g * g + a * a)
        delta = a * a / (lam + g)
        new_e0 = 2 * de * (2 * n + 1 + delta) / g
        new_slope = (4 * mu * de * de * exact(sp, pho._slope_polynomial(lam, a * a, n))
                     / (g * g * lam * (lam - 1) * (lam + 1)))
        assert sp.simplify(new_e0 - e0) == 0
        assert sp.simplify(new_slope - slope) == 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("g", GAMMAS)
def test_against_60_digits(kind, g):
    """Every level of the grid within its kind's and label's LEVEL_BOUND of the
    paper's forms, and every slope finite and within its kind's SLOPE_BOUND.
    The paper's slope brackets cancel to O(1/gamma^2), so they are evaluated
    at 60 digits plus two a decade of gamma."""
    mp = pytest.importorskip("mpmath").mp
    m = Molecule("x", de=1.0, re=1.0, mu=g * g / 2.0)
    model = MODELS[kind]
    table = closed_form_table(m, Deformation(0.0), kind, max(NS), max(ELLS))
    with mp.workdps(60 + 2 * math.ceil(math.log10(g))):
        # gamma as the molecule's float parameters define it, at the same digits
        g_ref = mp.mpf(m.re) * mp.sqrt(2 * mp.mpf(m.mu) * mp.mpf(m.de))
        for n in NS:
            for ell in ELLS:
                qn = QuantumNumbers(n, ell)
                ref = PAPER[kind](g_ref, ell + mp.mpf(1) / 2, n, mp.mpf(m.de), mp.mpf(m.mu),
                                  mp.sqrt, mp.mpf(1) / 2)
                got = (model.undeformed(m, qn), table.energy[n * (max(ELLS) + 1) + ell],
                       model.slope(m, qn))
                bounds = (LEVEL_BOUND[kind]["e0"], LEVEL_BOUND[kind]["level above minimum"],
                          SLOPE_BOUND[kind])
                for label, value, want, bound in zip(("e0", "level above minimum", "slope"),
                                                     got, ref, bounds):
                    assert math.isfinite(value), (kind, g, n, ell, label, value)
                    err = abs((mp.mpf(value) - want) / want)
                    assert err <= bound, (kind, g, n, ell, label, float(err))


def test_cli_prints_checked_shifts_for_deep_wells(capsys):
    """The Kratzer slope kernel is finite to gamma ~ 4e76 (at n = ell = 0), so
    at gamma 1e52 spectrum prints every shift within the slope bound of beta
    times the paper's slope (plus the product's rounding), and a fit at gamma
    1e55 prints finite constants."""
    mp = pytest.importorskip("mpmath").mp
    beta, mu = 1e-6, 5e103
    assert cli.main(["spectrum", "--potential", "kratzer", "--synthetic", "1,1,5e103",
                     "--beta", "1e-6", "--units", "internal", "--format", "json"]) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert len(levels) > 1
    with mp.workdps(60 + 2 * 53):
        g = mp.sqrt(2 * mp.mpf(mu))
        for level in levels:
            slope = paper_kratzer(g, level["l"] + mp.mpf(1) / 2, level["n"], mp.mpf(1),
                                  mp.mpf(mu), mp.sqrt, mp.mpf(1) / 2)[2]
            want = mp.mpf(beta) * slope
            err = abs((mp.mpf(level["delta_e"]) - want) / want)
            assert err <= SLOPE_BOUND["kratzer"] + 2.0**-53, (level, float(err))
    assert cli.main(["constants", "--potential", "kratzer", "--synthetic", "1,1,5e109",
                     "--beta", "1e-6", "--fit", "--units", "internal", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(v) for key in ("constants", "fitted", "rel_diff")
               for v in document[key].values())
    # the levels are beta * 3 (nu^2 + 1/4) to O(1/gamma): the shifts carry y00 and
    # wexe, and every other constant is below the levels' round-off at this depth
    assert abs(document["rel_diff"]["y00"]) <= 1e-12
    assert abs(document["rel_diff"]["wexe"]) <= 1e-12


class TestTableSizes:
    @pytest.mark.parametrize("n_max, l_max", [(-1, 2), (2, -1), (3.0, 2), (2, 2.5), (True, 2),
                                              (2, False), ("3", 2), (None, 2)])
    def test_rejected(self, unit_molecule, n_max, l_max):
        with pytest.raises(DomainError, match="must be a nonnegative integer"):
            closed_form_table(unit_molecule, Deformation(0.0), "kratzer", n_max, l_max)

    def test_numpy_integers_accepted(self, unit_molecule):
        table = closed_form_table(unit_molecule, Deformation(0.0), "pho", np.int64(2), np.int32(1))
        assert len(table.entries) == 6

    def test_zero_sizes_give_the_ground_level(self, unit_molecule):
        ((qn, energy),) = closed_form_table(unit_molecule, Deformation(0.0), "pho", 0, 0).entries
        assert qn == QuantumNumbers(0, 0)
        assert energy == MODELS["pho"].undeformed(unit_molecule, qn)


@pytest.mark.parametrize("kind", KINDS)
def test_pole_names_the_first_level_in_n_major_order(kind):
    # gamma 0.3: ell = 0 is the only level at either model's pole
    m = Molecule("shallow", de=1.0, re=1.0, mu=0.045)
    qn = QuantumNumbers(0, 0)
    with pytest.raises(DomainError) as scalar:
        MODELS[kind].slope(m, qn)
    with pytest.raises(DomainError) as table:
        closed_form_table(m, Deformation(1e-6), kind, 3, 3)
    assert str(table.value) == str(scalar.value)
    assert "ell = 0)" in str(table.value)
    assert math.isfinite(MODELS[kind].slope(m, QuantumNumbers(0, 3)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("de, re, mu", [(1.0, 1.0, 1e300), (1.0, 1e200, 1.0), (1e150, 1.0, 1e150)])
def test_scalar_view_out_of_range_is_a_float_without_warnings(kind, de, re, mu):
    # The scalar view runs the kernels on Python floats: a value beyond float
    # range comes back as inf or nan, with no exception and no numpy warning.
    m = Molecule("extreme", de=de, re=re, mu=mu)
    qn = QuantumNumbers(3, 2)
    model = MODELS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = (model.undeformed(m, qn), model.slope(m, qn))
    assert all(type(v) is float for v in values)
