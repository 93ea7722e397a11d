import math

import numpy as np
import pytest

from gupmol import (
    Deformation,
    DomainError,
    Molecule,
    QuantumNumbers,
    gamma,
    kratzer_spectroscopic_constants,
    pho_correction_slope,
    pho_energy_deformed,
    pho_energy_undeformed,
    pho_spectroscopic_constants,
    synthetic_molecule,
)
from gupmol.pho import PHO


class TestPotential:
    def test_zero_at_minimum(self, unit_molecule):
        assert PHO.potential(unit_molecule, 1.0) == 0.0

    def test_exact_value(self, unit_molecule):
        assert PHO.potential(unit_molecule, 2.0) == pytest.approx(2.25, rel=1e-14)

    def test_reflection_symmetry(self, unit_molecule, rng):
        for k in rng.uniform(0.1, 10.0, size=30):
            assert PHO.potential(unit_molecule, k) == pytest.approx(
                PHO.potential(unit_molecule, 1.0 / k), rel=1e-12)

    def test_nonnegative(self, unit_molecule, rng):
        assert np.all(PHO.potential(unit_molecule, rng.uniform(0.01, 50.0, size=200)) >= 0.0)


class TestUndeformed:
    def test_unit_molecule_ground_state(self, unit_molecule):
        e = pho_energy_undeformed(unit_molecule, QuantumNumbers(0, 0))
        assert e == pytest.approx(-2.0 * (1.0 - 2.5 / math.sqrt(2.0)), rel=1e-12)
        assert e == pytest.approx(1.5355339, abs=1e-7)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_exact_harmonic_spacing(self, ell):
        m = synthetic_molecule(150.0)
        g = gamma(m)
        for n in range(5):
            gap = pho_energy_undeformed(m, QuantumNumbers(n + 1, ell)) - pho_energy_undeformed(
                m, QuantumNumbers(n, ell)
            )
            assert gap == pytest.approx(4.0 * m.de / g, rel=1e-12)

    def test_no_quadratic_term_in_n(self):
        m = synthetic_molecule(60.0)
        e = [pho_energy_undeformed(m, QuantumNumbers(n, 1)) for n in range(4)]
        second_difference = e[2] - 2.0 * e[1] + e[0]
        assert abs(second_difference) < 1e-13 * abs(e[0])


class TestDeformed:
    def test_beta_zero_reduces_bitwise(self):
        m = synthetic_molecule(35.0)
        for n in range(4):
            for ell in range(3):
                qn = QuantumNumbers(n, ell)
                level = pho_energy_deformed(m, Deformation(0.0), qn)
                assert level.de == 0.0
                assert level.total == pho_energy_undeformed(m, qn)

    def test_exact_linearity_in_beta(self):
        m = synthetic_molecule(35.0)
        qn = QuantumNumbers(2, 1)
        de1 = pho_energy_deformed(m, Deformation(3e-8), qn).de
        de2 = pho_energy_deformed(m, Deformation(6e-8), qn).de
        assert de2 == 2.0 * de1

    def test_unit_molecule_slope_frozen(self, unit_molecule):
        # hand substitution: lambda = 3/2, e0 = 2(2.5/sqrt(2) - 1); bracket sums to 2.375
        assert pho_correction_slope(unit_molecule, QuantumNumbers(0, 0)) == pytest.approx(
            9.5, rel=1e-12
        )

    def test_pole_guard(self):
        shallow = synthetic_molecule(0.5)  # lambda(ell=0) ~ 0.707 <= 1
        with pytest.raises(DomainError):
            pho_correction_slope(shallow, QuantumNumbers(0, 0))


class TestExpansion:
    def test_series_consistency_at_large_gamma(self):
        m = synthetic_molecule(1e4)
        qn = QuantumNumbers(0, 0)
        g = gamma(m)
        closed = pho_energy_undeformed(m, qn)
        series = PHO.expansion(m, Deformation(0.0), qn)
        assert series == pytest.approx(m.de / (4.0 * g * g) + 2.0 * m.de / g, rel=1e-14)
        assert abs(closed - series) <= 1e-15 * m.de

    def test_beta_part_coefficients(self):
        # de != 1 distinguishes the de-power of every term.
        m = synthetic_molecule(300.0, de=2.5)
        g = gamma(m)
        beta = 1e-9
        for n, ell in [(0, 0), (1, 2)]:
            qn = QuantumNumbers(n, ell)
            beta_part = PHO.expansion(m, Deformation(beta), qn) - PHO.expansion(
                m, Deformation(0.0), qn
            )
            nu = n + 0.5
            ll = ell * (ell + 1)
            expected = beta * m.mu * m.de**2 * (
                6.0 / g**2 + 24.0 * nu**2 / g**2 + 12.0 * nu / g**3 + 16.0 * nu * ll / g**3
            )
            assert beta_part == pytest.approx(expected, rel=1e-12)


class TestConstants:
    def test_zeros_at_beta_zero(self):
        m = synthetic_molecule(45.0)
        c = pho_spectroscopic_constants(m, Deformation(0.0))
        assert c.wexe == 0.0
        assert c.alphae == 0.0
        assert c.weye == 0.0
        # +0.0, not -0.0: every constant has a positive sign
        assert [math.copysign(1.0, value) for value in c.as_dict().values()] == [1.0] * 6

    @pytest.mark.parametrize("beta", [1e-9, 4e-5, 1e-2, 0.7])
    def test_negative_constants_are_the_negated_products(self, beta):
        m = synthetic_molecule(45.0)
        c = pho_spectroscopic_constants(m, Deformation(beta))
        g = gamma(m)
        bm = beta * m.mu * m.de * m.de
        assert c.wexe == -24.0 * bm / g**2
        assert c.alphae == -16.0 * bm / g**3

    def test_conflicting_signs_for_positive_beta(self):
        m = synthetic_molecule(45.0)
        c = pho_spectroscopic_constants(m, Deformation(1e-6))
        assert c.wexe < 0.0
        assert c.alphae < 0.0

    def test_anharmonicity_arithmetic(self):
        # de = 1, mu = 1, gamma = 10 requires re = 10/sqrt(2)
        m = Molecule("g10", de=1.0, re=10.0 / math.sqrt(2.0), mu=1.0)
        assert gamma(m) == pytest.approx(10.0, rel=1e-14)
        c = pho_spectroscopic_constants(m, Deformation(1e-3))
        assert c.wexe == pytest.approx(-2.4e-4, rel=1e-12)

    def test_rotational_constant_matches_other_potential(self):
        m = synthetic_molecule(75.0, de=1.8)
        d = Deformation(2e-6)
        assert pho_spectroscopic_constants(m, d).be == kratzer_spectroscopic_constants(m, d).be
