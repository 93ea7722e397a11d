import math

import pytest

from gupmol import (
    Deformation,
    DomainError,
    Molecule,
    PerturbationWarning,
    QuantumNumbers,
    gamma,
    kratzer_correction_slope,
    kratzer_energy_deformed,
    kratzer_energy_undeformed,
    kratzer_spectroscopic_constants,
    synthetic_molecule,
)
from gupmol.kratzer import KRATZER


class TestPotential:
    def test_minimum_value(self, unit_molecule):
        assert KRATZER.potential(unit_molecule, 1.0) == pytest.approx(-1.0, rel=1e-14)

    def test_exact_zero_crossing(self, unit_molecule):
        assert KRATZER.potential(unit_molecule, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_asymptote_from_below(self, unit_molecule):
        tail = KRATZER.potential(unit_molecule, 1e6)
        assert -1e-5 < tail < 0.0


class TestUndeformed:
    def test_unit_molecule_ground_state(self, unit_molecule):
        e = kratzer_energy_undeformed(unit_molecule, QuantumNumbers(0, 0))
        assert e == pytest.approx(-0.5, rel=1e-14)

    def test_bound_interval(self):
        m = synthetic_molecule(25.0)
        for n in range(6):
            for ell in range(4):
                e = kratzer_energy_undeformed(m, QuantumNumbers(n, ell))
                assert -m.de < e < 0.0

    def test_monotone_to_zero_in_n(self, unit_molecule):
        energies = [
            kratzer_energy_undeformed(unit_molecule, QuantumNumbers(n, 0)) for n in range(60)
        ]
        assert all(a < b for a, b in zip(energies, energies[1:]))
        assert -1e-3 < energies[-1] < 0.0


class TestDeformed:
    def test_beta_zero_reduces_bitwise(self, unit_molecule):
        for n in range(4):
            for ell in range(3):
                qn = QuantumNumbers(n, ell)
                level = kratzer_energy_deformed(unit_molecule, Deformation(0.0), qn)
                assert level.de == 0.0
                assert level.total == kratzer_energy_undeformed(unit_molecule, qn)

    def test_hand_substituted_unit_case(self, unit_molecule):
        # gamma^2 = 2, lambda = 2: prefactor 4, bracket 1/4, so the shift is
        # exactly beta (confirmed against the numerical solver in acceptance).
        assert kratzer_correction_slope(unit_molecule, QuantumNumbers(0, 0)) == pytest.approx(
            1.0, rel=1e-12
        )
        level = kratzer_energy_deformed(unit_molecule, Deformation(1e-3), QuantumNumbers(0, 0))
        assert level.de == pytest.approx(1e-3, rel=1e-12)

    def test_exact_linearity_in_beta(self, unit_molecule):
        qn = QuantumNumbers(1, 1)
        m = synthetic_molecule(40.0)
        de1 = kratzer_energy_deformed(m, Deformation(1e-7), qn).de
        de2 = kratzer_energy_deformed(m, Deformation(2e-7), qn).de
        assert de2 == 2.0 * de1

    def test_pole_guard(self):
        shallow = synthetic_molecule(0.5)  # lambda(ell=0) ~ 1.207 <= 3/2
        with pytest.raises(DomainError):
            kratzer_correction_slope(shallow, QuantumNumbers(0, 0))

    def test_first_order_warning(self, unit_molecule):
        with pytest.warns(PerturbationWarning):
            kratzer_energy_deformed(unit_molecule, Deformation(0.06), QuantumNumbers(0, 0))

    def test_no_warning_for_small_shift(self, unit_molecule, recwarn):
        kratzer_energy_deformed(unit_molecule, Deformation(1e-6), QuantumNumbers(0, 0))
        assert not [w for w in recwarn if issubclass(w.category, PerturbationWarning)]


class TestExpansion:
    def test_series_consistency_at_large_gamma(self):
        m = synthetic_molecule(1e4)
        qn = QuantumNumbers(0, 0)
        closed = kratzer_energy_undeformed(m, qn)
        series = KRATZER.expansion(m, Deformation(0.0), qn)
        assert abs(closed - series) <= 1e-15 * m.de

    def test_leading_term_is_minus_well_depth(self):
        m = synthetic_molecule(1e8)
        series = KRATZER.expansion(m, Deformation(0.0), QuantumNumbers(0, 0))
        assert series == pytest.approx(-m.de, rel=1e-7)

    def test_beta_part_leading_coefficient(self):
        # beta series starts at 6*(nu^2 + 1/4)*beta*mu*de^2/gamma^2.
        m = synthetic_molecule(500.0, de=2.0)
        beta = 1e-9
        for n, ell in [(0, 0), (2, 1)]:
            qn = QuantumNumbers(n, ell)
            beta_part = KRATZER.expansion(m, Deformation(beta), qn) - (
                KRATZER.expansion(m, Deformation(0.0), qn)
            )
            nu = n + 0.5
            lh = (ell + 0.5) ** 2
            g = gamma(m)
            expected = (
                beta * m.mu * m.de**2
                * (6.0 * (nu**2 + 0.25) / g**2 + 2.0 * nu * (-0.25 + 4.0 * lh - 15.0 * nu**2) / g**3)
            )
            assert beta_part == pytest.approx(expected, rel=1e-12)

    def test_remainder_shrinks_like_fourth_power(self):
        # state with n != ell: the 1/gamma^4 coefficient vanishes when n == ell.
        qn = QuantumNumbers(1, 0)
        diffs = []
        for g in (100.0, 200.0):
            m = Molecule("s", de=2.0, re=g / math.sqrt(2.0 * 300.0 * 2.0), mu=300.0)
            diffs.append(
                abs(
                    kratzer_energy_undeformed(m, qn)
                    - KRATZER.expansion(m, Deformation(0.0), qn)
                )
            )
        assert diffs[0] / diffs[1] == pytest.approx(16.0, rel=0.25)


class TestConstants:
    def test_rotational_constant_value(self):
        m = synthetic_molecule(100.0)
        constants = kratzer_spectroscopic_constants(m, Deformation(0.0))
        assert constants.be == pytest.approx(1e-4, rel=1e-12)

    def test_unit_molecule_we(self, unit_molecule):
        constants = kratzer_spectroscopic_constants(unit_molecule, Deformation(0.0))
        assert constants.we == pytest.approx(1.1490485, abs=1e-7)

    def test_rotational_constant_unaffected_by_deformation(self):
        m = synthetic_molecule(30.0)
        without = kratzer_spectroscopic_constants(m, Deformation(0.0))
        with_beta = kratzer_spectroscopic_constants(m, Deformation(1e-4))
        assert with_beta.be == without.be

    def test_sign_structure_at_beta_zero(self):
        m = synthetic_molecule(50.0)
        c = kratzer_spectroscopic_constants(m, Deformation(0.0))
        assert c.we > 0 and c.wexe > 0 and c.weye > 0 and c.be > 0 and c.alphae > 0

    def test_beta_shifts_match_series(self):
        m = synthetic_molecule(80.0, de=3.0)
        beta = 1e-7
        g = gamma(m)
        bm = beta * m.mu * m.de**2
        base = kratzer_spectroscopic_constants(m, Deformation(0.0))
        shifted = kratzer_spectroscopic_constants(m, Deformation(beta))
        assert shifted.y00 - base.y00 == pytest.approx(1.5 * bm / g**2, rel=1e-10)
        assert shifted.we - base.we == pytest.approx(1.5 * bm / g**3, rel=1e-10)
        assert shifted.wexe - base.wexe == pytest.approx(-6.0 * bm / g**2, rel=1e-10)
        assert shifted.weye - base.weye == pytest.approx(-30.0 * bm / g**3, rel=1e-10)
        assert shifted.alphae - base.alphae == pytest.approx(-8.0 * bm / g**3, rel=1e-10)
