import math

import numpy as np
import pytest

from gupmol import (
    UNITS,
    Deformation,
    DomainError,
    EnergyLevel,
    Molecule,
    QuantumNumbers,
    beta_from_minimal_length,
    gamma,
    lambda_kratzer,
    lambda_pho,
    minimal_length,
    closed_form_table,
    synthetic_molecule,
)
from gupmol.core import _sqrt
from gupmol.spectroscopy import MODELS


class TestUnitSystem:
    @pytest.mark.parametrize("unit", ["internal", "eV", "cm-1"])
    def test_energy_round_trip(self, unit, rng):
        for value in rng.uniform(1e-6, 1e4, size=50):
            back = UNITS.energy_from_internal(UNITS.energy_to_internal(value, unit), unit)
            assert back == pytest.approx(value, rel=1e-12)

    def test_mass_round_trip(self, rng):
        for value in rng.uniform(0.1, 300.0, size=50):
            assert UNITS.mass_from_internal(UNITS.mass_to_internal(value)) == pytest.approx(
                value, rel=1e-12
            )

    def test_ev_to_cm1_magnitude(self):
        # spectroscopy convention: 1 eV is about 8065.54 cm-1
        assert UNITS.energy_from_internal(1.0, "cm-1") == pytest.approx(8065.54, rel=1e-4)

    def test_unknown_unit_rejected(self):
        with pytest.raises(DomainError):
            UNITS.energy_to_internal(1.0, "hartree")


class TestGamma:
    def test_unit_molecule(self, unit_molecule):
        assert gamma(unit_molecule) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_direct_substitution(self):
        m = Molecule("x", de=4.0, re=1.0, mu=0.5)
        assert gamma(m) == pytest.approx(2.0, rel=1e-14)

    def test_square_root_scaling_in_de(self):
        base = Molecule("a", de=1.0, re=1.0, mu=1.0)
        scaled = Molecule("b", de=4.0, re=1.0, mu=1.0)
        assert gamma(scaled) == pytest.approx(2.0 * gamma(base), rel=1e-14)

    @pytest.mark.parametrize("k", [2.0, 10.0])
    def test_invariance_under_de_re_rescale(self, k):
        base = Molecule("a", de=3.0, re=1.7, mu=5.0)
        rescaled = Molecule("b", de=k * k * base.de, re=base.re / k, mu=base.mu)
        assert gamma(rescaled) == pytest.approx(gamma(base), rel=1e-14)

    def test_synthetic_molecule_hits_target(self):
        for g in (1.5, 20.0, 312.0):
            assert gamma(synthetic_molecule(g)) == pytest.approx(g, rel=1e-14)


class TestLambdas:
    def test_kratzer_exact_point(self):
        assert lambda_kratzer(math.sqrt(2.0), 0) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("ell", [0, 1, 3])
    def test_kratzer_small_gamma_limit(self, ell):
        assert lambda_kratzer(1e-12, ell) == pytest.approx(ell + 1.0, abs=1e-9)

    def test_kratzer_large_case(self):
        assert lambda_kratzer(100.0, 1) == pytest.approx(0.5 + math.sqrt(10002.25), rel=1e-15)
        assert lambda_kratzer(100.0, 1) == pytest.approx(100.5112, abs=5e-5)

    def test_pho_exact_points(self):
        assert lambda_pho(math.sqrt(2.0), 0) == pytest.approx(1.5, rel=1e-15)
        assert lambda_pho(0.0, 0) == 0.5
        assert lambda_pho(100.0, 0) == pytest.approx(100.00125, abs=1e-5)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_difference_tends_to_half(self, ell):
        g = 1e6
        assert lambda_kratzer(g, ell) - lambda_pho(g, ell) == pytest.approx(0.5, abs=1e-6)


class TestNumpyScalars:
    """A numpy scalar, such as a LevelTable column entry, is one level: the kernels
    take their float path for it, never the array path."""

    def test_sqrt_of_a_float64_is_a_python_float(self):
        root = _sqrt(np.float64(2.0))
        assert type(root) is float and root == math.sqrt(2.0)

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_table_entries_give_the_level_of_ints(self, kind):
        m = synthetic_molecule(20.0)
        table = closed_form_table(m, Deformation(0.0), kind, 1, 1)
        n, ell = table.n[-1], table.ell[-1]
        assert isinstance(n, np.integer) and isinstance(ell, np.integer)
        slope = MODELS[kind].slopes(m, n, ell)
        assert not isinstance(slope, np.ndarray)
        assert slope == MODELS[kind].slope(m, QuantumNumbers(1, 1))

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_pole_of_a_float64_molecule(self, kind):
        # float64 fields make pho's pole mask an np.bool_, not a bool
        m = Molecule("float64", np.float64(1.0), np.float64(1.0), np.float64(0.1))
        with pytest.raises(DomainError, match=r"<p\^4> diverges.*ell = 0\)$"):
            MODELS[kind].slope(m, QuantumNumbers(0, 0))


class TestDeformation:
    def test_zero_beta(self):
        assert minimal_length(Deformation(0.0)) == 0.0

    def test_known_value(self):
        assert minimal_length(Deformation(0.2)) == pytest.approx(1.0, rel=1e-14)

    def test_inverse_known_value(self):
        assert beta_from_minimal_length(1.0).beta == pytest.approx(0.2, rel=1e-14)
        assert beta_from_minimal_length(0.0).beta == 0.0

    def test_round_trip(self, rng):
        for x in rng.uniform(1e-12, 1.0, size=100):
            assert minimal_length(beta_from_minimal_length(x)) == pytest.approx(x, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            beta_from_minimal_length(-0.1)
        with pytest.raises(DomainError):
            Deformation(-1e-9)


class TestValidation:
    @pytest.mark.parametrize("field", ["de", "re", "mu"])
    def test_molecule_positive(self, field):
        kwargs = {"de": 1.0, "re": 1.0, "mu": 1.0}
        kwargs[field] = 0.0
        with pytest.raises(DomainError):
            Molecule("bad", **kwargs)

    @pytest.mark.parametrize("n,ell", [(-1, 0), (0, -2), (0.5, 0), (0, 1.5)])
    def test_quantum_numbers(self, n, ell):
        with pytest.raises(DomainError):
            QuantumNumbers(n=n, ell=ell)

    def test_quantum_numbers_ok(self):
        qn = QuantumNumbers(n=3, ell=2)
        assert (qn.n, qn.ell) == (3, 2)

    def test_energy_level_total(self):
        level = EnergyLevel(QuantumNumbers(0, 0), e0=-0.5, de=0.125)
        assert level.total == -0.375
