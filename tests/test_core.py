import json
import math
import re

import numpy as np
import pytest

from gupmol import (
    AMU_TO_INTERNAL,
    EV_TO_CM1,
    Deformation,
    DomainError,
    EnergyLevel,
    Molecule,
    QuantumNumbers,
    gamma,
    lambda_kratzer,
    lambda_pho,
    closed_form_table,
    load_levels,
    synthetic_molecule,
)
from gupmol.cli import main
from gupmol.core import _per_ev, _sqrt
from gupmol.spectroscopy import MODELS


class TestUnitSystem:
    """Units change only at the edges, each by one multiply or divide by a factor:
    ``x / _per_ev(unit)`` in, ``x * _per_ev(unit)`` out, ``mu_amu * AMU_TO_INTERNAL``."""

    PER_EV = {"internal": 1.0, "eV": 1.0, "cm-1": EV_TO_CM1}

    @pytest.mark.parametrize("unit", PER_EV)
    def test_energy_round_trip(self, unit, rng, tmp_path):
        # in through a levels file, out as the CLI prints an energy
        values = rng.uniform(1e-6, 1e4, size=50).tolist()
        path = tmp_path / "levels.csv"
        path.write_text("".join(f"H2,{n},0,{value!r},{unit},x\n"
                                for n, value in enumerate(values)))
        back = [level.energy * _per_ev(unit) for level in load_levels(path)]
        assert back == pytest.approx(values, rel=1e-12)

    def test_mass_round_trip(self, rng):
        for mu_amu in rng.uniform(0.1, 300.0, size=50):
            mu = Molecule.from_spectroscopic("x", 4.7, 0.74, mu_amu).mu
            assert mu == mu_amu * AMU_TO_INTERNAL
            assert mu / AMU_TO_INTERNAL == pytest.approx(mu_amu, rel=1e-12)

    def test_ev_to_cm1_magnitude(self):
        # spectroscopy convention: 1 eV is about 8065.54 cm-1
        assert EV_TO_CM1 == pytest.approx(8065.54, rel=1e-4)

    def test_unknown_unit_rejected(self):
        message = "unknown energy unit 'hartree'; expected one of ('internal', 'eV', 'cm-1')"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _per_ev("hartree")

    VALUES = [0.0, -0.0, 1.0, -2.5e-7, 3.3e300, 5e-324, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("x", VALUES)
    def test_floats_convert_bit_for_bit(self, x):
        expected = {
            ("in", "internal"): x, ("in", "eV"): x, ("in", "cm-1"): x / EV_TO_CM1,
            ("out", "internal"): x, ("out", "eV"): x, ("out", "cm-1"): x * EV_TO_CM1,
        }
        for (edge, unit), want in expected.items():
            got = x / _per_ev(unit) if edge == "in" else x * _per_ev(unit)
            assert type(got) is float
            # struct-level equality: the same bits, -0.0 and nan included
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (edge, unit)

    def test_arrays_convert_bit_for_bit(self):
        x = np.array(self.VALUES)
        with np.errstate(over="ignore"):
            cases = [(x / _per_ev("internal"), x), (x / _per_ev("eV"), x),
                     (x / _per_ev("cm-1"), x / EV_TO_CM1),
                     (x * _per_ev("internal"), x), (x * _per_ev("eV"), x),
                     (x * _per_ev("cm-1"), x * EV_TO_CM1)]
        for got, want in cases:
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("unit", PER_EV)
    def test_level_file_energy_is_one_divide(self, tmp_path, unit):
        path = tmp_path / "levels.csv"
        path.write_text(f"H2,0,0,2179.3,{unit},x\n")
        (level,) = load_levels(path)
        assert level.energy == 2179.3 / self.PER_EV[unit]

    @staticmethod
    def energies(document):
        """The energies a spectrum or constants JSON document prints, in order."""
        if "levels" in document:
            return [row[k] for row in document["levels"] for k in ("e0", "delta_e", "total")]
        return [*document["constants"].values(), *document["fitted"].values()]

    @pytest.mark.parametrize("unit", ["eV", "cm-1"])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--potential", "kratzer", "--molecule", "H2", "--beta", "1e-6"],
        ["spectrum", "--potential", "pho", "--molecule", "H2", "--beta", "1e-6",
         "--nmax", "5", "--lmax", "5"],
        ["constants", "--potential", "pho", "--molecule", "H2", "--beta", "1e-5", "--fit"],
    ], ids=["spectrum-per-level", "spectrum-6x6", "constants-fit"])
    def test_cli_prints_internal_values_times_the_factor(self, capsys, argv, unit):
        # JSON floats are reprs, so the printed numbers are the floats themselves
        def printed(unit):
            assert main([*argv, "--units", unit, "--format", "json"]) == 0
            return self.energies(json.loads(capsys.readouterr().out))

        internal = printed("internal")
        assert printed(unit) == [x * self.PER_EV[unit] for x in internal]

    @pytest.mark.parametrize("unit", PER_EV)
    def test_e_exp_is_one_divide(self, capsys, unit):
        assert main(["fit-beta", "--molecule", "H2-kratzer", "--e-exp", "2170", "--units", unit,
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["e_exp_eV"] == 2170.0 / self.PER_EV[unit]


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


class TestPoleMessages:
    """The whole DomainError of each slope formula's pole, one level or a table."""

    TAIL = (", where <p^4> diverges, so first order is undefined there; got lambda = {lam} "
            "(gamma = {g}, ell = 0)")
    POLES = {"kratzer": "correction formula has poles for lambda <= 3/2",
             "pho": "correction formula has a pole for gamma^2 = 0 and for lambda <= 1"}
    # (mu, Kratzer lambda, pho lambda, gamma) at de = re = 1; at mu = 1e-300 gamma^2 is 0.0
    CASES = [(0.1, "1.170820393249937", "0.6708203932499369", "0.4472135954999579"),
             (1e-300, "1.0", "0.5", "1.4142135623730952e-150")]

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    @pytest.mark.parametrize("case", CASES, ids=["shallow", "gamma-squared-zero"])
    @pytest.mark.parametrize("path", ["slope", "table", "constants"])
    def test_message(self, kind, case, path):
        mu, lam_kratzer, lam_pho, g = case
        lam = lam_kratzer if kind == "kratzer" else lam_pho
        message = self.POLES[kind] + self.TAIL.format(lam=lam, g=g)
        m = Molecule("m", 1.0, 1.0, mu)
        model = MODELS[kind]
        with pytest.raises(DomainError) as caught:
            if path == "slope":
                model.slope(m, QuantumNumbers(1, 0))
            elif path == "table":
                model.table(m, Deformation(1e-3), 2, 2)
            else:
                model.constants(m, Deformation(1e-3))
        assert str(caught.value) == message


class TestDeformation:
    def test_zero_beta(self):
        assert Deformation(0.0).minimal_length == 0.0

    @pytest.mark.parametrize("beta", [0.0, -0.0, 0])
    def test_zero_beta_is_stored_as_positive_zero(self, beta):
        stored = Deformation(beta)
        assert type(stored.beta) is float and math.copysign(1.0, stored.beta) == 1.0
        assert math.copysign(1.0, stored.minimal_length) == 1.0

    @pytest.mark.parametrize("beta", [1, 1e-6, np.float64(2e-5)])
    def test_nonzero_beta_is_kept_as_given(self, beta):
        stored = Deformation(beta).beta
        assert type(stored) is type(beta) and stored == beta

    def test_known_value(self):
        assert Deformation(0.2).minimal_length == pytest.approx(1.0, rel=1e-14)

    def test_inverse_known_value(self):
        assert Deformation.from_minimal_length(1.0).beta == pytest.approx(0.2, rel=1e-14)
        assert Deformation.from_minimal_length(0.0).beta == 0.0

    def test_round_trip(self, rng):
        for x in rng.uniform(1e-12, 1.0, size=100):
            assert Deformation.from_minimal_length(x).minimal_length == pytest.approx(x, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Deformation.from_minimal_length(-0.1)
        with pytest.raises(DomainError):
            Deformation(-1e-9)

    @pytest.mark.parametrize("x", [1.5e154, 1e160, 1.7e308])
    def test_length_whose_beta_overflows_is_named(self, x):
        message = f"minimal length {x!r} is out of floating-point range: its beta = x^2/5 overflows"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Deformation.from_minimal_length(x)

    def test_largest_length_with_a_finite_beta(self):
        x = 1e154
        assert Deformation.from_minimal_length(x).beta == x * x / 5.0


class TestValidation:
    @pytest.mark.parametrize("field", ["de", "re", "mu"])
    def test_molecule_positive(self, field):
        kwargs = {"de": 1.0, "re": 1.0, "mu": 1.0}
        kwargs[field] = 0.0
        with pytest.raises(DomainError):
            Molecule("bad", **kwargs)

    @pytest.mark.parametrize("n,ell", [(-1, 0), (0, -2), (0.5, 0), (0, 1.5),
                                       (float("inf"), 0), (float("nan"), 0), (None, 0)])
    def test_quantum_numbers(self, n, ell):
        with pytest.raises(DomainError, match="must be a nonnegative integer"):
            QuantumNumbers(n=n, ell=ell)

    def test_quantum_numbers_ok(self):
        qn = QuantumNumbers(n=3, ell=2)
        assert (qn.n, qn.ell) == (3, 2)

    def test_energy_level_total(self):
        level = EnergyLevel(QuantumNumbers(0, 0), e0=-0.5, de=0.125)
        assert level.total == -0.375


class TestPotential:
    """The numbers the solver sees: each model's V(r) is the README's form bit for bit,
    evaluated left to right (g1 = de*re*re and g2 = 2*de*re formed first)."""

    @staticmethod
    def readme_form(kind, m, r):
        if kind == "kratzer":
            g1, g2 = m.de * m.re * m.re, 2.0 * m.de * m.re
            return g1 / (r * r) - g2 / r
        x = r / m.re - m.re / r
        return m.de * x * x

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    @pytest.mark.parametrize("m", [synthetic_molecule(20.0),
                                   Molecule.from_spectroscopic("H2", 4.7446, 0.74144, 0.503913),
                                   Molecule("shallow", de=0.03, re=3.7, mu=2e4)],
                             ids=["unit", "H2", "shallow"])
    def test_matches_the_readme_form(self, kind, m):
        r = m.re * np.geomspace(1e-3, 5e4, 2001)
        assert np.array_equal(MODELS[kind].potential(m, r), self.readme_form(kind, m, r))
