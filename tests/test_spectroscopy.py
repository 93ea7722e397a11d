import math

import pytest

from gupmol import (
    DataFormatError,
    Deformation,
    DomainError,
    FitError,
    LevelTable,
    Molecule,
    NO_DEFORMATION,
    QuantumNumbers,
    SpectroscopicConstants,
    BetaBound,
    closed_form_table,
    fit_beta_bound,
    fit_dunham,
    gamma,
    kratzer_energy_deformed,
    load_levels,
    load_molecules,
    master_energy,
    packaged_data_path,
    pho_spectroscopic_constants,
    kratzer_spectroscopic_constants,
    synthetic_molecule,
)


def table_from_constants(constants, n_max=4, l_max=3, provenance="experimental"):
    entries = []
    for n in range(n_max + 1):
        for ell in range(l_max + 1):
            qn = QuantumNumbers(n, ell)
            entries.append((qn, master_energy(constants, qn)))
    return LevelTable(molecule=None, entries=tuple(entries), provenance=provenance)


class TestFitDunham:
    def test_exact_three_term_model(self):
        constants = SpectroscopicConstants(y00=1.0, we=2.0, wexe=0.0, weye=0.0, be=3.0, alphae=0.0)
        fit = fit_dunham(table_from_constants(constants))
        assert fit.constants.y00 == pytest.approx(1.0, rel=1e-12)
        assert fit.constants.we == pytest.approx(2.0, rel=1e-12)
        assert fit.constants.be == pytest.approx(3.0, rel=1e-12)
        assert abs(fit.constants.wexe) < 1e-12
        assert abs(fit.constants.weye) < 1e-12
        assert abs(fit.constants.alphae) < 1e-12
        assert fit.residual_max < 1e-12

    def test_recovers_generating_coefficients(self, rng):
        for _ in range(5):
            y00, we, wexe, weye, be, alphae = rng.uniform(-1.0, 1.0, size=6)
            constants = SpectroscopicConstants(y00, we, wexe, weye, be, alphae)
            fit = fit_dunham(table_from_constants(constants))
            for name, value in constants.as_dict().items():
                fitted = getattr(fit.constants, name)
                assert fitted == pytest.approx(value, rel=1e-10, abs=1e-10)

    def test_insufficient_n_coverage_named(self):
        constants = SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05)
        with pytest.raises(FitError, match="distinct n"):
            fit_dunham(table_from_constants(constants, n_max=2, l_max=3))

    def test_insufficient_l_coverage_named(self):
        constants = SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05)
        with pytest.raises(FitError, match="distinct ell"):
            fit_dunham(table_from_constants(constants, n_max=4, l_max=0))

    def test_too_few_entries_named(self):
        constants = SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05)
        entries = tuple(
            (QuantumNumbers(n, ell), master_energy(constants, QuantumNumbers(n, ell)))
            for n, ell in [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)]
        )
        table = LevelTable(molecule=None, entries=entries, provenance="experimental")
        with pytest.raises(FitError, match="6 levels"):
            fit_dunham(table)

    def test_rank_deficiency_behind_full_coverage(self):
        # n = 0..3 at ell = 0 plus n = 0 at ell = 1, 2: four n and three ell pass the
        # coverage checks, but every ell > 0 level has nu = 1/2, so nu L = L / 2.
        constants = SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05)
        entries = tuple(
            (QuantumNumbers(n, ell), master_energy(constants, QuantumNumbers(n, ell)))
            for n, ell in [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2)]
        )
        table = LevelTable(molecule=None, entries=entries, provenance="experimental")
        with pytest.raises(FitError, match="rank deficient"):
            fit_dunham(table)

    def test_duplicate_levels_rejected(self):
        qn = QuantumNumbers(0, 0)
        with pytest.raises(DomainError, match="duplicate"):
            LevelTable(molecule=None, entries=((qn, 1.0), (qn, 2.0)), provenance="experimental")

    def test_bad_provenance_rejected(self):
        with pytest.raises(DomainError):
            LevelTable(molecule=None, entries=(), provenance="guessed")


class TestClosedFormTables:
    def test_energies_measured_from_minimum(self, unit_molecule):
        table = closed_form_table(unit_molecule, NO_DEFORMATION, "kratzer", 4, 4)
        ground = dict(((qn.n, qn.ell), e) for qn, e in table.entries)[(0, 0)]
        assert ground == pytest.approx(0.5, rel=1e-12)  # -0.5 shifted by +de

    def test_round_trip_recovers_dominant_constants(self):
        m = synthetic_molecule(200.0)
        fit = fit_dunham(closed_form_table(m, NO_DEFORMATION, "kratzer", 4, 4))
        exact = kratzer_spectroscopic_constants(m, NO_DEFORMATION)
        assert fit.constants.we == pytest.approx(exact.we, rel=1e-2)
        assert fit.constants.wexe == pytest.approx(exact.wexe, rel=1e-2)
        assert fit.constants.be == pytest.approx(exact.be, rel=1e-2)
        # y00 takes the same absolute truncation leakage as the others
        # (~3e2 * de/gamma^4 here) but is itself only de/(4 gamma^2), so its
        # relative recovery floor is ~1.2e3/gamma^2; assert the absolute level.
        g = gamma(m)
        assert abs(fit.constants.y00 - exact.y00) <= 5e2 * m.de / g**4

    def test_pho_anharmonicity_magnitude_and_sign(self):
        m = synthetic_molecule(200.0)
        d = Deformation(1e-6)
        fit = fit_dunham(closed_form_table(m, d, "pho", 4, 4))
        expected = pho_spectroscopic_constants(m, d).wexe
        assert fit.constants.wexe < 0.0
        assert fit.constants.wexe == pytest.approx(expected, rel=5e-2)

    def test_fitted_rotational_constants_agree_across_potentials(self):
        m = synthetic_molecule(200.0)
        fit_k = fit_dunham(closed_form_table(m, NO_DEFORMATION, "kratzer", 4, 4))
        fit_p = fit_dunham(closed_form_table(m, NO_DEFORMATION, "pho", 4, 4))
        reference = m.de / gamma(m) ** 2
        assert fit_k.constants.be == pytest.approx(reference, rel=1e-2)
        assert fit_p.constants.be == pytest.approx(reference, rel=1e-2)
        assert fit_k.constants.be == pytest.approx(fit_p.constants.be, rel=1e-2)

    def test_unknown_kind_rejected(self, unit_molecule):
        with pytest.raises(DomainError):
            closed_form_table(unit_molecule, NO_DEFORMATION, "morse", 4, 4)


class TestBetaBound:
    def test_zero_gap_gives_zero_bound(self):
        m = synthetic_molecule(200.0)
        qn = QuantumNumbers(0, 0)
        from gupmol import kratzer_energy_undeformed

        e_theory = kratzer_energy_undeformed(m, qn) + m.de
        bound = fit_beta_bound(m, e_theory, qn, "kratzer")
        assert bound.beta_upper == 0.0
        assert bound.minimal_length_upper == 0.0

    def test_injected_beta_recovered(self):
        m = synthetic_molecule(200.0)
        qn = QuantumNumbers(0, 0)
        beta_true = 3.7e-5
        level = kratzer_energy_deformed(m, Deformation(beta_true), qn)
        bound = fit_beta_bound(m, level.total + m.de, qn, "kratzer")
        assert bound.beta_upper == pytest.approx(beta_true, rel=1e-6)

    def test_doubling_gap_scaling(self):
        m = synthetic_molecule(200.0)
        qn = QuantumNumbers(0, 0)
        from gupmol import kratzer_energy_undeformed

        e_theory = kratzer_energy_undeformed(m, qn) + m.de
        b1 = fit_beta_bound(m, e_theory + 1e-4, qn, "kratzer")
        b2 = fit_beta_bound(m, e_theory + 2e-4, qn, "kratzer")
        assert b2.beta_upper == pytest.approx(2.0 * b1.beta_upper, rel=1e-12)
        assert b2.minimal_length_upper == pytest.approx(
            math.sqrt(2.0) * b1.minimal_length_upper, rel=1e-12
        )

    def test_pho_route(self):
        m = synthetic_molecule(200.0)
        qn = QuantumNumbers(0, 0)
        from gupmol import pho_energy_deformed

        beta_true = 5e-6
        level = pho_energy_deformed(m, Deformation(beta_true), qn)
        bound = fit_beta_bound(m, level.total, qn, "pho")
        assert bound.beta_upper == pytest.approx(beta_true, rel=1e-6)

    def test_bound_consistency_enforced(self):
        with pytest.raises(DomainError):
            BetaBound(beta_upper=1.0, minimal_length_upper=1.0, basis="broken")


class TestDataFiles:
    def test_packaged_molecules(self):
        molecules = load_molecules(packaged_data_path("molecules.csv"))
        names = [m.name for m in molecules]
        assert names == ["H2", "H2-kratzer"]
        for m in molecules:
            assert gamma(m) > 1.0

    def test_packaged_levels(self):
        levels = load_levels(packaged_data_path("levels.csv"))
        assert {lvl.molecule for lvl in levels} == {"H2", "H2-kratzer"}
        for lvl in levels:
            assert lvl.energy == pytest.approx(2179.3 / 8065.543937, rel=1e-6)

    def test_example_record(self, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\nH2,4.7446,0.7416,0.50391\n")
        (molecule,) = load_molecules(path)
        g = gamma(molecule)
        assert math.isfinite(g) and g > 1.0

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\n")
        with pytest.warns(UserWarning, match="no records"):
            assert load_molecules(path) == []

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\nH2,4.7,0.74,0.5\nCO,abc,1.1,6.8\n")
        with pytest.raises(DataFormatError, match=r":3:"):
            load_molecules(path)

    def test_duplicate_name_reports_lineno(self, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\nH2,4.7,0.74,0.5\nH2,4.8,0.74,0.5\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_molecules(path)

    def test_unphysical_values_rejected(self, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\nH2,4.7,0.74,-0.5\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            load_molecules(path)

    def test_missing_file(self):
        with pytest.raises(DataFormatError, match="not found"):
            load_molecules("/nonexistent/molecules.csv")

    def test_levels_bad_unit(self, tmp_path):
        path = tmp_path / "levels.csv"
        path.write_text(
            "molecule,n,l,energy,unit,source\nH2,0,0,2179.3,kelvin,x\n"
        )
        with pytest.raises(DataFormatError, match=r":2:"):
            load_levels(path)

    def test_levels_bad_quantum_numbers(self, tmp_path):
        path = tmp_path / "levels.csv"
        path.write_text("molecule,n,l,energy,unit,source\nH2,-1,0,2179.3,cm-1,x\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            load_levels(path)
