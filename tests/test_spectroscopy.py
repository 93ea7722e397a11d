import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gupmol import (
    DataFormatError,
    Deformation,
    DomainError,
    FitError,
    LevelTable,
    Molecule,
    PerturbationWarning,
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
    pho_energy_deformed,
    pho_spectroscopic_constants,
    kratzer_spectroscopic_constants,
    synthetic_molecule,
)
from gupmol import core
from gupmol.kratzer import KRATZER
from gupmol.pho import PHO
from gupmol.spectroscopy import MODELS


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

    @pytest.mark.parametrize("levels", [
        # (0, 0) sorts first but repeats after (1, 2) does
        ((0, 0), (1, 2), (0, 1), (1, 2), (0, 0)),
        ((0, 0), (0, 1), (1, 2), (1, 2), (2, 0), (3, 1)),
        ((3, 1), (2, 0), (1, 2), (1, 2), (0, 1), (0, 0)),
        ((1, 2), (3, 1), (0, 0), (2, 0), (0, 1), (1, 2)),
    ], ids=["given", "sorted", "reversed", "shuffled"])
    def test_first_duplicate_named(self, levels):
        entries = tuple((QuantumNumbers(n, ell), 1.0) for n, ell in levels)
        with pytest.raises(DomainError, match=r"duplicate level \(n=1, ell=2\)"):
            LevelTable(molecule=None, entries=entries, provenance="experimental")

    def test_bad_provenance_rejected(self):
        with pytest.raises(DomainError):
            LevelTable(molecule=None, entries=(), provenance="guessed")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_level_named(self, bad):
        constants = SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05)
        entries = tuple((qn, bad if (qn.n, qn.ell) == (1, 0) else e)
                        for qn, e in table_from_constants(constants, 4, 2).entries)
        table = LevelTable(molecule=None, entries=entries, provenance="experimental")
        message = f"level (n=1, ell=0) has a non-finite energy ({bad}); cannot fit"
        with pytest.raises(FitError, match=re.escape(message)):
            fit_dunham(table)

    def test_energies_near_the_float_maximum(self):
        # max|E| is about 42 here, so the scaled table's largest energy is about 1.2e308:
        # scaling by a power of two changes no bit of the fit, and no sum overflows
        table = table_from_constants(SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05))
        scale = 2.0 ** 1018
        scaled = LevelTable(molecule=None, entries=tuple((qn, e * scale) for qn, e in table.entries),
                            provenance="experimental")
        fit, big = fit_dunham(table), fit_dunham(scaled)
        assert dataclasses.astuple(big.constants) == tuple(
            c * scale for c in dataclasses.astuple(fit.constants))
        assert (big.residual_max, big.residual_rms) == (fit.residual_max * scale,
                                                        fit.residual_rms * scale)

    def test_coverage_counted_on_unsorted_rows(self):
        constants = SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05)
        entries = list(table_from_constants(constants, n_max=2, l_max=40).entries)
        random.Random(3).shuffle(entries)
        table = LevelTable(molecule=None, entries=tuple(entries), provenance="experimental")
        assert len(set(table.n.tolist())) == 3
        with pytest.raises(FitError, match=re.escape("at least 4 distinct n (got 3)")):
            fit_dunham(table)


_NEED = "level table cannot determine all six constants; need "
# Entries tables that fit_dunham refuses, as (levels, the level given a nan energy,
# the whole message); "full" is fitted.
_TABLES = {
    "empty": ((), None, _NEED + "at least 6 levels (got 0); at least 4 distinct n (got 0); "
                               "at least 2 distinct ell (got 0)"),
    "five levels": (((0, 0), (1, 1), (2, 0), (3, 1), (4, 0)), None,
                    _NEED + "at least 6 levels (got 5)"),
    "three n": (tuple((n, ell) for n in range(3) for ell in range(4)), None,
                _NEED + "at least 4 distinct n (got 3)"),
    "one ell": (tuple((n, 0) for n in range(7)), None, _NEED + "at least 2 distinct ell (got 1)"),
    # every ell > 0 level has nu = 1/2, so nu L = L / 2
    "rank deficient": (((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2)), None,
                       "design matrix is rank deficient despite quantum-number coverage"),
    "non-finite": (tuple((n, ell) for n in range(5) for ell in range(3)), (1, 0),
                   "level (n=1, ell=0) has a non-finite energy (nan); cannot fit"),
    "full": (tuple((n, ell) for n in range(5) for ell in range(3)), None, None),
}


def _entries_table(case):
    levels, bad, _ = _TABLES[case]
    constants = SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05)
    qns = [QuantumNumbers(n, ell) for n, ell in levels]
    entries = tuple((qn, math.nan if (qn.n, qn.ell) == bad else master_energy(constants, qn))
                    for qn in qns)
    return LevelTable(molecule=None, entries=entries, provenance="experimental")


class TestRefusedTables:
    """A table fit_dunham refuses is still built, its basis factored without a
    LinAlgError, and the fit refuses it with the message of its first problem."""

    @pytest.mark.parametrize("case", [case for case, (*_, message) in _TABLES.items() if message])
    def test_built_and_refused(self, case):
        table = _entries_table(case)
        with pytest.raises(FitError) as caught:
            fit_dunham(table)
        assert str(caught.value) == _TABLES[case][2]

    @pytest.mark.parametrize("case", list(_TABLES))
    def test_rank_is_that_of_lstsq(self, case):
        table = _entries_table(case)
        nu, big_l = table.n + 0.5, table.ell * (table.ell + 1.0)
        design = np.column_stack([np.ones_like(nu), nu, -nu * nu, nu ** 3, big_l, -nu * big_l])
        rank = np.linalg.lstsq(design, np.zeros(len(nu)), rcond=None)[2]
        assert table._basis[2] == rank
        assert (table._basis[1] is None) == (rank < 6)


def _integer_basis(n, ell):
    """8 times the master basis (1, nu, -nu^2, nu^3, L, -nu L) of each level, in
    Python ints: with t = 2n + 1, nu = t / 2 and L = ell (ell + 1)."""
    rows = []
    for t, big_l in zip((2 * n + 1).tolist(), (ell * (ell + 1)).tolist()):
        rows.append((8, 4 * t, -2 * t * t, t * t * t, 8 * big_l, -4 * t * big_l))
    return rows


def _exact_fit(table):
    """The least-squares fit of the master basis to the table's float energies,
    exactly: integer normal equations solved in Fractions, and the residuals in
    integers over one denominator.  Returns the six constants (Fractions), the
    residuals' max and RMS (as floats), max|E| and max|A_j| per column."""
    rows = _integer_basis(table.n, table.ell)
    ratios = [x.as_integer_ratio() for x in table.energy.tolist()]
    denominator = max(d for _, d in ratios)  # a power of two, so each division is exact
    b = [p * (denominator // d) for p, d in ratios]
    # A = rows / 8 and E = b / denominator, so A^T A x = A^T E is
    # (rows^T rows) x = 8 rows^T b / denominator.
    system = [[Fraction(sum(r[i] * r[j] for r in rows)) for j in range(6)]
              + [Fraction(8 * sum(r[i] * bi for r, bi in zip(rows, b)), denominator)]
              for i in range(6)]
    for k in range(6):
        pivot = next(i for i in range(k, 6) if system[i][k])
        system[k], system[pivot] = system[pivot], system[k]
        for i in range(k + 1, 6):
            factor = system[i][k] / system[k][k]
            system[i] = [a - factor * c for a, c in zip(system[i], system[k])]
    x = [Fraction(0)] * 6
    for k in reversed(range(6)):
        x[k] = (system[k][6] - sum(system[k][j] * x[j] for j in range(k + 1, 6))) / system[k][k]
    # with D = common and x_j = X_j / (D denominator):
    # residual_i = (sum_j rows_ij X_j - 8 D b_i) / (8 D denominator)
    common = math.lcm(*(c.denominator for c in x))
    whole = [int(c * common * denominator) for c in x]
    scaled = [sum(a * c for a, c in zip(r, whole)) - 8 * common * bi for r, bi in zip(rows, b)]
    scale = 8 * common * denominator
    residual_max = float(Fraction(max(map(abs, scaled)), scale))
    residual_rms = math.sqrt(Fraction(sum(v * v for v in scaled), len(scaled) * scale * scale))
    column_max = [Fraction(max(abs(r[j]) for r in rows), 8) for j in range(6)]
    return x, residual_max, residual_rms, Fraction(float(np.abs(table.energy).max())), column_max


def _fit_errors(table):
    """fit_dunham's deviations from _exact_fit: each constant's |x - x*| scaled by
    max|E| / max|A_j|, the change of x_j that moves the fitted table by max|E| at
    most, then the residual max's and RMS's, each over max|E|."""
    fit = fit_dunham(table)
    x, residual_max, residual_rms, e_max, column_max = _exact_fit(table)
    constants = dataclasses.astuple(fit.constants)
    errors = [float(abs(Fraction(c) - e) * a / e_max) for c, e, a in zip(constants, x, column_max)]
    return errors + [abs(fit.residual_max - residual_max) / float(e_max),
                     abs(fit.residual_rms - residual_rms) / float(e_max)]


def _reordered(table, order):
    entries = list(table.entries)
    if order == "reversed":
        entries.reverse()
    else:
        random.Random(11).shuffle(entries)
    return LevelTable(molecule=table.molecule, entries=tuple(entries),
                      provenance=table.provenance)


@pytest.mark.filterwarnings("ignore::gupmol.PerturbationWarning")
class TestFitIsUnchanged:
    """fit_dunham is the exact least-squares fit of its table's float energies to
    within a bound per table shape, on kernel tables and on entries in any row
    order.  Each bound is below the worst error (see _fit_errors) that lstsq, the
    first solver, made on the test's cells of that shape: 2.0e-11 at 201 x 11,
    9.5e-13 at 11 x 201 and 4.7e-15 at 4 x 2, so a fit as far off as lstsq's worst
    fails."""

    BOUNDS = {(200, 10): 1e-13, (10, 200): 1e-13, (3, 1): 4.5e-15}

    @pytest.mark.parametrize("shape", [(200, 10), (10, 200), (3, 1)],
                             ids=["201x11", "11x201", "4x2"])
    @pytest.mark.parametrize("beta", [0.0, 4e-5])
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_closed_form_tables(self, kind, beta, shape):
        table = closed_form_table(synthetic_molecule(36.0), Deformation(beta), kind, *shape)
        errors = _fit_errors(table)
        assert max(errors) <= self.BOUNDS[shape], errors

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_entries_in_any_order(self, order):
        kernel = closed_form_table(synthetic_molecule(36.0), Deformation(4e-5), "kratzer", 200, 10)
        errors = _fit_errors(_reordered(kernel, order))
        assert max(errors) <= self.BOUNDS[200, 10], errors


class TestDuplicateCheck:
    """Entries are checked for repeats with one lexsort; kernel tables are not."""

    def test_kernel_table_and_fit_sort_nothing(self, lexsort_calls):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerturbationWarning)
            table = closed_form_table(synthetic_molecule(36.0), Deformation(4e-5), "kratzer",
                                      200, 10)
        fit_dunham(table)
        assert lexsort_calls == []

    def test_entries_sorted_once(self, lexsort_calls):
        table_from_constants(SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05))
        assert len(lexsort_calls) == 1


def _fit_values(table):
    fit = fit_dunham(table)
    return fit.constants, fit.residual_max, fit.residual_rms


@pytest.mark.filterwarnings("ignore::gupmol.PerturbationWarning")
class TestSharedGrid:
    """Tables of one (n_max, l_max) shape share one grid and one fit basis, read-only."""

    def test_tables_of_one_shape_share_their_columns_and_basis(self):
        tables = [closed_form_table(synthetic_molecule(g), Deformation(beta), kind, 30, 7)
                  for g in (36.0, 60.0) for beta in (0.0, 4e-5) for kind in ("kratzer", "pho")]
        first = tables[0]
        for table in tables[1:]:
            assert table.n is first.n
            assert table.ell is first.ell
            assert table._basis is first._basis
        n, ell, *_ = MODELS["pho"].table(synthetic_molecule(60.0), Deformation(4e-5), 30, 7)
        assert n is first.n and ell is first.ell

    @pytest.mark.parametrize("beta", [0.0, 4e-5])
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_shared_arrays_are_read_only(self, kind, beta):
        m = synthetic_molecule(36.0)
        table = closed_form_table(m, Deformation(beta), kind, 12, 3)
        n, ell, *_ = MODELS[kind].table(m, Deformation(beta), 5, 9)
        q_t, r_inv, *_ = table._basis
        for array in (table.n, table.ell, q_t, r_inv, n, ell):
            with pytest.raises(ValueError):
                array[0] = 7

    def test_a_kept_grid_holds_64_bytes_a_level(self):
        # the bound in the comment above core._grid, at the CLI's 201 x 201 cap: Q^T
        # takes the place of the design, and R^-1 is one 6 x 6 a shape
        *arrays, (q_t, r_inv, rank, distinct_n, distinct_l) = core._grid(200, 200)
        kept = sum(array.nbytes for array in (*arrays, q_t))
        assert q_t.shape == (6, 201 * 201)
        assert kept == 64 * 201 * 201 + 16 * 201 == 2_588_880
        assert r_inv.shape == (6, 6)
        assert (rank, distinct_n, distinct_l) == (6, 201, 201)

    def test_one_basis_for_ten_tables_of_a_shape(self, basis_builds):
        m = synthetic_molecule(36.0)
        for k in range(1, 11):
            fit_dunham(closed_form_table(m, Deformation(k * 1e-6), "kratzer", 200, 10))
        assert len(basis_builds) == 1

    def test_entries_table_builds_its_basis_once_when_built(self, basis_builds):
        table = table_from_constants(SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05))
        assert len(basis_builds) == 1
        assert _fit_values(table) == _fit_values(table)
        assert len(basis_builds) == 1

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_fit_is_the_same_from_any_cache_state(self, kind):
        m, d = synthetic_molecule(36.0), Deformation(4e-5)
        core._grid.cache_clear()
        cold_table = closed_form_table(m, d, kind, 200, 10)
        cold = _fit_values(cold_table)
        assert _fit_values(closed_form_table(m, d, kind, 200, 10)) == cold  # warm
        for k in range(core._grid.cache_parameters()["maxsize"]):
            closed_form_table(m, d, kind, 4 + k, 3)
        evicted = closed_form_table(m, d, kind, 200, 10)
        assert evicted.n is not cold_table.n and evicted._basis is not cold_table._basis
        assert _fit_values(evicted) == cold
        entries = LevelTable(molecule=m, entries=cold_table.entries,
                             provenance=cold_table.provenance)
        assert _fit_values(entries) == cold

    @pytest.mark.parametrize("shape, need", [
        ((2, 5), "at least 4 distinct n (got 3)"),
        ((5, 0), "at least 2 distinct ell (got 1)"),
        ((0, 4), "at least 6 levels (got 5); at least 4 distinct n (got 1)"),
        ((1, 1), "at least 6 levels (got 4); at least 4 distinct n (got 2)"),
        ((0, 0), "at least 6 levels (got 1); at least 4 distinct n (got 1); "
                 "at least 2 distinct ell (got 1)"),
    ])
    def test_coverage_messages_of_grid_and_entries_tables(self, shape, need):
        table = closed_form_table(synthetic_molecule(36.0), Deformation(0.0), "pho", *shape)
        entries = LevelTable(molecule=None, entries=table.entries, provenance="experimental")
        message = f"level table cannot determine all six constants; need {need}"
        for t in (table, entries):
            with pytest.raises(FitError) as caught:
                fit_dunham(t)
            assert str(caught.value) == message


class TestClosedFormTables:
    def test_energies_measured_from_minimum(self, unit_molecule):
        table = closed_form_table(unit_molecule, Deformation(0.0), "kratzer", 4, 4)
        ground = dict(((qn.n, qn.ell), e) for qn, e in table.entries)[(0, 0)]
        assert ground == pytest.approx(0.5, rel=1e-12)  # -0.5 shifted by +de

    def test_round_trip_recovers_dominant_constants(self):
        m = synthetic_molecule(200.0)
        fit = fit_dunham(closed_form_table(m, Deformation(0.0), "kratzer", 4, 4))
        exact = kratzer_spectroscopic_constants(m, Deformation(0.0))
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
        fit_k = fit_dunham(closed_form_table(m, Deformation(0.0), "kratzer", 4, 4))
        fit_p = fit_dunham(closed_form_table(m, Deformation(0.0), "pho", 4, 4))
        reference = m.de / gamma(m) ** 2
        assert fit_k.constants.be == pytest.approx(reference, rel=1e-2)
        assert fit_p.constants.be == pytest.approx(reference, rel=1e-2)
        assert fit_k.constants.be == pytest.approx(fit_p.constants.be, rel=1e-2)

    def test_unknown_kind_rejected(self, unit_molecule):
        with pytest.raises(DomainError):
            closed_form_table(unit_molecule, Deformation(0.0), "morse", 4, 4)


class TestColumns:
    """A table is its n, ell and energy columns; QuantumNumbers exist only at the edge."""

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    @pytest.mark.parametrize("beta", [0.0, 1e-6])
    def test_entries_round_trip_to_the_same_columns_and_fit(self, kind, beta):
        m = synthetic_molecule(60.0)
        table = closed_form_table(m, Deformation(beta), kind, 20, 7)
        again = LevelTable(molecule=m, entries=table.entries, provenance=table.provenance)
        for name in ("n", "ell", "energy"):
            assert np.array_equal(getattr(again, name), getattr(table, name))
        assert again.entries == table.entries
        fit, fit_again = fit_dunham(table), fit_dunham(again)
        assert fit_again.constants == fit.constants
        assert (fit_again.residual_max, fit_again.residual_rms) == (
            fit.residual_max, fit.residual_rms)

    def test_reading_entries_keeps_nothing(self):
        # the view is built on each read: a kept copy held about 390 kB here
        warm, table = (closed_form_table(synthetic_molecule(g), Deformation(0.0), "pho", 200, 10)
                       for g in (50.0, 60.0))
        tracemalloc.start()
        try:
            # fill the interpreter's tuple and float free lists with traced blocks; one
            # read may swap in only a few hundred, as the lists hand out their own first
            for _ in range(10):
                assert len(warm.entries) == 201 * 11
            before = tracemalloc.get_traced_memory()[0]
            assert len(table.entries) == 201 * 11
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 10_000

    def test_columns_are_read_only(self):
        table = closed_form_table(synthetic_molecule(60.0), Deformation(0.0), "pho", 4, 4)
        built = table_from_constants(SpectroscopicConstants(1.0, 2.0, 0.1, 0.01, 3.0, 0.05))
        for t in (table, built):
            for column in (t.n, t.ell, t.energy):
                with pytest.raises(ValueError):
                    column[0] = 7

    def test_undeformed_table_and_fit_build_no_quantum_numbers(self, qn_builds):
        m = synthetic_molecule(60.0)
        for kind in ("kratzer", "pho"):
            fit_dunham(closed_form_table(m, Deformation(0.0), kind, 200, 10))
        assert qn_builds == []

    def test_deformed_table_builds_one_per_flagged_table(self, qn_builds):
        m = synthetic_molecule(10.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = closed_form_table(m, Deformation(3e-3), "kratzer", 30, 30)
        (w,) = caught
        assert 0 < w.message.count < len(table.energy)
        assert len(qn_builds) == 1

    def test_tables_leave_at_most_one_registry_entry_each(self):
        # A fresh interpreter: the default warning filter, and an empty registry in the caller.
        script = (
            "from gupmol import Deformation, closed_form_table, synthetic_molecule\n"
            "m = synthetic_molecule(36.0)\n"
            "for k in range(1, 6):\n"
            "    closed_form_table(m, Deformation(k * 1e-3), 'kratzer', 30, 30)\n"
            "registry = globals().get('__warningregistry__', {})\n"
            "print(len([key for key in registry if key != 'version']))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert 0 < int(proc.stdout) <= 5

    @pytest.mark.parametrize("call", [
        lambda m, d: closed_form_table(m, d, "kratzer", 2, 2),
        lambda m, d: kratzer_energy_deformed(m, d, QuantumNumbers(0, 0)),
        lambda m, d: pho_energy_deformed(m, d, QuantumNumbers(0, 0)),
        lambda m, d: KRATZER.level(m, d, QuantumNumbers(0, 0)),
        lambda m, d: PHO.level(m, d, QuantumNumbers(0, 0)),
    ], ids=["closed_form_table", "kratzer_energy_deformed", "pho_energy_deformed",
            "KRATZER.level", "PHO.level"])
    def test_warning_points_at_the_caller(self, call, unit_molecule):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(unit_molecule, Deformation(0.5))
        assert caught
        # the line of the call itself, inside the lambda, not the line that runs the lambda
        where = {(w.filename, w.lineno) for w in caught}
        assert where == {(__file__, call.__code__.co_firstlineno)}
        assert all(issubclass(w.category, PerturbationWarning) for w in caught)


class TestBetaBound:
    def test_zero_gap_gives_zero_bound(self):
        m = synthetic_molecule(200.0)
        qn = QuantumNumbers(0, 0)
        # the theory level above the minimum, as the level table gives it
        ((_, e_theory),) = closed_form_table(m, Deformation(0.0), "kratzer", 0, 0).entries
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

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_minimal_length_is_that_of_the_bound(self, kind):
        m = synthetic_molecule(200.0)
        for gap in (0.0, 1e-9, 1e-4, 0.3):
            bound = fit_beta_bound(m, MODELS[kind].energies(m, 1, 2)[1] + gap,
                                   QuantumNumbers(1, 2), kind)
            assert bound.minimal_length_upper == Deformation(bound.beta_upper).minimal_length

    def test_fields_are_the_bound_and_its_basis(self):
        assert tuple(f.name for f in dataclasses.fields(BetaBound)) == ("beta_upper", "basis")
        bound = BetaBound(beta_upper=0.2, basis="given")
        assert bound.minimal_length_upper == Deformation(0.2).minimal_length


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
        for _ in range(2):  # on every call, not only on the one that parsed
            with pytest.warns(UserWarning, match="no records"):
                assert load_molecules(path) == []

    def test_each_call_returns_a_new_list(self, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\nH2,4.7,0.74,0.5\n")
        load_molecules(path).clear()
        assert [m.name for m in load_molecules(path)] == ["H2"]

    def test_unchanged_bytes_build_no_molecules(self, tmp_path, molecule_builds):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\nA,4.7,0.74,0.5\nB,4.8,0.74,0.5\n")
        first = load_molecules(path)
        assert len(molecule_builds) == 2
        assert load_molecules(path) == first
        assert len(molecule_builds) == 2
        path.write_text("name,De_eV,re_angstrom,mu_amu\nA,4.7,0.74,0.5\nB,4.9,0.74,0.5\n")
        assert load_molecules(path)[1].de == 4.9
        assert len(molecule_builds) == 4

    @pytest.mark.parametrize("data, names", [
        (b"\xef\xbb\xbfname,De_eV,re_angstrom,mu_amu\r\nH2,4.7,0.74,0.5\r\n", ["H2"]),
        (b"\xef\xbb\xbfH2,4.7,0.74,0.5\rCO,11.1,1.13,6.86\r\n\"N\r2\",9.8,1.1,7.0\n",
         ["H2", "CO", "N\r2"]),
    ], ids=["bom-crlf", "bom-headerless-mixed-newlines"])
    def test_bytes_are_decoded_as_a_text_mode_open(self, tmp_path, data, names):
        # decoded as utf-8-sig with newline="": the BOM is dropped and every
        # newline reaches the csv reader
        path = tmp_path / "molecules.csv"
        path.write_bytes(data)
        assert [m.name for m in load_molecules(path)] == names

    @pytest.mark.parametrize("load, filename", [
        (load_molecules, "molecules.csv"), (load_levels, "levels.csv"),
    ], ids=["molecules", "levels"])
    def test_packaged_file_saved_with_a_bom_loads_the_same(self, tmp_path, load, filename):
        # as a spreadsheet's "CSV UTF-8" saves it: a BOM before the first comment line
        packaged = packaged_data_path(filename)
        path = tmp_path / filename
        path.write_bytes(b"\xef\xbb\xbf" + packaged.read_bytes())
        assert load(path) == load(packaged)

    @pytest.mark.parametrize("load, data, field", [
        (load_molecules, b"H2,4.7446,0.74144,0.503913\n", "name"),
        (load_levels, b"H2,0,0,2179.3,cm-1,src\n", "molecule"),
    ], ids=["molecules", "levels"])
    def test_headerless_file_with_a_bom_names_its_first_record(self, tmp_path, load, data,
                                                                field):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + data)
        (record,) = load(path)
        assert getattr(record, field) == "H2"

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\nH2,4.7,0.74,0.5\nCO,abc,1.1,6.8\n")
        with pytest.raises(DataFormatError, match=r":3:"):
            load_molecules(path)

    @pytest.mark.parametrize("load, text, message", [
        (load_molecules, "H2,abc,0.74144,0.503913\n", ":1: field 'De_eV' is not a number"),
        (load_levels, "H2,x,0,2179.3,cm-1,src\n", ":1: n and l must be nonnegative integers"),
    ], ids=["molecules", "levels"])
    def test_headerless_first_row_with_a_bad_number_is_reported(self, tmp_path, load, text,
                                                                message):
        # a number in another numeric field makes the row data, not a header to skip
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load(path)

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
