import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import test_golden

from gupmol import (
    Deformation,
    DomainError,
    Molecule,
    PerturbationWarning,
    QuantumNumbers,
    closed_form_table,
    fit_beta_bound,
    gamma,
    kratzer_energy_deformed,
    kratzer_energy_undeformed,
    load_molecules,
    packaged_data_path,
    pho_energy_deformed,
    pho_energy_undeformed,
    synthetic_molecule,
)
from gupmol import cli
from gupmol.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    build_parser,
    main,
)
from gupmol.core import _per_ev
from gupmol.spectroscopy import MODELS


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "gupmol", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spectrum" in proc.stdout and "fit-beta" in proc.stdout


class TestSpectrum:
    def test_zero_beta_has_zero_shift_column(self, capsys):
        code, out, _ = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--synthetic", "1,1,1",
            "--nmax", "1", "--lmax", "0", "--units", "internal",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 2
        assert all(float(r["delta_e"]) == 0.0 for r in rows)

    def test_unit_molecule_known_shift(self, capsys):
        code, out, _ = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--synthetic", "1,1,1",
            "--beta", "1e-3", "--nmax", "0", "--lmax", "0", "--units", "internal",
        )
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["e0"]) == pytest.approx(-0.5, rel=1e-12)
        assert float(row["delta_e"]) == pytest.approx(1e-3, rel=1e-12)

    def test_byte_identical_reruns(self, capsys):
        argv = ["spectrum", "--potential", "pho", "--synthetic", "2,1.3,400",
                "--beta", "1e-6", "--nmax", "3", "--lmax", "2"]
        code1, out1, _ = run_main(capsys, *argv)
        code2, out2, _ = run_main(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_json_format_matches_csv_numbers(self, capsys):
        base = ["spectrum", "--potential", "kratzer", "--synthetic", "1,1,1",
                "--nmax", "1", "--lmax", "1", "--units", "eV"]
        _, out_csv, _ = run_main(capsys, *base, "--format", "csv")
        _, out_json, _ = run_main(capsys, *base, "--format", "json")
        payload = json.loads(out_json)
        csv_rows = parse_csv(out_csv)
        assert len(payload["levels"]) == len(csv_rows) == 4
        for row, level in zip(csv_rows, payload["levels"]):
            assert float(row["total"]) == pytest.approx(level["total"], rel=1e-12)

    def test_deterministic_ordering(self, capsys):
        _, out, _ = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--synthetic", "1,1,1",
            "--nmax", "1", "--lmax", "1",
        )
        rows = parse_csv(out)
        assert [(r["n"], r["l"]) for r in rows] == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]

    def test_min_length_flag_equivalent_to_beta(self, capsys):
        _, out_beta, _ = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--synthetic", "1,1,1",
            "--beta", "2e-05", "--nmax", "0", "--lmax", "0", "--units", "internal",
        )
        _, out_len, _ = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--synthetic", "1,1,1",
            "--min-length-angstrom", "0.01", "--nmax", "0", "--lmax", "0",
            "--units", "internal",
        )
        assert parse_csv(out_beta) == parse_csv(out_len)

    def test_mutually_exclusive_deformation_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "--potential", "kratzer", "--synthetic", "1,1,1",
                  "--beta", "1e-6", "--min-length-angstrom", "0.01"])
        assert excinfo.value.code == 2

    def test_nmax_cap(self, capsys):
        code, _, err = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--synthetic", "1,1,1",
            "--nmax", "9999",
        )
        assert code == EXIT_CONFIG
        assert "nmax" in err


class TestSpectrumRows:
    """spectrum builds every table one Model.level call at a time; its rows are
    Model.table's columns times the unit factor, bit for bit, and its warning
    line is the one Model.table's warning folds into."""

    # (nmax, lmax): square-ish and single-column tables of 16 to 20 levels, and
    # one of 2211 levels
    SHAPES = [(3, 3), (4, 3), (16, 0), (0, 16), (200, 10)]
    DEFORMATIONS = [[], ["--beta", "1e-2"], ["--min-length-angstrom", "0.01"]]
    # a lambda <= 3/2 pole (kratzer) and lambda <= 1 pole (pho), a slope that is
    # nan (its polynomial overflows at gamma 1e80), and a shift that overflows to inf
    EDGES = [
        ["--potential", "kratzer", "--synthetic", "1,1,0.1", "--beta", "1e-6"],
        ["--potential", "pho", "--synthetic", "1,1,0.1", "--beta", "1e-6"],
        ["--potential", "kratzer", "--synthetic", "1,1,5e159", "--beta", "1e-6"],
        ["--potential", "pho", "--synthetic", "1,1,1", "--beta", "1e308"],
    ]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
    @pytest.mark.parametrize("kind, molecule", [("kratzer", "H2-kratzer"), ("pho", "H2")])
    def test_rows_are_the_table_times_the_factor(self, capsys, kind, molecule, shape):
        (mol,) = [m for m in load_molecules(packaged_data_path("molecules.csv"))
                  if m.name == molecule]
        per_ev = _per_ev("internal")
        flagged = 0
        for deformation in self.DEFORMATIONS:
            code, out, err = run_main(capsys, "spectrum", "--potential", kind, "--molecule",
                                      molecule, "--nmax", str(shape[0]), "--lmax",
                                      str(shape[1]), "--units", "internal", "--format", "json",
                                      *deformation)
            assert code == EXIT_OK, err
            document = json.loads(out)  # JSON floats are reprs: the printed floats themselves
            with cli._summarize_warnings():
                n, ell, e0, _, de = MODELS[kind].table(mol, Deformation(document["meta"]["beta"]),
                                                       *shape)
            assert capsys.readouterr().err == err
            levels = document["levels"]
            assert [(row["n"], row["l"]) for row in levels] == list(zip(n.tolist(), ell.tolist()))
            printed = np.array([[row[k] for k in ("e0", "delta_e", "total")] for row in levels])
            expected = np.column_stack([e0 * per_ev, de * per_ev, (e0 + de) * per_ev])
            assert printed.tobytes() == expected.tobytes()
            flagged += "PerturbationWarning" in err
        assert flagged  # --beta 1e-2 trips the summary line

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
    @pytest.mark.parametrize("edge", EDGES, ids=["kratzer-pole", "pho-pole", "nan-shift",
                                                 "inf-shift"])
    def test_edges_are_refused(self, capsys, edge, shape):
        code, out, err = run_main(capsys, "spectrum", *edge, "--nmax", str(shape[0]),
                                  "--lmax", str(shape[1]))
        assert (code, out, len(err.splitlines())) == (EXIT_CONFIG, "", 1)


class TestConstants:
    def test_pho_zeros_printed_exactly(self, capsys):
        code, out, _ = run_main(
            capsys, "constants", "--potential", "pho", "--synthetic", "1,1,800",
            "--units", "internal",
        )
        assert code == EXIT_OK
        values = {r["constant"]: r["value"] for r in parse_csv(out)}
        assert values["wexe"] == "0"
        assert values["alphae"] == "0"
        assert values["weye"] == "0"

    def test_pho_zeros_are_positive_in_json(self, capsys):
        code, out, _ = run_main(capsys, "constants", "--potential", "pho", "--molecule", "H2",
                                "--format", "json")
        assert code == EXIT_OK
        assert "-0.0" not in out
        values = json.loads(out)["constants"]
        assert [math.copysign(1.0, values[k]) for k in ("wexe", "weye", "alphae")] == [1.0] * 3

    def test_rotational_constant_beta_independent(self, capsys):
        base = ["constants", "--potential", "kratzer", "--synthetic", "1,1,800",
                "--units", "internal"]
        _, out0, _ = run_main(capsys, *base)
        _, out1, _ = run_main(capsys, *base, "--beta", "1e-5")
        be0 = {r["constant"]: r["value"] for r in parse_csv(out0)}["be"]
        be1 = {r["constant"]: r["value"] for r in parse_csv(out1)}["be"]
        assert be0 == be1

    def test_fit_flag_reports_small_relative_differences(self, capsys):
        code, out, _ = run_main(
            capsys, "constants", "--potential", "kratzer", "--synthetic", "1,1,20000",
            "--fit", "--units", "internal",
        )
        assert code == EXIT_OK
        rows = {r["constant"]: r for r in parse_csv(out)}
        assert abs(float(rows["we"]["rel_diff"])) <= 1e-2
        assert abs(float(rows["be"]["rel_diff"])) <= 1e-2


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run_main(
            capsys, "verify", "--potential", "kratzer", "--gamma", "20",
            "--nmax", "1", "--lmax", "0", "--grid-points", "64",
        )
        assert code == EXIT_OK, err
        rows = parse_csv(out)
        assert len(rows) == 2
        assert all(r["status"] == "PASS" for r in rows)

    def test_coarse_grid_fails_with_nonzero_exit(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--potential", "kratzer", "--gamma", "20",
            "--nmax", "1", "--lmax", "0", "--grid-points", "16", "--levels", "2",
        )
        assert code == EXIT_VERIFY
        assert any(r["status"] == "FAIL" for r in parse_csv(out))

    def test_beta_zero_correction_cells_pass(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--potential", "kratzer", "--gamma", "20",
            "--nmax", "1", "--lmax", "0", "--beta", "0", "--grid-points", "64",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert all(float(r["de_rel_err"]) == 0.0 for r in rows)

    def test_default_gammas(self, capsys):
        code, out, err = run_main(
            capsys, "verify", "--potential", "kratzer", "--nmax", "0", "--lmax", "0",
        )
        assert code == EXIT_OK, err
        assert [float(r["gamma"]) for r in parse_csv(out)] == [20.0, 100.0]

    def test_beta_zero_skips_the_slope_pole(self, capsys):
        # gamma 0.5 pho: the slope has a pole, but at beta = 0 the shift is 0
        code, out, err = run_main(
            capsys, "verify", "--gamma", "0.5", "--beta", "0", "--potential", "pho",
            "--nmax", "0", "--lmax", "0",
        )
        assert code != EXIT_CONFIG, err
        (row,) = parse_csv(out)
        assert (row["potential"], row["gamma"], row["n"], row["l"]) == ("pho", "0.5", "0", "0")
        assert float(row["de_closed"]) == 0.0

    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_levels_below_one_is_config_error(self, capsys, levels):
        code, out, err = run_main(
            capsys, "verify", "--gamma", "20", "--nmax", "0", "--lmax", "0", "--levels", levels,
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error:") and "levels" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [
        ["--tol-energy", "nan"],
        ["--tol-correction", "-1"],
        ["--grid-points", "5"],
        ["--grid-points", "4096"],  # above the DVR size cap
        ["--rmax", "-1"],
    ])
    def test_sweep_configuration_is_checked_before_solving(self, capsys, flags):
        code, out, err = run_main(
            capsys, "verify", "--gamma", "20", "--nmax", "0", "--lmax", "0", *flags,
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1


class TestBlasThreads:
    """Only the process entry point pins OpenBLAS to one thread; main sets nothing.  Two
    threads print the bytes that the golden corpus recorded at one."""

    def test_main_leaves_the_environment_alone(self, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        code, _, err = run_main(capsys, "verify", "--gamma", "20", "--nmax", "0", "--lmax", "0")
        assert code == EXIT_OK, err
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    THREADED = {  # the DVR's dsyevr, and the QR and both products of a 201 x 11 fit
        "verify": ["verify", "--potential", "pho", "--gamma", "100", "--nmax", "2", "--lmax", "1"],
        "fit": ["constants", "--potential", "kratzer", "--molecule", "H2-kratzer", "--fit",
                "--nmax", "200", "--lmax", "10", "--beta", "1e-5"],
    }

    @pytest.fixture(scope="class")
    def two_threads(self):
        """Both commands' corpus entries as two BLAS threads give them, from one process."""
        return dict(zip(self.THREADED, test_golden.observe(list(self.THREADED.values()),
                                                           threads="2")))

    def _recorded(self, key):
        """The entry recorded at one BLAS thread in the golden corpus."""
        return next(entry for entry in test_golden.load() if entry["argv"] == self.THREADED[key])

    def test_verify_stdout_does_not_depend_on_the_thread_count(self, two_threads):
        assert two_threads["verify"] == self._recorded("verify")

    def test_fit_stdout_does_not_depend_on_the_thread_count(self, two_threads):
        assert two_threads["fit"] == self._recorded("fit")

    def test_entry_point_pins_unless_set(self, monkeypatch):
        monkeypatch.setattr(cli, "main", lambda: EXIT_OK)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        with pytest.raises(SystemExit):
            cli.entry_point()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        with pytest.raises(SystemExit):
            cli.entry_point()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"


class TestShallowWell:
    """gamma ~ 0.447: the shift formulas have poles there, the undeformed levels do not."""

    SYNTHETIC = "1,1,0.1"
    MOLECULE = Molecule(name="synthetic", de=1.0, re=1.0, mu=0.1)

    @pytest.mark.parametrize("kind, undeformed", [("kratzer", kratzer_energy_undeformed),
                                                  ("pho", pho_energy_undeformed)],
                             ids=["kratzer-kratzer_energy_undeformed", "pho-pho_energy_undeformed"])
    def test_spectrum_at_zero_beta(self, capsys, kind, undeformed):
        code, out, err = run_main(
            capsys, "spectrum", "--potential", kind, "--synthetic", self.SYNTHETIC,
            "--nmax", "1", "--lmax", "1", "--units", "internal", "--format", "json",
        )
        assert code == EXIT_OK, err
        levels = json.loads(out)["levels"]
        assert len(levels) == 4
        for level in levels:
            assert level["e0"] == undeformed(self.MOLECULE, QuantumNumbers(level["n"], level["l"]))
            assert level["delta_e"] == 0.0

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_constants_fit_at_zero_beta(self, capsys, kind):
        code, out, err = run_main(
            capsys, "constants", "--potential", kind, "--synthetic", self.SYNTHETIC, "--fit",
        )
        assert code == EXIT_OK, err
        assert len(parse_csv(out)) == 6

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_nonzero_beta_still_hits_the_pole(self, capsys, kind):
        code, out, err = run_main(
            capsys, "spectrum", "--potential", kind, "--synthetic", self.SYNTHETIC,
            "--beta", "1e-6", "--nmax", "0", "--lmax", "0",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "pole" in err

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_constants_refuse_the_pole_as_spectrum_does(self, capsys, kind):
        argv = ["--potential", kind, "--synthetic", self.SYNTHETIC, "--beta"]
        _, _, spectrum_err = run_main(capsys, "spectrum", *argv, "1e-3")
        assert run_main(capsys, "constants", *argv, "1e-3") == (EXIT_CONFIG, "", spectrum_err)
        code, out, err = run_main(capsys, "constants", *argv, "0")
        assert code == EXIT_OK, err
        assert len(parse_csv(out)) == 6

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_fit_beta_bound_keeps_the_pole_error(self, kind):
        with pytest.raises(DomainError, match="pole"):
            fit_beta_bound(self.MOLECULE, 0.5, QuantumNumbers(0, 0), kind)

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_pole_error_says_first_order_is_undefined(self, capsys, kind):
        wording = r"poles? .*<p\^4> diverges, so first order is undefined there"
        with pytest.raises(DomainError, match=wording):
            MODELS[kind].slope(self.MOLECULE, QuantumNumbers(0, 0))
        code, _, err = run_main(capsys, "spectrum", "--potential", kind, "--synthetic",
                                self.SYNTHETIC, "--beta", "1e-6")
        assert code == EXIT_CONFIG
        assert re.search(wording, err)


def test_potential_kinds_have_one_dispatch_point():
    from gupmol.verify import closed_vs_oracle_sweep

    m = synthetic_molecule(20.0)
    calls = [
        lambda: closed_form_table(m, Deformation(0.0), "morse", 1, 1),
        lambda: fit_beta_bound(m, 0.1, QuantumNumbers(0, 0), "morse"),
        lambda: closed_vs_oracle_sweep(potentials=("kratzer", "morse"), gammas=(20.0,)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"unknown potential kind 'morse'.*'kratzer', 'pho'"):
            call()

    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {"spectrum", "constants", "verify", "fit-beta"}
    for command in commands.choices.values():
        (potential,) = [a for a in command._actions if "--potential" in a.option_strings]
        assert tuple(potential.choices) == tuple(MODELS)


class TestPerturbationWarningSummary:
    ARGV = ["spectrum", "--potential", "pho", "--molecule", "H2-kratzer", "--beta", "1e-5",
            "--nmax", "40", "--lmax", "40"]

    def test_one_stderr_line_with_count_and_worst_level(self, capsys):
        code, out, err = run_main(capsys, *self.ARGV)
        assert code == EXIT_OK
        assert len(parse_csv(out)) == 41 * 41
        (line,) = err.splitlines()
        assert line.startswith("warning: ")
        assert "PerturbationWarning" in line

        (molecule,) = [m for m in load_molecules(packaged_data_path("molecules.csv"))
                       if m.name == "H2-kratzer"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for n in range(41):
                for ell in range(41):
                    pho_energy_deformed(molecule, Deformation(1e-5), QuantumNumbers(n, ell))
        flagged = [w.message for w in caught if issubclass(w.category, PerturbationWarning)]
        assert 0 < len(flagged) < 41 * 41
        worst = max(flagged, key=lambda w: w.ratio)
        assert f"warning: {len(flagged)} levels " in line
        assert f"worst n={worst.qn.n} l={worst.qn.ell} " in line

    class WarningsStandIn:
        """Delegates every read to ``warnings``, as a tracer's wrapper of it does."""

        def __getattr__(self, name):
            return getattr(warnings, name)

    def test_golden_stderr_with_warnings_replaced(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "warnings", self.WarningsStandIn())
        code, _, err = run_main(capsys, "spectrum", "--potential", "kratzer", "--synthetic",
                                "1,1,3", "--beta", "1e-1", "--nmax", "1", "--lmax", "1")
        assert code == EXIT_OK
        assert err == ("warning: 4 levels have a first-order shift above 0.1 of the level "
                       "(PerturbationWarning); worst n=1 l=0 with |delta_e|/|e0| = 0.27\n")

    def test_constants_fit_summarized(self, capsys):
        code, _, err = run_main(
            capsys, "constants", "--potential", "pho", "--molecule", "H2-kratzer",
            "--beta", "1e-2", "--fit", "--nmax", "4", "--lmax", "4",
        )
        assert code == EXIT_OK
        (line,) = err.splitlines()
        assert line.startswith("warning: ") and "PerturbationWarning" in line

    def test_other_warnings_pass_through(self, capsys, monkeypatch):
        check_caps = cli._check_caps

        def warn_then_check(args):
            warnings.warn("a note from the library")
            check_caps(args)

        monkeypatch.setattr(cli, "_check_caps", warn_then_check)
        code, _, err = run_main(capsys, *self.ARGV)
        assert code == EXIT_OK
        note, summary = err.splitlines()
        assert note == "warning: a note from the library"
        assert summary.startswith("warning: ") and "PerturbationWarning" in summary

    def test_library_still_warns_per_level(self, unit_molecule):
        with pytest.warns(PerturbationWarning) as record:
            level = kratzer_energy_deformed(unit_molecule, Deformation(0.06),
                                            QuantumNumbers(0, 0))
        (w,) = record
        assert w.message.qn == QuantumNumbers(0, 0)
        assert w.message.ratio == pytest.approx(abs(level.de / level.e0))


class TestFitBeta:
    def test_packaged_h2_bound_order_of_magnitude(self, capsys):
        code, out, _ = run_main(
            capsys, "fit-beta", "--molecule", "H2-kratzer", "--potential", "kratzer",
        )
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert 1e-3 <= float(row["min_length_upper_A"]) <= 0.1

    def test_injected_beta_round_trip(self, capsys):
        m = synthetic_molecule(200.0)
        beta_true = 2.5e-5
        level = kratzer_energy_deformed(m, Deformation(beta_true), QuantumNumbers(0, 0))
        e_exp = level.total + m.de
        code, out, _ = run_main(
            capsys, "fit-beta", "--synthetic", f"{m.de!r},{m.re!r},{m.mu!r}",
            "--potential", "kratzer", "--e-exp", f"{e_exp!r}", "--units", "eV",
        )
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["beta_upper_A2"]) == pytest.approx(beta_true, rel=1e-6)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_e_exp_is_config_error(self, capsys, value):
        code, out, err = run_main(capsys, "fit-beta", "--molecule", "H2-kratzer",
                                  "--e-exp", value)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: e_exp must be finite")

    def test_unknown_molecule_is_data_error(self, capsys):
        code, _, err = run_main(capsys, "fit-beta", "--molecule", "XYZ")
        assert code == EXIT_DATA
        assert "XYZ" in err

    def test_missing_level_is_data_error(self, capsys):
        code, _, err = run_main(
            capsys, "fit-beta", "--molecule", "H2-kratzer", "--n", "5", "--l", "0"
        )
        assert code == EXIT_DATA
        assert "n=5" in err


class TestDataDirEnv:
    def test_env_var_overrides_packaged_data(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "molecules.csv").write_text(
            "name,De_eV,re_angstrom,mu_amu\nFAKE,1.0,1.0,1.0\n"
        )
        monkeypatch.setenv("GUPMOL_DATA_DIR", str(tmp_path))
        code, out, _ = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--molecule", "FAKE",
            "--nmax", "0", "--lmax", "0",
        )
        assert code == EXIT_OK
        assert "molecule=FAKE" in out

    def test_env_var_misses_known_molecule(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "molecules.csv").write_text(
            "name,De_eV,re_angstrom,mu_amu\nFAKE,1.0,1.0,1.0\n"
        )
        monkeypatch.setenv("GUPMOL_DATA_DIR", str(tmp_path))
        code, _, err = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--molecule", "H2",
            "--nmax", "0", "--lmax", "0",
        )
        assert code == EXIT_DATA
        assert "H2" in err


class TestRepeatedCalls:
    """main keeps one parser per process and load_molecules one parse per file content;
    neither may change what a call prints."""

    # usage errors first, so the valid calls run on a parser that has failed
    SEQUENCE = [
        ["spectrum", "--potential", "morse", "--synthetic", "1,1,1"],
        ["spectrum", "--potential", "kratzer", "--synthetic", "1,1,1", "--beta", "1e-6",
         "--min-length-angstrom", "0.01"],
        ["spectrum", "--potential", "pho", "--molecule", "H2", "--beta", "1e-6"],
        ["constants", "--potential", "kratzer", "--molecule", "H2-kratzer", "--fit"],
        ["fit-beta", "--molecule", "H2-kratzer", "--format", "json"],
        ["verify", "--potential", "pho", "--gamma", "100", "--nmax", "1", "--lmax", "1"],
    ]

    @staticmethod
    def run_sequence(capsys):
        results = []
        for argv in TestRepeatedCalls.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            # the one line that is not a function of the input
            err = re.sub(r"verify runtime: \S+ s", "verify runtime: T s", captured.err)
            results.append((code, captured.out, err))
        return results

    def test_shared_parser_prints_what_a_fresh_one_prints(self, capsys, monkeypatch):
        shared = self.run_sequence(capsys)
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = self.run_sequence(capsys)
        assert [result[0] for result in shared] == [
            ("SystemExit", 2), ("SystemExit", 2), EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
        for argv, got, expected in zip(self.SEQUENCE, shared, fresh):
            assert got == expected, argv

    def test_twenty_calls_build_one_parser(self, capsys, parser_builds):
        for k in range(20):
            main(["spectrum", "--potential", "kratzer", "--synthetic", f"1,1,{k + 1}",
                  "--nmax", "0", "--lmax", "0"])
        capsys.readouterr()
        assert len(parser_builds) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    @staticmethod
    def write_catalogue(path, de_ev):
        path.write_text(f"name,De_eV,re_angstrom,mu_amu\nX,{de_ev},0.74144,0.503913\n")

    def test_same_size_edit_under_the_old_mtime_is_seen(self, capsys, tmp_path):
        path = tmp_path / "molecules.csv"
        argv = ["spectrum", "--potential", "kratzer", "--molecule", "X",
                "--molecules-file", str(path), "--nmax", "0", "--lmax", "0"]
        self.write_catalogue(path, "4.7446")
        before = os.stat(path)
        assert run_main(capsys, *argv)[0] == EXIT_OK
        self.write_catalogue(path, "5.7446")  # one digit of De_eV: the same size
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        code, out, _ = run_main(capsys, *argv)
        assert code == EXIT_OK
        edited = Molecule.from_spectroscopic("X", 5.7446, 0.74144, 0.503913)
        assert f"# gamma={cli._fmt(gamma(edited))}\n" in out

    def test_malformed_row_fails_alike_until_fixed(self, capsys, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_text("name,De_eV,re_angstrom,mu_amu\nX,abc,0.74144,0.503913\n")
        argv = ["spectrum", "--potential", "kratzer", "--molecule", "X",
                "--molecules-file", str(path)]
        first, second = run_main(capsys, *argv), run_main(capsys, *argv)
        assert first == second
        assert first[:2] == (EXIT_DATA, "")
        assert first[2] == f"data error: {path}:2: field 'De_eV' is not a number: 'abc'\n"
        self.write_catalogue(path, "4.7446")
        assert run_main(capsys, *argv)[0] == EXIT_OK


class TestExitCodes:
    """Every failure ends in its documented exit code and one stderr line."""

    @pytest.mark.parametrize("argv, expected", [
        # float ** overflows on inputs beyond the formulas' range
        (["spectrum", "--potential", "kratzer", "--synthetic", "1,1,1e300", "--beta", "1e-10"],
         EXIT_CONFIG),
        (["constants", "--potential", "pho", "--synthetic", "1,1,1e300", "--beta", "1e-10",
          "--fit"], EXIT_CONFIG),
        (["fit-beta", "--potential", "kratzer", "--synthetic", "1,1,1e300", "--e-exp", "1",
          "--units", "eV"], EXIT_CONFIG),
        (["spectrum", "--potential", "kratzer", "--synthetic", "1,1e200,1"], EXIT_CONFIG),
        (["verify", "--gamma", "1e200"], EXIT_CONFIG),
        (["verify", "--gamma", "1e300", "--nmax", "0", "--lmax", "0"], EXIT_CONFIG),
        (["verify", "--gamma", "1e-300", "--nmax", "0", "--lmax", "0"], EXIT_CONFIG),
        # a closed-form shift that is nan: the Kratzer slope overflows from gamma ~ 4e76
        (["verify", "--gamma", "1e100", "--nmax", "0", "--lmax", "0"], EXIT_CONFIG),
        (["verify", "--gamma", "1e154", "--nmax", "0", "--lmax", "0"], EXIT_CONFIG),
        # a nan shift after a valid gamma: refused before that gamma is solved
        (["verify", "--potential", "kratzer", "--gamma", "20", "--gamma", "1e80", "--nmax", "4",
          "--lmax", "3"], EXIT_CONFIG),
        # no size of the ladder has a point for each of the 101 states
        (["verify", "--gamma", "20", "--nmax", "100", "--lmax", "0", "--grid-points", "16",
          "--levels", "3"], EXIT_CONFIG),
        # a level and slope that are nan: inf / inf
        (["fit-beta", "--synthetic", "1,1e200,1", "--e-exp", "1"], EXIT_CONFIG),
        # gamma so small that gamma^3 (series) or gamma^2 (pho slope) is 0.0
        (["constants", "--potential", "kratzer", "--synthetic", "1,1,1e-245"], EXIT_CONFIG),
        # gamma so large that gamma^3 (series) is beyond float range
        (["constants", "--potential", "kratzer", "--synthetic", "1,1e120,1"], EXIT_CONFIG),
        (["constants", "--potential", "pho", "--synthetic", "1,1e120,1"], EXIT_CONFIG),
        (["fit-beta", "--potential", "pho", "--synthetic", "1,1e-300,1", "--l", "1",
          "--e-exp", "1", "--units", "eV"], EXIT_CONFIG),
        # a shift, a constant or a bound that overflows to inf: never printed
        (["spectrum", "--potential", "kratzer", "--synthetic", "1,1,1", "--beta", "1e308"],
         EXIT_CONFIG),
        (["constants", "--potential", "kratzer", "--synthetic", "1,1,1", "--beta", "1e308",
          "--fit"], EXIT_CONFIG),
        (["fit-beta", "--potential", "kratzer", "--synthetic", "1,1,100", "--e-exp", "1e308",
          "--units", "eV"], EXIT_CONFIG),
        # a fitted constant that overflows in the conversion to cm-1
        (["constants", "--potential", "kratzer", "--synthetic", "1,1,100", "--beta", "1e304",
          "--fit", "--nmax", "200", "--lmax", "200"], EXIT_CONFIG),
        # a directory where a data file is expected
        (["spectrum", "--potential", "kratzer", "--molecule", "H2", "--molecules-file", "{dir}"],
         EXIT_DATA),
        (["fit-beta", "--molecule", "H2-kratzer", "--levels-file", "{dir}"], EXIT_DATA),
        # an empty path is given, so it is not the packaged default
        (["spectrum", "--potential", "kratzer", "--molecule", "H2", "--molecules-file", ""],
         EXIT_DATA),
        (["fit-beta", "--molecule", "H2-kratzer", "--levels-file", ""], EXIT_DATA),
        # a catalogue without records, whose library warning is not a second line
        (["spectrum", "--potential", "kratzer", "--molecule", "A", "--molecules-file",
          "{dir}/empty.csv"], EXIT_DATA),
        (["spectrum", "--potential", "kratzer", "--molecule", "A", "--molecules-file",
          "{dir}/header.csv"], EXIT_DATA),
    ], ids=["spectrum-large-mu", "constants-fit-large-mu", "fit-beta-large-mu", "spectrum-large-re",
            "verify-large-gamma", "verify-huge-gamma", "verify-tiny-gamma",
            "verify-nan-shift", "verify-nan-shift-large-mu", "verify-late-nan-shift",
            "verify-no-size-holds-the-states",
            "fit-beta-nan-slope", "constants-tiny-gamma", "fit-beta-tiny-gamma",
            "constants-huge-gamma-kratzer", "constants-huge-gamma-pho",
            "spectrum-inf-shift", "constants-fit-inf", "fit-beta-inf-length",
            "constants-fit-inf-in-cm1",
            "molecules-file-dir", "levels-file-dir", "molecules-file-empty",
            "levels-file-empty", "empty-catalogue", "header-only-catalogue"])
    def test_one_line_error(self, capsys, recwarn, tmp_path, argv, expected):
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "header.csv").write_text("name,De_eV,re_angstrom,mu_amu,source\n")
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        code, out, err = run_main(capsys, *argv)
        assert code == expected
        assert out == ""
        assert len(err.splitlines()) == 1
        # a warning that reaches the test runner, a numpy RuntimeWarning or the
        # empty catalogue's, would be a second stderr line outside it
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("lmax", ["0", "1"])
    def test_overflowing_solve_fails_without_numpy_warnings(self, capsys, lmax):
        # finite closed forms, so the cells are solved; every solve overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_main(capsys, "verify", "--gamma", "1.2e154", "--beta", "0",
                                    "--nmax", "0", "--lmax", lmax)
        assert code == EXIT_VERIFY
        assert all(row["status"] == "FAIL" for row in parse_csv(out))
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_large_gamma_at_zero_beta_still_prints(self, capsys):
        code, out, _ = run_main(capsys, "spectrum", "--potential", "kratzer",
                                "--synthetic", "1,1,1e200", "--beta", "0")
        assert code == EXIT_OK
        assert len(parse_csv(out)) == 12

    def test_non_utf8_data_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "molecules.csv"
        path.write_bytes(b"name,De_eV,re_angstrom,mu_amu\nH2,\xff\xfe,1,1\n")
        code, out, err = run_main(capsys, "spectrum", "--potential", "kratzer",
                                  "--molecule", "H2", "--molecules-file", str(path))
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("data error:") and "UTF-8" in err

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), np.linalg.LinAlgError("boom")])
    def test_unexpected_exception_is_one_line_internal_error(self, capsys, monkeypatch, exc):
        def broken(args):
            raise exc

        # the kept parser holds cmd_spectrum itself, so the patch goes on a call it makes
        monkeypatch.setattr(cli, "_check_caps", broken)
        code, out, err = run_main(capsys, "spectrum", "--potential", "kratzer",
                                  "--synthetic", "1,1,1")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: boom\n"
