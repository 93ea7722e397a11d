import argparse
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

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
    ENERGY_UNITS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    build_parser,
    main,
)
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

    def test_table_at_the_cap_builds_no_quantum_numbers(self, capsys, qn_builds):
        code, out, _ = run_main(
            capsys, "spectrum", "--potential", "kratzer", "--molecule", "H2",
            "--beta", "0", "--nmax", "200", "--lmax", "200",
        )
        assert code == EXIT_OK
        assert len(parse_csv(out)) == 201 * 201
        assert qn_builds == []


class TestSizeRule:
    """spectrum builds up to cli.PER_LEVEL_MAX levels one at a time and larger tables
    as one Model.table call; on either side of the rule both print the same bytes."""

    # (nmax, lmax): PER_LEVEL_MAX levels, the most built one at a time, then the
    # fewest built as one table, each as a square-ish and as a single-column table
    SHAPES = [(3, 3), (4, 3), (15, 0), (16, 0), (0, 16)]
    DEFORMATIONS = [[], ["--beta", "1e-2"], ["--min-length-angstrom", "0.01"]]
    # a lambda <= 3/2 pole (kratzer) and lambda <= 1 pole (pho), a slope that is
    # nan (inf / inf), and a shift that overflows to inf
    EDGES = [
        ["--potential", "kratzer", "--synthetic", "1,1,0.1", "--beta", "1e-6"],
        ["--potential", "pho", "--synthetic", "1,1,0.1", "--beta", "1e-6"],
        ["--potential", "kratzer", "--synthetic", "1,1,5e103", "--beta", "1e-6"],
        ["--potential", "pho", "--synthetic", "1,1,1", "--beta", "1e308"],
    ]

    @staticmethod
    def both_ways(capsys, monkeypatch, argv):
        """(exit code, stdout, stderr) with every table built one level at a time,
        then with every table built by Model.table."""
        results = []
        for per_level_max in (cli.QN_CAP ** 3, 0):
            monkeypatch.setattr(cli, "PER_LEVEL_MAX", per_level_max)
            results.append(run_main(capsys, *argv))
        return results

    def test_shapes_straddle_the_rule(self):
        sizes = [(n + 1) * (ell + 1) for n, ell in self.SHAPES]
        rule = cli.PER_LEVEL_MAX
        assert sizes == [rule, rule + 4, rule, rule + 1, rule + 1]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
    @pytest.mark.parametrize("kind, molecule", [("kratzer", "H2-kratzer"), ("pho", "H2")])
    def test_both_ways_print_the_same(self, capsys, monkeypatch, kind, molecule, shape):
        flagged = 0
        for fmt, unit, deformation in itertools.product(("csv", "json"), ENERGY_UNITS,
                                                        self.DEFORMATIONS):
            argv = ["spectrum", "--potential", kind, "--molecule", molecule,
                    "--nmax", str(shape[0]), "--lmax", str(shape[1]), "--units", unit,
                    "--format", fmt, *deformation]
            per_level, table = self.both_ways(capsys, monkeypatch, argv)
            assert per_level == table, argv
            assert per_level[0] == EXIT_OK, argv
            flagged += "PerturbationWarning" in per_level[2]
        assert flagged  # --beta 1e-2 trips the summary line

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
    @pytest.mark.parametrize("edge", EDGES, ids=["kratzer-pole", "pho-pole", "nan-shift",
                                                 "inf-shift"])
    def test_both_ways_refuse_the_same(self, capsys, monkeypatch, edge, shape):
        argv = ["spectrum", *edge, "--nmax", str(shape[0]), "--lmax", str(shape[1])]
        per_level, table = self.both_ways(capsys, monkeypatch, argv)
        assert per_level == table
        code, out, err = per_level
        assert (code, out, len(err.splitlines())) == (EXIT_CONFIG, "", 1)

    def test_pole_and_overflow_lines(self, capsys):
        kratzer_pole, _, nan_shift, _ = self.EDGES
        _, _, err = run_main(capsys, "spectrum", *kratzer_pole)
        assert err.startswith("error: correction formula has poles for lambda <= 3/2")
        assert "got lambda = 1.17" in err and "ell = 0)" in err
        _, _, err = run_main(capsys, "spectrum", *nan_shift)
        assert err == "error: delta_e = nan is out of floating-point range for these inputs\n"


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
    """Only the process entry point pins OpenBLAS to one thread; main sets nothing."""

    def test_main_leaves_the_environment_alone(self, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        code, _, err = run_main(capsys, "verify", "--gamma", "20", "--nmax", "0", "--lmax", "0")
        assert code == EXIT_OK, err
        assert "OPENBLAS_NUM_THREADS" not in os.environ

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

    def test_verify_stdout_does_not_depend_on_the_thread_count(self):
        argv = [sys.executable, "-m", "gupmol", "verify", "--potential", "pho", "--gamma", "100",
                "--nmax", "2", "--lmax", "1"]
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(argv, capture_output=True,
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestShallowWell:
    """gamma ~ 0.447: the shift formulas have poles there, the undeformed levels do not."""

    SYNTHETIC = "1,1,0.1"
    MOLECULE = Molecule(name="synthetic", de=1.0, re=1.0, mu=0.1)

    @pytest.mark.parametrize("kind, undeformed", [("kratzer", kratzer_energy_undeformed),
                                                  ("pho", pho_energy_undeformed)])
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

    @pytest.mark.parametrize("argv, line", [
        (["spectrum", "--potential", "pho", "--molecule", "H2-kratzer", "--nmax", "200",
          "--lmax", "200", "--beta", "1e-5"],
         "warning: 37419 levels have a first-order shift above 0.1 of the level "
         "(PerturbationWarning); worst n=200 l=200 with |delta_e|/|e0| = 0.596\n"),
        (["constants", "--potential", "pho", "--molecule", "H2-kratzer", "--beta", "1e-2",
          "--fit", "--nmax", "40", "--lmax", "40"],
         "warning: 1681 levels have a first-order shift above 0.1 of the level "
         "(PerturbationWarning); worst n=40 l=40 with |delta_e|/|e0| = 113\n"),
    ], ids=["spectrum-at-the-cap", "constants-fit"])
    def test_golden_stderr(self, capsys, argv, line):
        code, _, err = run_main(capsys, *argv)
        assert code == EXIT_OK
        assert err == line

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

    def test_import_builds_no_parser(self):
        code = "import gupmol.cli as cli; print(cli._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "0\n")

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
        # a closed-form shift that is nan: the slope kernels overflow from gamma ~ 1e51
        (["verify", "--gamma", "1e100", "--nmax", "0", "--lmax", "0"], EXIT_CONFIG),
        (["verify", "--gamma", "1e154", "--nmax", "0", "--lmax", "0"], EXIT_CONFIG),
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
            "verify-nan-shift", "verify-nan-shift-large-mu",
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

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_series_overflow_names_gamma(self, capsys, kind):
        code, _, err = run_main(capsys, "constants", "--potential", kind,
                                "--synthetic", "1,1e120,1")
        assert code == EXIT_CONFIG
        assert err.startswith("error: gamma = 1.414213562373095e+120 is too large for the "
                              "1/gamma series of 'synthetic'")

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--gamma", "1e300", "--nmax", "0", "--lmax", "0"],
         "error: gamma = 1e+300 is out of range for de = 1.0 and re = 1.0: the reduced mass "
         "it needs is inf in floats\n"),
        (["verify", "--gamma", "1e-300", "--nmax", "0", "--lmax", "0"],
         "error: gamma = 1e-300 is out of range for de = 1.0 and re = 1.0: the reduced mass "
         "it needs is 0.0 in floats\n"),
        (["fit-beta", "--synthetic", "1,1e200,1", "--e-exp", "1"],
         "error: level (n=0, ell=0) of 'synthetic' at gamma = 1.414213562373095e+200 is out "
         "of floating-point range (level nan eV, slope nan eV per unit beta); cannot bound beta\n"),
        # an infinite slope, which would bound beta by 0
        (["fit-beta", "--potential", "pho", "--synthetic", "1,1e-160,1", "--l", "1",
          "--e-exp", "1"],
         "error: level (n=0, ell=1) of 'synthetic' at gamma = 1.4142135623730952e-160 is out "
         "of floating-point range (level 3.535533905932737e+160 eV, slope inf eV per unit "
         "beta); cannot bound beta\n"),
        (["verify", "--gamma", "1e154", "--nmax", "0", "--lmax", "0"],
         "error: closed-form level (n=0, ell=0) of kratzer at gamma = 1e+154 is out of "
         "floating-point range (level -1.0, shift nan); cannot verify it\n"),
    ], ids=["verify-huge-gamma", "verify-tiny-gamma", "fit-beta-nan-slope", "fit-beta-inf-slope",
            "verify-nan-shift"])
    def test_out_of_range_input_is_named(self, capsys, argv, message):
        assert run_main(capsys, *argv) == (EXIT_CONFIG, "", message)

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

    def test_unparsable_synthetic_is_config_error(self, capsys):
        code, out, err = run_main(capsys, "spectrum", "--potential", "kratzer",
                                  "--synthetic", "1,1,x")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: could not convert string to float: 'x'\n"

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


# Expected stdout, written from the output of the per-format emitters that
# preceded ``cli._emit``.  The verify cells never converge (one solve), so
# their oracle columns are nan/inf and no digit depends on LAPACK.
SPECTRUM_CSV = """\
# potential=kratzer
# molecule=synthetic
# gamma=1.41421356237
# beta=0.001
# min_length_angstrom=0.0707106781187
# units=internal
n,l,e0,delta_e,total
0,0,-0.5,0.001,-0.499
0,1,-0.304805898399,0.000259945566443,-0.304545952832
1,0,-0.222222222222,0.000460905349794,-0.221761316872
1,1,-0.157670780787,0.000170395305352,-0.157500385481
"""

SPECTRUM_JSON = """\
{
  "levels": [
    {
      "delta_e": 0.0010000000000000005,
      "e0": -0.5000000000000001,
      "l": 0,
      "n": 0,
      "total": -0.4990000000000001
    },
    {
      "delta_e": 0.0002599455664426703,
      "e0": -0.30480589839889627,
      "l": 1,
      "n": 0,
      "total": -0.3045459528324536
    },
    {
      "delta_e": 0.0004609053497942389,
      "e0": -0.22222222222222227,
      "l": 0,
      "n": 1,
      "total": -0.22176131687242803
    },
    {
      "delta_e": 0.0001703953053521863,
      "e0": -0.15767078078675462,
      "l": 1,
      "n": 1,
      "total": -0.15750038548140244
    }
  ],
  "meta": {
    "beta": 0.001,
    "gamma": 1.4142135623730951,
    "min_length_angstrom": 0.07071067811865475,
    "molecule": "synthetic",
    "potential": "kratzer",
    "units": "internal"
  }
}
"""

CONSTANTS_CSV = """\
# potential=pho
# molecule=synthetic
# gamma=1.41421356237
# beta=0.001
# units=cm-1
constant,value
y00,1032.38962398
we,22847.0224531
wexe,-96.7865272482
weye,0
be,4032.77196867
alphae,-45.6256064965
"""

CONSTANTS_JSON = """\
{
  "constants": {
    "alphae": -45.62560649646138,
    "be": 4032.7719686746045,
    "we": 22847.02245310304,
    "wexe": -96.78652724819051,
    "weye": 0.0,
    "y00": 1032.3896239806988
  },
  "meta": {
    "beta": 0.001,
    "gamma": 1.4142135623730951,
    "molecule": "synthetic",
    "potential": "pho",
    "units": "cm-1"
  }
}
"""

FIT_BETA_CSV = """\
# basis=full |experiment - theory(beta=0)| gap of 5.000000e-01 eV for 'synthetic' (n=0, ell=0, kratzer) attributed to the deformation shift (1.000000e+00 eV per unit beta)
# experimental_source=command line
molecule,potential,n,l,e_exp_eV,beta_upper_A2,min_length_upper_A
synthetic,kratzer,0,0,1,0.5,1.58113883008
"""

FIT_BETA_JSON = """\
{
  "basis": "full |experiment - theory(beta=0)| gap of 5.000000e-01 eV for 'synthetic' (n=0, ell=0, kratzer) attributed to the deformation shift (1.000000e+00 eV per unit beta)",
  "beta_upper_A2": 0.4999999999999998,
  "e_exp_eV": 1.0,
  "experimental_source": "command line",
  "l": 0,
  "min_length_upper_A": 1.5811388300841893,
  "molecule": "synthetic",
  "n": 0,
  "potential": "kratzer"
}
"""

VERIFY_CSV = """\
# tol_energy=1e-06
# tol_correction=0.0001
# beta=1e-06
# max_energy_rel_err=inf
# max_correction_rel_err=inf
# result=FAIL
potential,gamma,n,l,e_closed,e_oracle,e_rel_err,de_closed,de_oracle,de_rel_err,status
kratzer,20,0,0,-0.951234377441,nan,inf,1.42778968254e-06,nan,inf,FAIL
kratzer,20,1,0,-0.864829809673,nan,inf,5.4619187243e-06,nan,inf,FAIL
"""

VERIFY_JSON = """\
{
  "cells": [
    {
      "de_closed": 1.4277896825419047e-06,
      "de_oracle": NaN,
      "de_rel_err": Infinity,
      "e_closed": -0.9512343774406438,
      "e_oracle": NaN,
      "e_rel_err": Infinity,
      "gamma": 20.0,
      "l": 0,
      "n": 0,
      "note": "sinc DVR not converged: no two successive solves at N = 64 agree to 1e-08",
      "potential": "kratzer",
      "status": "FAIL"
    },
    {
      "de_closed": 5.461918724296166e-06,
      "de_oracle": NaN,
      "de_rel_err": Infinity,
      "e_closed": -0.8648298096734234,
      "e_oracle": NaN,
      "e_rel_err": Infinity,
      "gamma": 20.0,
      "l": 0,
      "n": 1,
      "note": "sinc DVR not converged: no two successive solves at N = 64 agree to 1e-08",
      "potential": "kratzer",
      "status": "FAIL"
    }
  ],
  "meta": {
    "beta": 1e-06,
    "max_correction_rel_err": Infinity,
    "max_energy_rel_err": Infinity,
    "result": "FAIL",
    "tol_correction": 0.0001,
    "tol_energy": 1e-06
  }
}
"""


class TestOutputLayout:
    """Exact stdout of fixed calls in both formats."""

    CALLS = {
        "spectrum": ("spectrum --potential kratzer --synthetic 1,1,1 --beta 1e-3 --nmax 1 "
                     "--lmax 1 --units internal", EXIT_OK, SPECTRUM_CSV, SPECTRUM_JSON),
        "constants": ("constants --potential pho --synthetic 1,1,1 --beta 1e-3", EXIT_OK,
                      CONSTANTS_CSV, CONSTANTS_JSON),
        "fit-beta": ("fit-beta --synthetic 1,1,1 --e-exp 1 --units internal", EXIT_OK,
                     FIT_BETA_CSV, FIT_BETA_JSON),
        "verify": ("verify --potential kratzer --gamma 20 --nmax 1 --lmax 0 --levels 1",
                   EXIT_VERIFY, VERIFY_CSV, VERIFY_JSON),
    }

    @pytest.mark.parametrize("command", CALLS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_stdout(self, capsys, command, fmt):
        argv, expected_code, csv_text, json_text = self.CALLS[command]
        code, out, _ = run_main(capsys, *argv.split(), "--format", fmt)
        assert code == expected_code
        assert out == (csv_text if fmt == "csv" else json_text)

    def test_constants_fit_columns(self, capsys):
        """Only the layout: the lstsq digits may differ between BLAS builds."""
        argv = ["constants", "--potential", "pho", "--synthetic", "1,1,1", "--beta", "1e-3",
                "--fit"]
        _, out, _ = run_main(capsys, *argv)
        lines = out.splitlines()
        assert lines[:5] == CONSTANTS_CSV.splitlines()[:5]
        assert lines[5] == "constant,value,fitted,rel_diff"
        assert [line.split(",")[0] for line in lines[6:]] == [
            "y00", "we", "wexe", "weye", "be", "alphae"]
        _, out, _ = run_main(capsys, *argv, "--format", "json")
        document = json.loads(out)
        assert list(document) == ["constants", "fitted", "meta", "rel_diff"]
        for key in ("constants", "fitted", "rel_diff"):
            assert list(document[key]) == sorted(["y00", "we", "wexe", "weye", "be", "alphae"])
