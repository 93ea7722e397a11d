"""Command-line front end: spectrum | constants | verify | fit-beta.

All commands are deterministic for fixed inputs: rows are emitted in a fixed
order and floats through one formatter, so identical invocations produce
byte-identical stdout.  Machine-readable output is CSV (default, with a
header row and '#' metadata comments) or JSON mirroring the same fields.

Exit codes: 0 success; 2 configuration or domain error (bad flags, unknown
units, formula poles, inputs that overflow a float); 3 data error (missing,
unreadable or malformed files, unknown molecule or level); 4 verification
failure; 1 unexpected internal error, reported on one line.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import warnings
from pathlib import Path

from .core import (
    ENERGY_UNITS,
    FIRST_ORDER_WARN_RATIO,
    UNITS,
    DataFormatError,
    Deformation,
    DomainError,
    FitError,
    Molecule,
    PerturbationWarning,
    QuantumNumbers,
    gamma,
)
from .spectroscopy import (
    MODELS,
    closed_form_table,
    fit_beta_bound,
    fit_dunham,
    get_model,
    load_levels,
    load_molecules,
    packaged_data_path,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

QN_CAP = 200  # safety cap on --nmax / --lmax
DATA_DIR_ENV = "GUPMOL_DATA_DIR"

# verify flag -> closed_vs_oracle_sweep keyword; unset flags keep the sweep's defaults
SWEEP_OPTIONS = {
    "gamma": "gammas",
    "nmax": "n_max",
    "lmax": "l_max",
    "beta": "beta",
    "tol_energy": "tol_energy",
    "tol_correction": "tol_correction",
    "grid_points": "base_points",
    "levels": "levels",
    "rmax": "r_max",
}


def _fmt(x: float) -> str:
    if x == 0.0:
        return "0"  # normalize -0.0
    return f"{x:.12g}"


def _data_file(explicit: str | None, filename: str) -> Path:
    if explicit:
        return Path(explicit)
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        return Path(env_dir) / filename
    return packaged_data_path(filename)


def _resolve_molecule(args: argparse.Namespace) -> Molecule:
    if getattr(args, "synthetic", None):
        parts = args.synthetic.split(",")
        if len(parts) != 3:
            raise DomainError("--synthetic expects DE,RE,MU (internal units)")
        try:
            de, re, mu = (float(p) for p in parts)
        except ValueError as exc:
            raise DomainError(str(exc)) from None
        return Molecule(name="synthetic", de=de, re=re, mu=mu)
    if not getattr(args, "molecule", None):
        raise DomainError("select a molecule with --molecule NAME or --synthetic DE,RE,MU")
    path = _data_file(args.molecules_file, "molecules.csv")
    for molecule in load_molecules(path):
        if molecule.name == args.molecule:
            return molecule
    raise DataFormatError(f"molecule {args.molecule!r} not found in {path}")


def _resolve_deformation(args: argparse.Namespace) -> Deformation:
    if getattr(args, "beta", None) is not None:
        return Deformation(args.beta)
    if getattr(args, "min_length_angstrom", None) is not None:
        return Deformation.from_minimal_length(args.min_length_angstrom)
    return Deformation(0.0)


def _check_caps(args: argparse.Namespace) -> None:
    for label in ("nmax", "lmax"):
        value = getattr(args, label, None)
        if value is not None and not (0 <= value <= QN_CAP):
            raise DomainError(f"--{label} must be within [0, {QN_CAP}], got {value}")


def _require_finite(*groups: dict) -> None:
    """Refuse to print a non-finite number: the inputs overflowed a formula."""
    for group in groups:
        for key, value in group.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{key} = {value} is out of floating-point range for these inputs")


def _emit_csv(header: list[str], rows: list[list[str]], meta: dict) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for k, v in meta.items():
        sys.stdout.write(f"# {k}={v if isinstance(v, str) else _fmt(v)}\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _summarize_perturbation_warnings():
    """Fold the PerturbationWarnings of one command into one stderr line.

    A command that fails printed no levels, so its error line stands alone.
    Other warnings are shown as usual, once the recording filters are gone.
    """
    succeeded = False
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PerturbationWarning)
            yield
        succeeded = True
    finally:
        flagged = []
        for w in caught:
            if issubclass(w.category, PerturbationWarning):
                flagged.append(w.message)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        if flagged and succeeded:
            worst = max(flagged, key=lambda w: w.ratio)
            print(f"warning: {len(flagged)} levels have a first-order shift above "
                  f"{FIRST_ORDER_WARN_RATIO:g} of the level (PerturbationWarning); worst "
                  f"n={worst.qn.n} l={worst.qn.ell} with |delta_e|/|e0| = {worst.ratio:.3g}",
                  file=sys.stderr)


@_summarize_perturbation_warnings()
def cmd_spectrum(args: argparse.Namespace) -> int:
    _check_caps(args)
    molecule = _resolve_molecule(args)
    deformation = _resolve_deformation(args)
    model = get_model(args.potential)
    unit = args.units

    rows = []
    for n in range(args.nmax + 1):
        for ell in range(args.lmax + 1):
            level = model.level(molecule, deformation, QuantumNumbers(n=n, ell=ell))
            rows.append(
                {
                    "n": n,
                    "l": ell,
                    "e0": UNITS.energy_from_internal(level.e0, unit),
                    "delta_e": UNITS.energy_from_internal(level.de, unit),
                    "total": UNITS.energy_from_internal(level.total, unit),
                }
            )

    meta = {
        "potential": args.potential,
        "molecule": molecule.name,
        "gamma": gamma(molecule),
        "beta": deformation.beta,
        "min_length_angstrom": deformation.minimal_length,
        "units": unit,
    }
    _require_finite(meta, *rows)
    if args.format == "json":
        _emit_json({"meta": meta, "levels": rows})
    else:
        _emit_csv(
            ["n", "l", "e0", "delta_e", "total"],
            [[str(r["n"]), str(r["l"]), _fmt(r["e0"]), _fmt(r["delta_e"]), _fmt(r["total"])]
             for r in rows],
            meta,
        )
    return EXIT_OK


@_summarize_perturbation_warnings()
def cmd_constants(args: argparse.Namespace) -> int:
    _check_caps(args)
    molecule = _resolve_molecule(args)
    deformation = _resolve_deformation(args)
    closed = get_model(args.potential).constants(molecule, deformation).as_dict()
    _require_finite(closed)
    unit = args.units

    names = ["y00", "we", "wexe", "weye", "be", "alphae"]
    values = {"constants": {k: UNITS.energy_from_internal(closed[k], unit) for k in names}}
    if args.fit:
        table = closed_form_table(molecule, deformation, args.potential, args.nmax, args.lmax)
        _require_finite({f"level (n={qn.n}, l={qn.ell})": e for qn, e in table.entries})
        fitted = fit_dunham(table).constants.as_dict()
        values["fitted"] = {k: UNITS.energy_from_internal(fitted[k], unit) for k in names}
        values["rel_diff"] = {k: (fitted[k] - closed[k]) / closed[k] if closed[k] != 0.0
                              else fitted[k] for k in names}
    _require_finite(*values.values())

    meta = {
        "potential": args.potential,
        "molecule": molecule.name,
        "gamma": gamma(molecule),
        "beta": deformation.beta,
        "units": unit,
    }
    if args.format == "json":
        _emit_json({"meta": meta, **values})
    else:
        columns = list(values.values())
        header = ["constant", "value", "fitted", "rel_diff"][:len(columns) + 1]
        _emit_csv(header, [[k] + [_fmt(column[k]) for column in columns] for k in names], meta)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import closed_vs_oracle_sweep  # loads the solver and scipy

    _check_caps(args)
    options = {keyword: getattr(args, flag) for flag, keyword in SWEEP_OPTIONS.items()
               if getattr(args, flag) is not None}
    if "gammas" in options:
        options["gammas"] = tuple(options["gammas"])
    if args.potential:
        options["potentials"] = (args.potential,)
    report = closed_vs_oracle_sweep(**options)

    header = ["potential", "gamma", "n", "l", "e_closed", "e_oracle", "e_rel_err",
              "de_closed", "de_oracle", "de_rel_err", "status"]
    rows = []
    for c in report.cells:
        rows.append([c.potential, _fmt(c.gamma), str(c.n), str(c.ell), _fmt(c.e_closed),
                     _fmt(c.e_oracle), _fmt(c.e_rel_err), _fmt(c.de_closed), _fmt(c.de_oracle),
                     _fmt(c.de_rel_err), "PASS" if c.passed else "FAIL"])
    meta = {
        "tol_energy": report.tol_energy,
        "tol_correction": report.tol_correction,
        "beta": report.beta,
        "max_energy_rel_err": report.max_energy_error,
        "max_correction_rel_err": report.max_correction_error,
        "result": "PASS" if report.all_passed else "FAIL",
    }
    if args.format == "json":
        _emit_json({
            "meta": meta,
            "cells": [
                {
                    "potential": c.potential,
                    "gamma": c.gamma,
                    "n": c.n,
                    "l": c.ell,
                    "e_closed": c.e_closed,
                    "e_oracle": c.e_oracle,
                    "e_rel_err": c.e_rel_err,
                    "de_closed": c.de_closed,
                    "de_oracle": c.de_oracle,
                    "de_rel_err": c.de_rel_err,
                    "status": "PASS" if c.passed else "FAIL",
                    "note": c.note,
                }
                for c in report.cells
            ],
        })
    else:
        _emit_csv(header, rows, meta)
    print(f"verify runtime: {report.runtime_s:.1f} s", file=sys.stderr)
    failed = [c for c in report.cells if not c.passed]
    for c in failed[:8]:
        note = f" ({c.note})" if c.note else ""
        print(f"FAIL {c.potential} gamma={c.gamma:g} n={c.n} l={c.ell}{note}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_fit_beta(args: argparse.Namespace) -> int:
    molecule = _resolve_molecule(args)
    qn = QuantumNumbers(n=args.n, ell=args.l)
    if args.e_exp is not None:
        e_exp = UNITS.energy_to_internal(args.e_exp, args.units)
        source = "command line"
    else:
        path = _data_file(args.levels_file, "levels.csv")
        records = [
            rec for rec in load_levels(path)
            if rec.molecule == molecule.name and rec.qn == qn
        ]
        if not records:
            raise DataFormatError(
                f"no experimental level for {molecule.name!r} (n={qn.n}, l={qn.ell}) in {path}"
            )
        e_exp = records[0].energy
        source = records[0].source or str(path)

    bound = fit_beta_bound(molecule, e_exp, qn, args.potential)
    payload = {
        "molecule": molecule.name,
        "potential": args.potential,
        "n": qn.n,
        "l": qn.ell,
        "e_exp_eV": e_exp,
        "beta_upper_A2": bound.beta_upper,
        "min_length_upper_A": bound.minimal_length_upper,
        "basis": bound.basis,
        "experimental_source": source,
    }
    _require_finite(payload)
    if args.format == "json":
        _emit_json(payload)
    else:
        _emit_csv(
            ["molecule", "potential", "n", "l", "e_exp_eV", "beta_upper_A2", "min_length_upper_A"],
            [[payload["molecule"], payload["potential"], str(payload["n"]), str(payload["l"]),
              _fmt(payload["e_exp_eV"]), _fmt(payload["beta_upper_A2"]),
              _fmt(payload["min_length_upper_A"])]],
            {"basis": bound.basis, "experimental_source": source},
        )
    return EXIT_OK


def _add_molecule_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--molecule", help="molecule name from the molecules file")
    group.add_argument("--synthetic", metavar="DE,RE,MU",
                       help="ad-hoc molecule in internal units (eV, A, eV^-1 A^-2)")
    parser.add_argument("--molecules-file", help="molecules CSV (default: packaged data or "
                        f"${DATA_DIR_ENV}/molecules.csv)")


def _add_beta_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, help="deformation parameter, internal A^2")
    group.add_argument("--min-length-angstrom", type=float,
                       help="specify the deformation via hbar*sqrt(5 beta) in A")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gupmol",
        description="Vibration-rotation spectra of diatomic molecules with a "
                    "minimal-length-deformed Heisenberg algebra.",
        epilog="exit codes: 0 ok, 2 config error, 3 data error, 4 verification failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="emit a (n, l) level table")
    sp.add_argument("--potential", choices=tuple(MODELS), required=True)
    _add_molecule_flags(sp)
    _add_beta_flags(sp)
    sp.add_argument("--nmax", type=int, default=3)
    sp.add_argument("--lmax", type=int, default=2)
    sp.add_argument("--units", choices=ENERGY_UNITS, default="cm-1")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_spectrum)

    cp = sub.add_parser("constants", help="emit the six band-spectrum constants")
    cp.add_argument("--potential", choices=tuple(MODELS), required=True)
    _add_molecule_flags(cp)
    _add_beta_flags(cp)
    cp.add_argument("--fit", action="store_true",
                    help="also fit a generated level table and report relative differences")
    cp.add_argument("--nmax", type=int, default=4, help="fit-table n range (with --fit)")
    cp.add_argument("--lmax", type=int, default=4, help="fit-table l range (with --fit)")
    cp.add_argument("--units", choices=ENERGY_UNITS, default="cm-1")
    cp.add_argument("--format", choices=("csv", "json"), default="csv")
    cp.set_defaults(func=cmd_constants)

    vp = sub.add_parser("verify", help="closed forms vs the numerical solver")
    vp.add_argument("--potential", choices=tuple(MODELS),
                    help="restrict to one potential (default: both)")
    vp.add_argument("--gamma", type=float, action="append", default=None,
                    help="well-depth parameter; repeatable (default: 20 and 100)")
    vp.add_argument("--nmax", type=int)
    vp.add_argument("--lmax", type=int)
    vp.add_argument("--beta", type=float)
    vp.add_argument("--tol-energy", type=float)
    vp.add_argument("--tol-correction", type=float)
    vp.add_argument("--grid-points", type=int)
    vp.add_argument("--levels", type=int, help="refinement levels")
    vp.add_argument("--rmax", type=float, help="override the automatic box size")
    vp.add_argument("--format", choices=("csv", "json"), default="csv")
    vp.set_defaults(func=cmd_verify)

    fp = sub.add_parser("fit-beta", help="upper bound on beta from one experimental level")
    fp.add_argument("--potential", choices=tuple(MODELS), default="kratzer")
    _add_molecule_flags(fp)
    fp.add_argument("--levels-file", help="experimental levels CSV (default: packaged data or "
                    f"${DATA_DIR_ENV}/levels.csv)")
    fp.add_argument("--n", type=int, default=0)
    fp.add_argument("--l", type=int, default=0)
    fp.add_argument("--e-exp", type=float,
                    help="experimental energy measured from the potential minimum "
                         "(overrides the levels file)")
    fp.add_argument("--units", choices=ENERGY_UNITS, default="cm-1",
                    help="unit of --e-exp")
    fp.add_argument("--format", choices=("csv", "json"), default="csv")
    fp.set_defaults(func=cmd_fit_beta)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DomainError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # float ** on inputs beyond the formulas' range
        print(f"error: input out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
