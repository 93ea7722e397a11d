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
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

from .core import (
    ENERGY_UNITS,
    FIRST_ORDER_WARN_RATIO,
    DataFormatError,
    Deformation,
    DomainError,
    FitError,
    Model,
    Molecule,
    PerturbationWarning,
    QuantumNumbers,
    _per_ev,
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
from .verify import closed_vs_oracle_sweep

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

QN_CAP = 200  # safety cap on --nmax / --lmax
# spectrum tables of up to this many levels are built one Model.level call at a
# time, on Python floats and without numpy; larger ones by one Model.table call.
# Warm, a deformed table is faster as the loop up to 16 levels (4 x 4) and as
# one table from 20; the one-level loop needs no numpy, which a cold start
# imports in about 0.15 s.
PER_LEVEL_MAX = 16
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
    if explicit == "":  # given, so not a default; Path("") would be the working directory
        raise DataFormatError(f"empty path given for {filename}")
    if explicit is not None:
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


def _emit(fmt: str, meta: dict, rows: list[dict], document: dict) -> None:
    """Write ``document`` as JSON, or ``meta`` as '# key=value' lines and ``rows``
    as CSV under a header of their keys; a float goes through _fmt, the rest through str."""
    if fmt == "json":
        sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return
    for key, value in meta.items():
        sys.stdout.write(f"# {key}={_fmt(value) if isinstance(value, float) else value}\n")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([_fmt(v) if isinstance(v, float) else str(v) for v in row.values()]
                     for row in rows)


@contextlib.contextmanager
def _summarize_warnings():
    """Hold back the warnings of one command and print them on stderr, one line
    each, once it succeeds: every other warning as its message, and its
    PerturbationWarnings folded into one line, the levels they count and the
    worst of them.

    A command that fails printed nothing, so its error line stands alone.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PerturbationWarning)
        yield
    flagged = [w.message for w in caught if issubclass(w.category, PerturbationWarning)]
    for w in caught:
        if not issubclass(w.category, PerturbationWarning):
            print(f"warning: {w.message}", file=sys.stderr)
    if flagged:
        worst = max(flagged, key=lambda w: w.ratio)
        print(f"warning: {sum(w.count for w in flagged)} levels have a first-order shift above "
              f"{FIRST_ORDER_WARN_RATIO:g} of the level (PerturbationWarning); worst "
              f"n={worst.qn.n} l={worst.qn.ell} with |delta_e|/|e0| = {worst.ratio:.3g}",
              file=sys.stderr)


def _spectrum_rows(model: Model, molecule: Molecule, deformation: Deformation, n_max: int,
                   l_max: int, per_ev: float) -> list[dict]:
    """The levels n <= n_max, ell <= l_max in n-major order, energies in the
    unit of which 1 eV is ``per_ev``.

    Both ways of building them (see PER_LEVEL_MAX) give the same rows bit for
    bit and, once _summarize_warnings folds them, the same warning line.
    """
    if (n_max + 1) * (l_max + 1) <= PER_LEVEL_MAX:
        levels = [model.level(molecule, deformation, QuantumNumbers(n, ell))
                  for n in range(n_max + 1) for ell in range(l_max + 1)]
        n, ell = [lv.qn.n for lv in levels], [lv.qn.ell for lv in levels]
        columns = [[x * per_ev for x in column]
                   for column in zip(*((lv.e0, lv.de, lv.total) for lv in levels))]
    else:
        import numpy as np

        n, ell, e0, _, de = model.table(molecule, deformation, n_max, l_max)
        n, ell = n.tolist(), ell.tolist()
        with np.errstate(over="ignore"):  # an overflow is inf, which _require_finite refuses
            columns = [(x * per_ev).tolist() for x in (e0, de, e0 + de)]
    return [{"n": a, "l": b, "e0": c, "delta_e": d, "total": e}
            for a, b, c, d, e in zip(n, ell, *columns)]


def cmd_spectrum(args: argparse.Namespace) -> int:
    _check_caps(args)
    molecule = _resolve_molecule(args)
    deformation = _resolve_deformation(args)
    unit = args.units

    rows = _spectrum_rows(get_model(args.potential), molecule, deformation, args.nmax,
                          args.lmax, _per_ev(unit))

    meta = {
        "potential": args.potential,
        "molecule": molecule.name,
        "gamma": gamma(molecule),
        "beta": deformation.beta,
        "min_length_angstrom": deformation.minimal_length,
        "units": unit,
    }
    _require_finite(meta, *rows)
    _emit(args.format, meta, rows, {"meta": meta, "levels": rows})
    return EXIT_OK


def cmd_constants(args: argparse.Namespace) -> int:
    _check_caps(args)
    molecule = _resolve_molecule(args)
    deformation = _resolve_deformation(args)
    closed = get_model(args.potential).constants(molecule, deformation).as_dict()
    _require_finite(closed)
    unit = args.units
    per_ev = _per_ev(unit)

    values = {"constants": {k: v * per_ev for k, v in closed.items()}}
    if args.fit:
        table = closed_form_table(molecule, deformation, args.potential, args.nmax, args.lmax)
        fitted = fit_dunham(table).constants.as_dict()
        values["fitted"] = {k: fitted[k] * per_ev for k in closed}
        values["rel_diff"] = {k: (fitted[k] - closed[k]) / closed[k] if closed[k] != 0.0
                              else fitted[k] for k in closed}
    _require_finite(*values.values())

    meta = {
        "potential": args.potential,
        "molecule": molecule.name,
        "gamma": gamma(molecule),
        "beta": deformation.beta,
        "units": unit,
    }
    columns = dict(zip(("value", "fitted", "rel_diff"), values.values()))
    rows = [{"constant": k, **{name: column[k] for name, column in columns.items()}}
            for k in closed]
    _emit(args.format, meta, rows, {"meta": meta, **values})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _check_caps(args)
    options = {keyword: getattr(args, flag) for flag, keyword in SWEEP_OPTIONS.items()
               if getattr(args, flag) is not None}
    if "gammas" in options:
        options["gammas"] = tuple(options["gammas"])
    if args.potential:
        options["potentials"] = (args.potential,)
    report = closed_vs_oracle_sweep(**options)

    rows = [{"potential": c.potential, "gamma": c.gamma, "n": c.n, "l": c.ell,
             "e_closed": c.e_closed, "e_oracle": c.e_oracle, "e_rel_err": c.e_rel_err,
             "de_closed": c.de_closed, "de_oracle": c.de_oracle, "de_rel_err": c.de_rel_err,
             "status": "PASS" if c.passed else "FAIL"} for c in report.cells]
    meta = {
        "tol_energy": report.tol_energy,
        "tol_correction": report.tol_correction,
        "beta": report.beta,
        "max_energy_rel_err": report.max_energy_error,
        "max_correction_rel_err": report.max_correction_error,
        "result": "PASS" if report.all_passed else "FAIL",
    }
    _emit(args.format, meta, rows,
          {"meta": meta, "cells": [{**row, "note": c.note} for row, c in zip(rows, report.cells)]})
    print(f"verify runtime: {report.runtime_s:.3g} s", file=sys.stderr)
    failed = [c for c in report.cells if not c.passed]
    for c in failed[:8]:
        note = f" ({c.note})" if c.note else ""
        print(f"FAIL {c.potential} gamma={c.gamma:g} n={c.n} l={c.ell}{note}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_fit_beta(args: argparse.Namespace) -> int:
    molecule = _resolve_molecule(args)
    qn = QuantumNumbers(n=args.n, ell=args.l)
    if args.e_exp is not None:
        e_exp = args.e_exp / _per_ev(args.units)
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
    row = {
        "molecule": molecule.name,
        "potential": args.potential,
        "n": qn.n,
        "l": qn.ell,
        "e_exp_eV": e_exp,
        "beta_upper_A2": bound.beta_upper,
        "min_length_upper_A": bound.minimal_length_upper,
    }
    _require_finite(row)
    meta = {"basis": bound.basis, "experimental_source": source}
    _emit(args.format, meta, [row], {**row, **meta})
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
    vp.add_argument("--grid-points", type=int,
                    help="points of the first sinc-DVR solve (default: 64)")
    vp.add_argument("--levels", type=int,
                    help="octaves of sinc-DVR sizes to try: from --grid-points to 2^(levels-1) "
                         "times it, each octave split at 3/2 of its start, at most the DVR size "
                         "cap; a size with fewer points than states is left out (default: 5)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares between its calls: parse_args stores nothing on it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit code (argparse usage errors raise SystemExit 2).

    The parser is built on the first call and kept for the process, and
    load_molecules parses each distinct catalogue content once, so repeated
    in-process calls pay neither set-up again; the one-shot ``gupmol``
    command parses once either way.
    """
    args = _parser().parse_args(argv)
    try:
        with _summarize_warnings():
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
    """The ``gupmol`` command and ``python -m gupmol``: one process, one command.

    verify's dense eigensolves (a few hundred points) are too small to gain
    from BLAS threads: on a 2-vCPU machine, two threads left the benchmark's
    sweep (gamma 5, 20, 100, 1000; n <= 4, l <= 3) at 0.042 s a pass but
    doubled its CPU time (0.042 -> 0.086 s).  OpenBLAS reads
    OPENBLAS_NUM_THREADS when scipy first loads it, so the process sets it
    here, before any command runs; ``main``, which callers may run in their
    own process, sets nothing.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
