"""Concrete program inputs and their expected outputs, from the reference.

For each workload this turns the seeded specification of workloads.py into
the jobs the worker runs (argv lists, data files, floats) and, beside each
job, the values the program must return, evaluated by reference.py.  It
imports nothing from gupmol; CODATA factors come from scipy.constants, the
program's documented source for them.
"""
from __future__ import annotations

import csv
from pathlib import Path

from mpmath import matrix, mp, mpf, qr_solve, sqrt

import reference as ref
import workloads as wl

QN_DEFAULT = {"spectrum": (3, 2), "constants": (4, 4)}


def codata() -> dict:
    from scipy import constants

    pc = constants.physical_constants
    hbarc = pc["reduced Planck constant times c in MeV fm"][0]
    amu = pc["atomic mass constant energy equivalent in MeV"][0]
    ev_inv_m = pc["electron volt-inverse meter relationship"][0]
    with mp.workdps(ref.DIGITS):
        ev_to_cm1 = mpf(ev_inv_m) / 100
    return {"hbarc_mev_fm": hbarc, "amu_mev": amu, "ev_to_cm1": ev_to_cm1,
            "amu_to_internal": amu * 1.0e6 / (hbarc * 10.0) ** 2}


def packaged_molecules(root: Path) -> dict:
    """name -> (De_eV, re_angstrom, mu_amu) strings from the checkout's data."""
    path = root / "src" / "gupmol" / "data" / "molecules.csv"
    out = {}
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].lstrip().startswith("#") or row[0] == "name":
                continue
            out[row[0].strip()] = tuple(field.strip() for field in row[1:4])
    return out


def fit_reference(rows: list[tuple[int, int, mpf]]) -> dict[str, mpf]:
    """Least-squares fit of the master expression at 60 digits (QR)."""
    with mp.workdps(ref.DIGITS):
        design = matrix(len(rows), 6)
        rhs = matrix(len(rows), 1)
        for i, (n, ell, energy) in enumerate(rows):
            nu = mpf(n) + mpf(1) / 2
            big_l = mpf(ell) * (ell + 1)
            for j, value in enumerate((1, nu, -nu * nu, nu**3, big_l, -nu * big_l)):
                design[i, j] = value
            rhs[i] = energy
        solution, _ = qr_solve(design, rhs)
        return {name: solution[j] for j, name in enumerate(ref.CONSTANT_NAMES)}


# ---------------------------------------------------------------------------
# interactive


def _write_catalogue(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["name", "De_eV", "re_angstrom", "mu_amu", "source"])
        for row in rows:
            writer.writerow([row["name"], row["de"], row["re"], row["mu_amu"], "generated"])


def interactive(seed: int, root: Path, out_dir: Path):
    factors = codata()
    packaged = packaged_molecules(root)
    missing = {wl.H2, wl.H2_KRATZER} - set(packaged)
    if missing:
        raise SystemExit(f"packaged molecules.csv lacks {sorted(missing)}")
    spec = wl.interactive(seed, factors["amu_to_internal"], packaged)
    cf = factors["ev_to_cm1"]
    params = {row["name"]: (row["de"], row["re"], row["mu_amu"]) for row in spec["catalogue"]}

    def molecule(name: str) -> ref.Molecule:
        de, re, mu_amu = params[name]
        return ref.Molecule(de, re, ref.mass_to_internal(mu_amu, factors["amu_mev"],
                                                         factors["hbarc_mev_fm"]))

    catalogue_path = out_dir / "molecules.csv"
    _write_catalogue(catalogue_path, spec["catalogue"])
    levels_path = out_dir / "levels.csv"
    with open(levels_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["molecule", "n", "l", "energy", "unit", "source"])
        for row in spec["levels"]:
            kind = "kratzer" if row["molecule"] == wl.H2_KRATZER else "pho"
            _, emin, _ = ref.level(kind, molecule(row["molecule"]), row["n"], row["l"])
            row["energy"] = repr(float(emin * (1 + mpf(row["gap_fraction"])) * cf))
            writer.writerow([row["molecule"], row["n"], row["l"], row["energy"], "cm-1",
                             "generated"])
    rel_catalogue = str(catalogue_path.relative_to(root))
    rel_levels = str(levels_path.relative_to(root))

    jobs, expected = [], []
    for op in spec["ops"]:
        m = molecule(op["molecule"])
        if op["op"] == "library":
            jobs.append(op)
            expected.append(_expect_library(op, m))
            continue
        argv = [op["op"], "--potential", op["potential"], "--molecule", op["molecule"]]
        if op["catalogue"]:
            argv += ["--molecules-file", rel_catalogue]
        beta = mpf(0)
        if "beta" in op:
            argv += ["--beta", op["beta"]]
            beta = ref.mpf_exact(op["beta"])
        elif "min_length" in op:
            argv += ["--min-length-angstrom", op["min_length"]]
            with mp.workdps(ref.DIGITS):
                beta = ref.mpf_exact(op["min_length"]) ** 2 / 5
        if op["op"] == "spectrum":
            exp = _expect_spectrum(op, m, beta, cf)
        elif op["op"] == "constants":
            argv.append("--fit")
            exp = _expect_constants(op, m, beta, cf)
        else:
            argv += ["--n", str(op["n"]), "--l", str(op["l"])]
            if op["levels_file"]:
                argv += ["--levels-file", rel_levels]
                record = next(r for r in spec["levels"] if r["molecule"] == op["molecule"]
                              and (r["n"], r["l"]) == (op["n"], op["l"]))
                e_exp_cm1 = record["energy"]
            else:
                _, emin, _ = ref.level(op["potential"], m, op["n"], op["l"])
                e_exp_cm1 = repr(float(emin * (1 + mpf(op["gap_fraction"])) * cf))
                argv += ["--e-exp", e_exp_cm1]
            exp = _expect_fit_beta(op, m, e_exp_cm1, cf)
        argv += ["--format", op["format"]]
        jobs.append({"op": op["op"], "argv": argv})
        exp.update({"op": op["op"], "format": op["format"], "argv": argv,
                    "pair": op.get("pair"), "beta": beta})
        expected.append(exp)
    return {"ops": jobs}, expected


def _expect_spectrum(op: dict, m: ref.Molecule, beta: mpf, cf: mpf) -> dict:
    n_max, l_max = QN_DEFAULT["spectrum"]
    rows = []
    with mp.workdps(ref.DIGITS):
        for n in range(n_max + 1):
            for ell in range(l_max + 1):
                e0, _, slope = ref.level(op["potential"], m, n, ell)
                rows.append((n, ell, e0 * cf, beta * slope * cf))
        meta = {"potential": op["potential"], "molecule": op["molecule"], "gamma": m.g,
                "beta": beta, "min_length_angstrom": sqrt(5 * beta), "units": "cm-1"}
    return {"rows": rows, "meta": meta}


def _expect_constants(op: dict, m: ref.Molecule, beta: mpf, cf: mpf) -> dict:
    n_max, l_max = QN_DEFAULT["constants"]
    closed, scales = ref.constants(op["potential"], m, beta)
    table = []
    with mp.workdps(ref.DIGITS):
        for n in range(n_max + 1):
            for ell in range(l_max + 1):
                _, emin, slope = ref.level(op["potential"], m, n, ell)
                table.append((n, ell, emin + beta * slope))
    fitted = fit_reference(table)
    emax = max(abs(e) for _, _, e in table)
    return {"closed": closed, "scales": scales, "fitted": fitted, "cf": cf,
            "fit_scale": _column_scales(n_max, l_max, emax),
            "meta": {"potential": op["potential"], "molecule": op["molecule"],
                     "gamma": m.g, "beta": beta, "units": "cm-1"}}


def _column_scales(n_max: int, l_max: int, emax) -> dict[str, float]:
    """Per constant, the change that moves the fitted table by emax at most:
    max|E| over the largest magnitude of the constant's basis column."""
    nu = n_max + 0.5
    big_l = l_max * (l_max + 1.0)
    columns = (1.0, nu, nu * nu, nu**3, max(big_l, 1.0), max(nu * big_l, 1.0))
    return {name: float(emax) / col for name, col in zip(ref.CONSTANT_NAMES, columns)}


def _expect_fit_beta(op: dict, m: ref.Molecule, e_exp_cm1: str, cf: mpf) -> dict:
    _, emin, slope = ref.level(op["potential"], m, op["n"], op["l"])
    with mp.workdps(ref.DIGITS):
        e_exp = ref.mpf_exact(e_exp_cm1) / cf
        beta = abs(e_exp - emin) / abs(slope)
        return {"molecule": op["molecule"], "potential": op["potential"], "n": op["n"],
                "l": op["l"], "e_exp_eV": e_exp, "beta_upper": beta,
                "min_length_upper": sqrt(5 * beta)}


def _expect_library(op: dict, m: ref.Molecule) -> dict:
    beta = ref.mpf_exact(op["beta"])
    kind = "kratzer" if op["call"].startswith("kratzer") else "pho"
    if op["call"].endswith("_constants"):
        closed, scales = ref.constants(kind, m, beta)
        return {"op": "library", "call": op["call"], "closed": closed, "scales": scales}
    e0, _, slope = ref.level(kind, m, op["n"], op["l"])
    with mp.workdps(ref.DIGITS):
        return {"op": "library", "call": op["call"], "e0": e0, "de": beta * slope}


# ---------------------------------------------------------------------------
# tables


def tables(seed: int, root: Path, out_dir: Path):
    spec = wl.tables(seed)
    refs = {}
    jobs, expected = [], []
    for job in spec["jobs"]:
        kind, g = job["kind"], job["gamma"]
        mol = job["molecule"]
        m = ref.Molecule(mol["de"], mol["re"], mol["mu"])
        key = (kind, g)
        if key not in refs:
            refs[key] = {wl.TALL: ref.levels(kind, m, *wl.TALL),
                         wl.WIDE: ref.levels(kind, m, *wl.WIDE)}
        levels = refs[key][(job["n_max"], job["l_max"])]
        n, ell = job["bound_level"]
        _, emin, slope = ref.level(kind, m, n, ell)
        closed, scales = ref.constants(kind, m, job["beta"])
        known = {k: float(v) for k, v in closed.items()}
        master = [(i, j, float(ref.master_energy(known, i, j)))
                  for i in range(wl.MASTER_SHAPE[0] + 1) for j in range(wl.MASTER_SHAPE[1] + 1)]
        with mp.workdps(ref.DIGITS):
            e_exp = float(emin * (1 + mpf(job["gap_fraction"])))
            gap = abs(mpf(e_exp) - emin)
            beta_upper = gap / abs(slope)
        jobs.append({**job, "e_exp": e_exp, "master": {"entries": master}})
        expected.append({
            "kind": kind, "gamma": g, "beta": job["beta"], "index": job["index"],
            "shape": (job["n_max"], job["l_max"]), "levels": levels,
            "closed": closed, "scales": scales, "known": known,
            "master_scale": _column_scales(*wl.MASTER_SHAPE, max(abs(e) for *_, e in master)),
            "beta_upper": beta_upper,
        })
    return {"jobs": jobs}, expected


# ---------------------------------------------------------------------------
# sweep


def sweep(seed: int, root: Path, out_dir: Path):
    spec = wl.sweep(seed)
    beta = ref.mpf_exact(spec["beta"])
    cells = []
    for kind in ("kratzer", "pho"):
        for g in spec["gammas"]:
            # synthetic_molecule(g): de = re = 1 and mu = (g * hbar / re)^2 / (2 de)
            mu = (g * 1.0 / 1.0) ** 2 / (2.0 * 1.0)
            m = ref.Molecule(1.0, 1.0, mu)
            for ell in range(spec["l_max"] + 1):
                for n in range(spec["n_max"] + 1):
                    e0, _, slope = ref.level(kind, m, n, ell)
                    with mp.workdps(ref.DIGITS):
                        cells.append({"label": (kind, g, n, ell), "e0": e0, "de": beta * slope})
    return spec, {"cells": cells, "beta": beta}


PREPARE = {"interactive": interactive, "tables": tables, "sweep": sweep}
