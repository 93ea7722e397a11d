"""Seeded inputs of the three workloads.

Everything a workload feeds the program is made here from ``--seed``; the
same seed gives the same inputs.  The amount of work in one pass does not
depend on the seed: the seed picks molecules, deformations and quantum
numbers, never how many of them.  The inputs of the operations that fail
on purpose (the large-gamma shift cancellation) are fixed.

This module imports nothing from gupmol.  Molecules are described by the
decimal strings or floats the program receives.
"""
from __future__ import annotations

import math
import random

# Upper bound on beta (A^2) that the packaged H2-kratzer zero-point energy
# gives (a minimal length of about 0.0145 A); deformed inputs stay below it.
BETA_H2 = 4.2e-5

# Relative tolerances of the checks against the 60-digit reference.
# Shifts: a cancellation-free float64 evaluation of the closed forms meets
# ~1e-13, and the CLI's 12 significant digits ~5e-12; 1e-10 leaves a factor
# of 20 over both.  The shift slopes lose digits as gamma^2, so inputs are
# kept at least a factor of ten from this value on either side: gamma <= 100
# passes (<= 7e-12), gamma >= 3000 fails (>= 5e-9).
TOL_SHIFT = 1e-10
# Energies from the well minimum lose digits as gamma (4.5e-10 at 2e6); the
# energy tolerance sits a factor of 20 above the worst of them.
TOL_ENERGY = 1e-8

# The packaged H2 entries; their parameters are read from the checkout's
# molecules.csv, so the benchmark follows the data the program ships.
H2_KRATZER, H2 = "H2-kratzer", "H2"

# Fixed deep-well molecule (gamma = 1e4) whose deformed spectra fail the
# shift tolerance on every run; its row and calls do not depend on the seed.
DEEP = ("DEEP-1e4", "5.0", "2.5")
DEEP_GAMMA = 1.0e4
DEEP_BETA = "1e-05"

# tables: gamma ladder from H2 to 2e6, fixed so that the failing jobs are the
# same on every seed.  The first three pass the shift tolerance, the last
# three fail it.
TABLE_GAMMAS = (36.162666, 60.0, 100.0, 3.0e3, 1.0e4, 2.0e6)
TABLE_DE, TABLE_RE = 9.866636, 0.741446
# Two table shapes, each reaching the CLI cap of 200 in one index.
TALL = (200, 10)
WIDE = (10, 200)
MASTER_SHAPE = (10, 10)

# sweep: default gammas plus a shallow and a deep well.
SWEEP_N_MAX, SWEEP_L_MAX = 4, 3


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def mu_amu_for_gamma(g: float, de: float, re: float, amu_to_internal: float) -> float:
    """Reduced mass in amu that gives well-depth parameter g."""
    return (g / re) ** 2 / (2.0 * de) / amu_to_internal


def _catalogue(rng: random.Random, amu_to_internal: float, packaged: dict):
    """~300 generated molecules (gamma 36 to 1e4) plus H2, H2-kratzer, DEEP."""
    rows = []
    for i in range(300):
        # The first 30 sit in a shallow band (gamma <= 60) where deformed
        # calls stay well inside the shift tolerance.
        g = log_uniform(rng, 36.0, 60.0) if i < 30 else log_uniform(rng, 60.0, 1.0e4)
        de = log_uniform(rng, 0.5, 10.0)
        re = rng.uniform(0.7, 3.0)
        mu_amu = mu_amu_for_gamma(g, de, re, amu_to_internal)
        rows.append({"name": f"M{i:03d}", "de": repr(de), "re": repr(re),
                     "mu_amu": repr(mu_amu), "shallow": i < 30})
    deep_mu = mu_amu_for_gamma(DEEP_GAMMA, float(DEEP[1]), float(DEEP[2]), amu_to_internal)
    rows += [{"name": name, "de": packaged[name][0], "re": packaged[name][1],
              "mu_amu": packaged[name][2], "shallow": True} for name in (H2, H2_KRATZER)]
    rows.append({"name": DEEP[0], "de": DEEP[1], "re": DEEP[2], "mu_amu": f"{deep_mu:.17g}",
                 "shallow": False})
    rng.shuffle(rows)
    return rows


def interactive(seed: int, amu_to_internal: float, packaged: dict) -> dict:
    """One user's cycle of small CLI and library calls.

    Spectra cover both potentials, csv and json, and the three ways to give
    the deformation (--beta, --min-length-angstrom, neither).  The --beta and
    --min-length-angstrom calls of one (potential, format) share a molecule,
    so their shifts must stand in the ratio of their betas.
    """
    rng = random.Random(f"interactive-{seed}")
    catalogue = _catalogue(rng, amu_to_internal, packaged)
    generated = [row for row in catalogue if row["name"].startswith("M")]
    shallow = [row for row in generated if row["shallow"]]
    own = {"kratzer": H2_KRATZER, "pho": H2}

    ops = []
    for kind in ("kratzer", "pho"):
        for fmt in ("csv", "json"):
            # csv calls read the packaged data, json calls the catalogue.
            if fmt == "csv":
                deformed = {"molecule": own[kind], "catalogue": False}
            else:
                deformed = {"molecule": rng.choice(shallow)["name"], "catalogue": True}
            beta = BETA_H2 * rng.uniform(0.1, 1.0)
            length = math.sqrt(5.0 * BETA_H2 * rng.uniform(0.1, 1.0))
            pair = f"{kind}-{fmt}"
            ops.append({"op": "spectrum", "potential": kind, "format": fmt,
                        "beta": repr(beta), "pair": pair, **deformed})
            ops.append({"op": "spectrum", "potential": kind, "format": fmt,
                        "min_length": repr(length), "pair": pair, **deformed})
            ops.append({"op": "spectrum", "potential": kind, "format": fmt,
                        "molecule": rng.choice(generated)["name"], "catalogue": True})
        ops.append({"op": "spectrum", "potential": kind, "format": "csv",
                    "molecule": DEEP[0], "catalogue": True, "beta": DEEP_BETA})

    ops.append({"op": "constants", "potential": "kratzer", "format": "csv",
                "molecule": H2_KRATZER, "catalogue": False,
                "beta": repr(BETA_H2 * rng.uniform(0.1, 1.0))})
    ops.append({"op": "constants", "potential": "pho", "format": "json",
                "molecule": rng.choice(generated)["name"], "catalogue": True})

    # fit-beta from a generated levels file and from --e-exp; the "experiment"
    # is the reference level raised by 0.5-2 % (gap_fraction).
    levels_rows = []
    for name in (H2, H2_KRATZER):
        for n in range(4):
            for ell in range(3):
                levels_rows.append({"molecule": name, "n": n, "l": ell,
                                    "gap_fraction": rng.uniform(0.005, 0.02)})
    pick = rng.choice([row for row in levels_rows if row["molecule"] == H2_KRATZER])
    ops.append({"op": "fit-beta", "potential": "kratzer", "format": "csv",
                "molecule": H2_KRATZER, "catalogue": False, "levels_file": True,
                "n": pick["n"], "l": pick["l"], "gap_fraction": pick["gap_fraction"]})
    ops.append({"op": "fit-beta", "potential": "pho", "format": "json",
                "molecule": rng.choice(shallow)["name"], "catalogue": True,
                "levels_file": False, "n": rng.randrange(4), "l": rng.randrange(3),
                "gap_fraction": rng.uniform(0.005, 0.02)})

    # The README's single-level library calls on H2 built in place.
    for call, name in (("kratzer_energy_deformed", H2_KRATZER), ("pho_energy_deformed", H2),
                       ("kratzer_spectroscopic_constants", H2_KRATZER),
                       ("pho_spectroscopic_constants", H2)):
        ops.append({"op": "library", "call": call, "molecule": name,
                    "params": [float(v) for v in packaged[name]],
                    "beta": repr(BETA_H2 * rng.uniform(0.1, 1.0)),
                    "n": rng.randrange(6), "l": rng.randrange(6)})
    rng.shuffle(ops)
    return {"catalogue": catalogue, "levels": levels_rows, "ops": ops}


def tables(seed: int) -> dict:
    """Bulk closed-form jobs: per potential and gamma, a beta = 0 table and two
    deformed ones (betas up to the H2 bound), all fitted."""
    rng = random.Random(f"tables-{seed}")
    jobs = []
    for kind in ("kratzer", "pho"):
        for g in TABLE_GAMMAS:
            mu = (g / TABLE_RE) ** 2 / (2.0 * TABLE_DE)
            molecule = {"name": f"ladder-{g:g}", "de": TABLE_DE, "re": TABLE_RE, "mu": mu}
            # Deformed tables take beta >= BETA_H2 / 2: the shift is read off
            # as the table level minus the reference undeformed level, whose
            # rounding (~1e-16 of the level) must stay small against it.
            betas = [0.0, BETA_H2 * rng.uniform(0.5, 1.0), BETA_H2 * rng.uniform(0.5, 1.0)]
            for index, (beta, shape) in enumerate(zip(betas, (TALL, TALL, WIDE))):
                jobs.append({
                    "kind": kind, "gamma": g, "molecule": molecule, "beta": beta,
                    "n_max": shape[0], "l_max": shape[1], "index": index,
                    # The ground level, where the slope cancellation is worst:
                    # the bound's error is a fixed function of gamma.
                    "bound_level": [0, 0],
                    "gap_fraction": rng.uniform(0.005, 0.02),
                })
    rng.shuffle(jobs)
    return {"jobs": jobs}


def sweep(seed: int) -> dict:
    """closed_vs_oracle_sweep over both potentials at gamma ~5, 20, 100, ~1000."""
    rng = random.Random(f"sweep-{seed}")
    gammas = [5.0 * rng.uniform(0.97, 1.03), 20.0, 100.0, 1000.0 * rng.uniform(0.97, 1.03)]
    return {"gammas": gammas, "n_max": SWEEP_N_MAX, "l_max": SWEEP_L_MAX,
            "beta": log_uniform(rng, 1e-7, 1e-5)}

