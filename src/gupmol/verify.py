"""Closed-form vs numerical-solver sweeps.

One cell of the sweep pins a (potential, gamma, n, ell) combination: the
closed-form level and shift-per-beta are compared against the converged
sinc DVR in x = ln r (``oracle._dvr_well``), one small dense eigensolve
per (potential, gamma, ell) and size; ells whose boxes are equal share the
Hamiltonian's build at each size.  Synthetic molecules with de = re = 1
and mu = gamma^2/2 keep the sweep dimensionless; tolerances default to the
acceptance values (1e-6 on energies, 1e-4 on the beta shift).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

from .core import (
    Deformation,
    DomainError,
    GupmolError,
    _require_counts,
    _require_positive,
    synthetic_molecule,
)
from .oracle import DVR_MAX_POINTS, INNER_WALL, MIN_GRID_POINTS, _dvr_well
from .spectroscopy import MODELS, get_model

DEFAULT_GAMMAS = (20.0, 100.0)
DEFAULT_TOL_ENERGY = 1e-6
DEFAULT_TOL_CORRECTION = 1e-4


@dataclass(frozen=True)
class SweepCell:
    potential: str
    gamma: float
    n: int
    ell: int
    e_closed: float
    e_oracle: float
    e_rel_err: float
    de_closed: float
    de_oracle: float
    de_rel_err: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...]
    tol_energy: float
    tol_correction: float
    beta: float
    runtime_s: float

    @property
    def all_passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def max_energy_error(self) -> float:
        return max((c.e_rel_err for c in self.cells), default=0.0)

    @property
    def max_correction_error(self) -> float:
        return max((c.de_rel_err for c in self.cells), default=0.0)


def _rel(err_abs: float, reference: float) -> float:
    return err_abs / max(abs(reference), 1e-300)


def closed_vs_oracle_sweep(
    potentials: tuple[str, ...] = tuple(MODELS),
    gammas: tuple[float, ...] = DEFAULT_GAMMAS,
    n_max: int = 3,
    l_max: int = 2,
    beta: float = 1e-6,
    tol_energy: float = DEFAULT_TOL_ENERGY,
    tol_correction: float = DEFAULT_TOL_CORRECTION,
    base_points: int = 64,
    levels: int = 5,
    r_max: float | None = None,
) -> SweepReport:
    """Run the full verification sweep and collect one cell per (n, ell).

    The DVR sizes climb in half-octaves from ``base_points`` to
    ``base_points * 2**(levels - 1)``: each power-of-two multiple and the
    midpoint 3/2 of it, 2 * levels - 1 sizes in all (64, 96, 128, ..., 1024
    at the defaults), less those with fewer points than the n_max + 1
    states; each (potential, gamma, ell) solves them in turn until two
    successive solves agree (``oracle._dvr_levels``).  Solver failures (box
    too small, no agreement, a failed check) mark the affected cells FAIL
    with the diagnostic in ``note``, so a deliberately coarse start produces
    a failing report rather than a crash.  DomainError comes before the
    first box or solve: for no potential or gamma, an unknown potential,
    n_max, l_max, levels or base_points not a nonnegative integer,
    tolerances, sizes (``levels`` below 1, below MIN_GRID_POINTS, above
    DVR_MAX_POINTS, none with room for the states), the box, and a
    closed-form level or shift not finite or at a slope pole.
    """
    models = [get_model(kind) for kind in potentials]
    molecules = [synthetic_molecule(gamma_value) for gamma_value in gammas]
    if not (models and molecules):
        raise DomainError(f"the sweep needs at least one potential and one gamma, got "
                          f"{potentials!r} and {gammas!r}")
    _require_counts(n_max=n_max, l_max=l_max, levels=levels, base_points=base_points)
    base_points = int(base_points)
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    _require_positive("tol_energy", tol_energy)
    _require_positive("tol_correction", tol_correction)
    if base_points < MIN_GRID_POINTS:
        raise DomainError(f"base_points must be >= {MIN_GRID_POINTS}, got {base_points}")
    # largest k with base_points * 2**k <= DVR_MAX_POINTS, without forming 2**(levels - 1)
    if levels - 1 > (DVR_MAX_POINTS // base_points).bit_length() - 1:
        raise DomainError(f"the size ladder of levels = {levels} from {base_points} points tops "
                          f"out at {base_points} * 2^{levels - 1} points, above the DVR cap of "
                          f"{DVR_MAX_POINTS} points")
    # half-octaves: base_points * 2**j (k = 2j), then 3/2 of it (k = 2j + 1)
    sizes = [size for size in (base_points * 2**(k // 2) * (2 + k % 2) // 2
                               for k in range(2 * levels - 1)) if size > n_max]
    if not sizes:
        raise DomainError(f"the size ladder of levels = {levels} from {base_points} points tops "
                          f"out at {base_points * 2**(levels - 1)} points, fewer than one point "
                          f"for each of the {n_max + 1} states")
    if r_max is not None and not (math.isfinite(r_max)
                                  and all(r_max > INNER_WALL * m.re for m in molecules)):
        raise DomainError(f"r_max must be finite and above the inner wall ({INNER_WALL:g} re), "
                          f"got {r_max!r}")
    t0 = time.perf_counter()
    deformation = Deformation(beta)
    plan = []  # every closed form, so that no refusal follows a solve
    for model in models:
        for gamma_value, m in zip(gammas, molecules):
            closed = []
            for ell in range(l_max + 1):
                row = model.row(m, float(ell), deformation.beta != 0.0)
                pairs = [(float(e0), 0.0 if slope is None else deformation.beta * float(slope))
                         for e0, _, slope in (model.at(row, float(n)) for n in range(n_max + 1))]
                for n, (e_closed, de_closed) in enumerate(pairs):
                    if not (math.isfinite(e_closed) and math.isfinite(de_closed)):
                        raise DomainError(
                            f"closed-form level (n={n}, ell={ell}) of {model.name} at "
                            f"gamma = {gamma_value!r} is out of floating-point range (level "
                            f"{e_closed!r}, shift {de_closed!r}); cannot verify it"
                        )
                closed.append(pairs)
            plan.append((model.name, gamma_value, m, partial(model.potential, m), closed))

    cells: list[SweepCell] = []
    for name, gamma_value, m, potential, closed in plan:
        solved = _dvr_well(potential, m.mu, l_max, n_max, m.re, r_max, sizes)
        for ell, (pairs, result) in enumerate(zip(closed, solved)):
            failure = str(result) if isinstance(result, GupmolError) else None
            for n, (e_closed, de_closed) in enumerate(pairs):
                if failure is not None:  # an infinite error fails the tolerance test
                    e_oracle = de_oracle = math.nan
                    e_rel = de_rel = math.inf
                else:
                    energies, slopes = result
                    e_oracle = float(energies[n])
                    de_oracle = deformation.beta * float(slopes[n])
                    e_rel = _rel(abs(e_oracle - e_closed), e_closed)
                    if deformation.beta == 0.0:
                        de_rel = 0.0  # both shifts are exactly zero
                    else:
                        de_rel = _rel(abs(de_oracle - de_closed), de_closed)
                passed = e_rel <= tol_energy and de_rel <= tol_correction
                cells.append(SweepCell(name, gamma_value, n, ell, e_closed, e_oracle, e_rel,
                                       de_closed, de_oracle, de_rel, passed, failure or ""))

    return SweepReport(
        cells=tuple(cells),
        tol_energy=tol_energy,
        tol_correction=tol_correction,
        beta=beta,
        runtime_s=time.perf_counter() - t0,
    )
