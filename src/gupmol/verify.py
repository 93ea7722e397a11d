"""Closed-form vs numerical-solver sweeps.

One cell of the sweep pins a (potential, gamma, n, ell) combination: the
closed-form level and shift-per-beta are compared against Richardson-
extrapolated finite-difference values.  Synthetic molecules with de = re = 1
and mu = gamma^2/2 keep the sweep dimensionless; tolerances default to the
acceptance values (1e-6 on energies, 1e-4 on the beta shift).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .core import (
    Deformation,
    DomainError,
    GupmolError,
    QuantumNumbers,
    _require_positive,
    synthetic_molecule,
)
from .oracle import (INNER_WALL, MIN_GRID_POINTS, auto_grid, extrapolate, p4_expectation,
                     solve_radial)
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
    base_points: int = 4001,
    levels: int = 3,
    r_max: float | None = None,
) -> SweepReport:
    """Run the full verification sweep and collect one cell per (n, ell).

    Solver failures (box too small, non-convergence) mark the affected cells
    FAIL with the diagnostic in ``note`` instead of aborting the sweep, so a
    deliberately coarse grid produces a failing report rather than a crash.
    Configuration errors (unknown potential, tolerances, grid size, box) raise
    DomainError before the first solve.
    """
    models = [get_model(kind) for kind in potentials]
    molecules = [synthetic_molecule(gamma_value) for gamma_value in gammas]
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    _require_positive("tol_energy", tol_energy)
    _require_positive("tol_correction", tol_correction)
    if base_points < MIN_GRID_POINTS:
        raise DomainError(f"base_points must be >= {MIN_GRID_POINTS}, got {base_points}")
    if r_max is not None and not (math.isfinite(r_max)
                                  and all(r_max > INNER_WALL * m.re for m in molecules)):
        raise DomainError(f"r_max must be finite and above the inner wall ({INNER_WALL:g} re), "
                          f"got {r_max!r}")
    t0 = time.perf_counter()
    deformation = Deformation(beta)
    cells: list[SweepCell] = []

    for model in models:
        for gamma_value, m in zip(gammas, molecules):
            potential = model.potential(m)
            for ell in range(l_max + 1):
                try:
                    grid = auto_grid(potential, m.mu, ell, n_max, m.re,
                                     points=base_points, r_max=r_max)
                    energy_ladder = [[] for _ in range(n_max + 1)]
                    slope_ladder = [[] for _ in range(n_max + 1)]
                    for _ in range(levels):
                        states = solve_radial(potential, ell, m.mu, grid, n_max + 1)
                        for n, state in enumerate(states):
                            energy_ladder[n].append(state.energy)
                            slope_ladder[n].append(p4_expectation(state, potential, m.mu) / m.mu)
                        grid = grid.refined()
                    failure = None
                except GupmolError as exc:
                    failure = str(exc)

                for n in range(n_max + 1):
                    qn = QuantumNumbers(n=n, ell=ell)
                    e_closed = model.undeformed(m, qn)
                    de_closed = model.shift(m, deformation, qn)
                    if failure is not None:
                        cells.append(
                            SweepCell(model.name, gamma_value, n, ell, e_closed, float("nan"),
                                      float("inf"), de_closed, float("nan"), float("inf"),
                                      passed=False, note=failure)
                        )
                        continue
                    e_oracle = extrapolate(energy_ladder[n])
                    de_oracle = deformation.beta * extrapolate(slope_ladder[n])
                    e_rel = _rel(abs(e_oracle - e_closed), e_closed)
                    if deformation.beta == 0.0:
                        de_rel = 0.0  # both shifts are exactly zero
                    else:
                        de_rel = _rel(abs(de_oracle - de_closed), de_closed)
                    cells.append(
                        SweepCell(model.name, gamma_value, n, ell, e_closed, e_oracle, e_rel,
                                  de_closed, de_oracle, de_rel,
                                  passed=(e_rel <= tol_energy and de_rel <= tol_correction))
                    )

    return SweepReport(
        cells=tuple(cells),
        tol_energy=tol_energy,
        tol_correction=tol_correction,
        beta=beta,
        runtime_s=time.perf_counter() - t0,
    )
