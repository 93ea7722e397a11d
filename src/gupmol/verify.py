"""Closed-form vs numerical-solver sweeps.

One cell of the sweep pins a (potential, gamma, n, ell) combination: the
closed-form level and shift-per-beta are compared against Richardson-
extrapolated finite-difference values.  Synthetic molecules with de = re = 1
and mu = gamma^2/2 keep the sweep dimensionless; tolerances default to the
acceptance values (1e-6 on energies, 1e-4 on the beta shift).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .core import (
    Deformation,
    DomainError,
    GupmolError,
    Molecule,
    QuantumNumbers,
    synthetic_molecule,
)
from .kratzer import KratzerPotential, kratzer_correction_slope, kratzer_energy_undeformed
from .oracle import auto_grid, extrapolate, p4_expectation, solve_radial
from .pho import PhoPotential, pho_correction_slope, pho_energy_undeformed

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


def _closed_forms(kind: str, m: Molecule):
    if kind == "kratzer":
        return KratzerPotential.from_molecule(m), kratzer_energy_undeformed, kratzer_correction_slope
    if kind == "pho":
        return PhoPotential.from_molecule(m), pho_energy_undeformed, pho_correction_slope
    raise GupmolError(f"unknown potential kind {kind!r}")


def _rel(err_abs: float, reference: float) -> float:
    return err_abs / max(abs(reference), 1e-300)


def closed_vs_oracle_sweep(
    potentials: tuple[str, ...] = ("kratzer", "pho"),
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
    """
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    t0 = time.perf_counter()
    deformation = Deformation(beta)
    cells: list[SweepCell] = []

    for kind in potentials:
        for gamma_value in gammas:
            m = synthetic_molecule(gamma_value)
            potential, energy_fn, slope_fn = _closed_forms(kind, m)
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
                    e_closed = energy_fn(m, qn)
                    de_closed = deformation.beta * slope_fn(m, qn)
                    if failure is not None:
                        cells.append(
                            SweepCell(kind, gamma_value, n, ell, e_closed, float("nan"),
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
                        SweepCell(kind, gamma_value, n, ell, e_closed, e_oracle, e_rel,
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
