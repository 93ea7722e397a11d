"""Independent numerical verification of the closed forms.

A three-point finite-difference discretization of the reduced radial
equation

    -(hbar^2 / 2 mu) u'' + [V(r) + hbar^2 ell(ell+1) / (2 mu r^2)] u = E u

on a uniform grid with Dirichlet ends, solved as a symmetric tridiagonal
eigenproblem; hbar = 1 in the package's internal units, so the code below
never writes it.  The scheme is O(h^2), so halving the spacing and combining
levels pairwise (Richardson) gains two orders per step; every quantity this
module produces is designed to sit on that ladder.

The first-order minimal-length shift is evaluated through the operator
identity p^2 u = 2 mu (E - V) u on an eigenstate, which turns <p^4> into
4 mu^2 <(E - V)^2> - a quadrature over the computed state instead of a
fourth derivative.  For shallow wells the integrand (E - V)^2 u^2 tends to a
nonzero constant at r -> 0 while the discrete u vanishes on the wall node;
the wall value is therefore restored by quadratic extrapolation before
integrating, otherwise the first cell injects an O(h) error that the h^2
ladder cannot remove.

Choice of r_min trades two errors: the truncated [0, r_min) tail of the
perturbation integrand shrinks with r_min, while V(r_min) grows into the
matrix norm and with it the eigensolver's absolute floor (~eps * |V(r_min)|).
The default 1e-3 * re suits deep molecular wells; shallow synthetic cases
should pass an explicit smaller r_min.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import simpson, trapezoid
from scipy.linalg import eigh_tridiagonal

from .core import ConvergenceError, DomainError, GridError, QuantumNumbers

RadialPotential = Callable[[np.ndarray], np.ndarray]

#: Relative amplitude allowed at the outer grid end before the box is
#: declared too small; bound states decay exponentially there.
BOUNDARY_AMPLITUDE_TOL = 1e-5

#: Looser inner-wall threshold: against a 1/r^2 core the regular solution
#: grows as a power of r, so a few h from the wall it is small but not
#: exponentially so.  Gross misuse (wall inside the well) still trips this;
#: finer r_min effects are covered by the r_min-insensitivity validation.
INNER_AMPLITUDE_TOL = 1e-2

#: WKB decay budget (e-foldings past the turning point) for auto boxes.
DECAY_BUDGET = 36.0

#: Fewest points a grid may have.
MIN_GRID_POINTS = 16

#: Inner wall of an automatic box, in units of its length scale.
INNER_WALL = 1e-3

#: Most 0.02 r0 steps auto_grid walks outward before giving up; real boxes
#: take a few thousand, a shallow open well (gamma << 1) millions.
MAX_WALK_STEPS = 20_000


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max]; production runs want >= 1000 points."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self) -> None:
        if not (0.0 < self.r_min < self.r_max):
            raise DomainError(f"need 0 < r_min < r_max, got [{self.r_min!r}, {self.r_max!r}]")
        if self.points < MIN_GRID_POINTS:
            raise DomainError(f"need at least {MIN_GRID_POINTS} grid points, got {self.points}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.points - 1)

    def positions(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.points)

    def refined(self) -> "RadialGrid":
        """Grid with halved spacing (2N-1 points nest exactly)."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.points - 1)


@dataclass(frozen=True)
class RadialEigenstate:
    """Converged bound state: label, eigenvalue, normalized u on the grid."""

    qn: QuantumNumbers
    energy: float
    r: np.ndarray
    u: np.ndarray
    norm_check: float


def _v_eff(potential: RadialPotential, ell: int, mu: float, r: np.ndarray) -> np.ndarray:
    """V(r) plus the centrifugal term ell(ell+1)/(2 mu r^2)."""
    out = np.asarray(potential(r), dtype=float)
    if ell:
        out = out + ell * (ell + 1) / (2.0 * mu * r * r)
    return out


def _count_nodes(u: np.ndarray) -> int:
    significant = np.abs(u) > 1e-9 * np.max(np.abs(u))
    signs = np.sign(u[significant])
    return int(np.sum(signs[1:] != signs[:-1]))


def solve_radial(
    potential: RadialPotential,
    ell: int,
    mu: float,
    grid: RadialGrid,
    count: int,
) -> list[RadialEigenstate]:
    """Lowest ``count`` bound states, ordered by energy and labeled by nodes.

    Raises GridError when fewer than ``count`` states are bound on the box or
    when the wavefunction amplitude at a classically forbidden end exceeds
    BOUNDARY_AMPLITUDE_TOL (box too small), and ConvergenceError when the
    eigensolve fails or the node count of the k-th state is not k.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if ell < 0 or int(ell) != ell:
        raise DomainError(f"ell must be a nonnegative integer, got {ell!r}")
    if not (math.isfinite(mu) and mu > 0.0):
        raise DomainError(f"mu must be finite and > 0, got {mu!r}")

    r = grid.positions()
    h = grid.spacing
    v_eff = _v_eff(potential, ell, mu, r)
    if not np.all(np.isfinite(v_eff[1:-1])):
        raise DomainError("potential is not finite on the grid interior")

    kin = 1.0 / (2.0 * mu * h * h)
    diag = 2.0 * kin + v_eff[1:-1]
    offdiag = np.full(grid.points - 3, -kin)
    try:
        energies, vectors = eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, count - 1))
    except np.linalg.LinAlgError as exc:  # e.g. a kinetic term 1e240 times the potential
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from None

    # Bound on this box means decaying at the outer end: E below V_eff there.
    n_bound = int(np.sum(energies < v_eff[-1]))
    if n_bound < count:
        raise GridError(
            f"only {n_bound} of the requested {count} states are bound on "
            f"[{grid.r_min:g}, {grid.r_max:g}] (V_eff at r_max = {v_eff[-1]:g}); enlarge the box"
        )

    states: list[RadialEigenstate] = []
    for k in range(count):
        u = np.zeros(grid.points)
        u[1:-1] = vectors[:, k]
        u /= math.sqrt(trapezoid(u * u, r))
        peak = float(np.max(np.abs(u)))
        # Amplitude checks only where the wall sits in a classically
        # forbidden region; at a near-origin wall with V_eff <= E the
        # Dirichlet condition is the regular solution itself.
        if abs(u[-2]) > BOUNDARY_AMPLITUDE_TOL * peak:
            raise GridError(
                f"state {k}: amplitude {abs(u[-2]):.2e} at r_max (relative "
                f"{abs(u[-2]) / peak:.2e}) exceeds {BOUNDARY_AMPLITUDE_TOL:g}; enlarge r_max"
            )
        if v_eff[0] > energies[k] and abs(u[1]) > INNER_AMPLITUDE_TOL * peak:
            raise GridError(
                f"state {k}: amplitude {abs(u[1]):.2e} at r_min (relative "
                f"{abs(u[1]) / peak:.2e}) exceeds {INNER_AMPLITUDE_TOL:g}; shrink r_min"
            )
        nodes = _count_nodes(u[1:-1])
        if nodes != k:
            raise ConvergenceError(
                f"state {k} has {nodes} interior nodes; eigensolve or grid is inconsistent"
            )
        states.append(
            RadialEigenstate(
                qn=QuantumNumbers(n=nodes, ell=ell),
                energy=float(energies[k]),
                r=r,
                u=u,
                norm_check=float(simpson(u * u, x=r)),
            )
        )
    return states


def _edge_extrapolated(values: np.ndarray) -> np.ndarray:
    """Replace both end values by quadratic extrapolation from neighbors."""
    out = values.copy()
    out[0] = 3.0 * values[1] - 3.0 * values[2] + values[3]
    out[-1] = 3.0 * values[-2] - 3.0 * values[-3] + values[-4]
    return out


def p4_expectation(state: RadialEigenstate, potential: RadialPotential, mu: float) -> float:
    """<p^4> = 4 mu^2 * integral of u^2 (E - V)^2 dr; strictly positive.

    ``potential`` is the bare radial potential: the centrifugal term is part
    of p^2 and must not be subtracted here.
    """
    w = (state.energy - np.asarray(potential(state.r), dtype=float)) * state.u
    w = _edge_extrapolated(w)
    value = 4.0 * mu * mu * float(simpson(w * w, x=state.r))
    if not value > 0.0:
        raise DomainError("p^4 expectation must be positive; state is not usable")
    return value


def p4_expectation_fd(state: RadialEigenstate, potential: RadialPotential, mu: float) -> float:
    """Cross-check route for <p^4> via explicit second differences of u.

    Computes p^2 u = -hbar^2 u'' + hbar^2 ell(ell+1) u / r^2 directly and
    integrates its square.  Agrees with :func:`p4_expectation` only to the
    discretization order; the (E - V)^2 form is the primary definition.
    """
    r, u = state.r, state.u
    h = r[1] - r[0]
    ell = state.qn.ell
    p2u = np.empty_like(u)
    p2u[1:-1] = -(u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    p2u[1:-1] += ell * (ell + 1) * u[1:-1] / (r[1:-1] * r[1:-1])
    p2u = _edge_extrapolated(p2u)
    return float(simpson(p2u * p2u, x=r))


def kinetic_expectation(state: RadialEigenstate, mu: float) -> float:
    """<p^2>/2mu from du/dr (central differences) plus the centrifugal piece.

    Independent of the eigensolve's own identity E = T + V on the discrete
    operator, so comparing it against E - <V> is a real consistency check.
    """
    r, u = state.r, state.u
    du = np.gradient(u, r, edge_order=2)
    ell = state.qn.ell
    h2m = 1.0 / (2.0 * mu)
    value = h2m * float(simpson(du * du, x=r))
    if ell:
        value += h2m * ell * (ell + 1) * float(simpson(u * u / (r * r), x=r))
    return value


def potential_expectation(state: RadialEigenstate, potential: RadialPotential) -> float:
    return float(simpson(state.u * state.u * np.asarray(potential(state.r), dtype=float), x=state.r))


def dump_eigenstate(state: RadialEigenstate, destination) -> None:
    """Write a state as plot-ready two-column text (r, u).

    One '#' header line with the labels and eigenvalue, then fixed-precision
    columns.  ``destination`` is a path or an open text file.
    """
    header = (
        f"# radial eigenstate n={state.qn.n} ell={state.qn.ell} "
        f"energy={state.energy:.12e} points={len(state.r)} norm_check={state.norm_check:.12e}\n"
    )
    lines = [header]
    lines.extend(f"{r: .10e} {u: .10e}\n" for r, u in zip(state.r, state.u))
    if hasattr(destination, "write"):
        destination.writelines(lines)
    else:
        with open(destination, "w") as handle:
            handle.writelines(lines)


def extrapolate(values: Sequence[float]) -> float:
    """Repeated Richardson steps of an O(h^2) ladder on halved spacings, down to one value."""
    work = list(values)
    while len(work) > 1:
        work = [(4.0 * b - a) / 3.0 for a, b in zip(work, work[1:])]
    return work[0]


def auto_grid(
    potential: RadialPotential,
    mu: float,
    ell: int,
    n_max: int,
    r_scale: float,
    points: int = 4001,
    r_min: float | None = None,
    r_max: float | None = None,
) -> RadialGrid:
    """Box for the lowest n_max+1 states of a single-well effective potential.

    The top energy is a harmonic estimate at the well minimum, capped below
    the dissociation threshold for open wells; the outer edge then buys
    DECAY_BUDGET WKB e-foldings past the classical turning point.  r_scale
    sets the inner wall (INNER_WALL * r_scale) and the search window for the
    minimum.
    Raises DomainError when the effective potential has no interior well, and
    GridError when the walk to the box edge takes more than MAX_WALK_STEPS.
    """
    v_eff = partial(_v_eff, potential, ell, mu)
    inner = r_min if r_min is not None else INNER_WALL * r_scale
    if r_max is not None:
        return RadialGrid(inner, r_max, points)

    samples = np.geomspace(max(inner, 1e-6 * r_scale), 50.0 * r_scale, 2000)
    values = v_eff(samples)
    i0 = int(np.argmin(values))
    if i0 == 0 or i0 == len(samples) - 1:
        raise DomainError("effective potential has no interior minimum; pass r_max explicitly")
    r0 = samples[i0]
    v0 = float(values[i0])
    step = 1e-4 * r0
    curvature = float(v_eff(np.array([r0 + step]))[0] - 2.0 * v0 + v_eff(np.array([r0 - step]))[0])
    curvature /= step * step
    omega = math.sqrt(max(curvature, 0.0) / mu)
    e_top = v0 + omega * (2.0 * n_max + 2.5)
    v_inf = float(v_eff(np.array([5e4 * r_scale]))[0])
    if e_top > v_inf:
        # Open (dissociative) well: stay safely below threshold.
        e_top = v_inf - 0.1 * (v_inf - v0)

    r = r0
    dr = 0.02 * r0
    steps = 0

    def advance(r: float) -> float:
        nonlocal steps
        steps += 1
        if steps > MAX_WALK_STEPS:
            raise GridError(f"box edge not reached in {MAX_WALK_STEPS} steps of {dr:.3g} past "
                            f"the minimum at {r0:.3g}; the well is too shallow, pass r_max")
        return r + dr

    while float(v_eff(np.array([r]))[0]) < e_top:
        r = advance(r)
        if r > 1e6 * r_scale:
            raise DomainError("no outer turning point found; potential looks unbound")
    accumulated = 0.0
    while accumulated < DECAY_BUDGET:
        k_local = math.sqrt(2.0 * mu * max(float(v_eff(np.array([r]))[0]) - e_top, 0.0))
        accumulated += k_local * dr
        r = advance(r)
        if r > 1e6 * r_scale:
            break
    return RadialGrid(inner, r, points)
