"""Independent numerical verification of the closed forms.

Two discretizations of the reduced radial equation

    -(hbar^2 / 2 mu) u'' + [V(r) + hbar^2 ell(ell+1) / (2 mu r^2)] u = E u

both with hbar = 1, the package's internal units, so the code below never
writes it.

The verification sweep uses a Colbert-Miller sinc DVR (J. Chem. Phys. 96,
1982 (1992)) on the mapped coordinate x = ln r.  With u = e^{x/2} phi and
psi = e^x phi = r^{1/2} u, the equation is the symmetric eigenproblem

    H psi = [D^-1 (T_x + 1/4) D^-1 / (2 mu) + V_eff] psi = E psi,

where D = diag(r_i) and T_x is the sinc kinetic matrix of -d^2/dx^2 on a
uniform x grid; int u^2 dr = int psi^2 dx, so a unit eigenvector is psi
sampled on the grid times sqrt(h).  The regular solution behaves as a power
r^(1/2 + lambda) at the origin, a branch point that a uniform r grid
resolves only slowly but that is a plain exponential in x; the error falls
faster than any power of the spacing.  The box comes from V_eff sampled
once on a grid in ln r: its minimum, then a WKB walk over the same points
from there, outward and inward (``_dvr_box``).  The sweep doubles the number
of points until two successive solves agree (``_dvr_levels``).

``solve_radial`` is the three-point finite-difference scheme on a uniform
r grid with Dirichlet ends, solved as a symmetric tridiagonal eigenproblem.
It is O(h^2), so halving the spacing and combining levels pairwise
(Richardson, ``extrapolate``) gains two orders per step.

The first-order minimal-length shift is evaluated through the operator
identity p^2 u = 2 mu (E - V) u on an eigenstate, which turns <p^4> into
4 mu^2 <(E - V)^2> - a quadrature over the computed state instead of a
fourth derivative.  The DVR takes it at the grid points.  On the finite-
difference grid, for shallow wells the integrand (E - V)^2 u^2 tends to a
nonzero constant at r -> 0 while the discrete u vanishes on the wall node;
the wall value is therefore restored by quadratic extrapolation before
integrating, otherwise the first cell injects an O(h) error that the h^2
ladder cannot remove.

Choice of r_min trades two errors: the truncated [0, r_min) tail of the
perturbation integrand shrinks with r_min, while V(r_min) grows into the
matrix norm and with it the eigensolver's absolute floor (~eps * |V(r_min)|).
The DVR's box grid starts at INNER_WALL * re, so its inner wall never goes
below that: the kinetic term grows as 1/r_min^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal, toeplitz
from scipy.linalg.lapack import dsyevr

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

#: WKB decay budget inside the inner turning point for the DVR's inner wall.
INNER_DECAY_BUDGET = 18.0

#: Fewest points a grid may have.
MIN_GRID_POINTS = 16

#: Inner wall of an automatic box, in units of its length scale.
INNER_WALL = 1e-3

#: Most points of a sinc-DVR Hamiltonian.  The dense 2048 x 2048 matrix is
#: 32 MB and is solved in place: one solve at the cap takes about 40 MB and
#: 0.8 s on one BLAS thread.
DVR_MAX_POINTS = 2048

#: Relative agreement, on every energy and slope, at which the finer of two
#: successive DVR solves (N and 2N points) is accepted.
DVR_RTOL = 1e-8


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
        with np.errstate(over="ignore"):  # 2 mu r^2 beyond float range: the term is 0
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
    with np.errstate(over="ignore"):  # r^2 beyond float range: inf or 0, checked below
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

    from scipy.integrate import trapezoid  # see _simpson

    states = []
    for k in range(count):
        u = np.zeros(grid.points)
        u[1:-1] = vectors[:, k]
        u /= math.sqrt(trapezoid(u * u, r))
        states.append(u)
    _check_states(energies, [u[1:-1] for u in states], v_eff, grid.r_min, grid.r_max)
    return [
        RadialEigenstate(qn=QuantumNumbers(n=k, ell=ell), energy=float(energies[k]), r=r, u=u,
                         norm_check=_simpson(u * u, r))
        for k, u in enumerate(states)
    ]


def _check_states(energies, states, v_eff: np.ndarray, r_min: float, r_max: float) -> None:
    """Raise unless each state is bound on [r_min, r_max], small at a wall
    that sits in a classically forbidden region, and has k nodes.

    ``states`` holds each state's values on the grid points, the first and
    last nearest the walls; ``v_eff`` is V_eff on the grid, walls included.
    """
    # Bound on this box means decaying at the outer end: E below V_eff there.
    count = len(energies)
    n_bound = int(np.sum(energies < v_eff[-1]))
    if n_bound < count:
        raise GridError(
            f"only {n_bound} of the requested {count} states are bound on "
            f"[{r_min:g}, {r_max:g}] (V_eff at r_max = {v_eff[-1]:g}); enlarge the box"
        )
    for k, (energy, psi) in enumerate(zip(energies, states)):
        peak = float(np.max(np.abs(psi)))
        # Amplitude checks only where the wall sits in a classically
        # forbidden region; at a near-origin wall with V_eff <= E the
        # Dirichlet condition is the regular solution itself.
        if abs(psi[-1]) > BOUNDARY_AMPLITUDE_TOL * peak:
            raise GridError(
                f"state {k}: amplitude {abs(psi[-1]):.2e} at r_max (relative "
                f"{abs(psi[-1]) / peak:.2e}) exceeds {BOUNDARY_AMPLITUDE_TOL:g}; enlarge r_max"
            )
        if v_eff[0] > energy and abs(psi[0]) > INNER_AMPLITUDE_TOL * peak:
            raise GridError(
                f"state {k}: amplitude {abs(psi[0]):.2e} at r_min (relative "
                f"{abs(psi[0]) / peak:.2e}) exceeds {INNER_AMPLITUDE_TOL:g}; shrink r_min"
            )
        nodes = _count_nodes(psi)
        if nodes != k:
            raise ConvergenceError(
                f"state {k} has {nodes} interior nodes; eigensolve or grid is inconsistent"
            )


def _simpson(y: np.ndarray, r: np.ndarray) -> float:
    """Simpson's rule on the finite-difference grid.  scipy.integrate loads
    here, on first use, so that the DVR sweep loads scipy.linalg alone."""
    from scipy.integrate import simpson

    return float(simpson(y, x=r))


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
    value = 4.0 * mu * mu * _simpson(w * w, state.r)
    if not value > 0.0:
        raise DomainError("p^4 expectation must be positive; state is not usable")
    return value


def extrapolate(values: Sequence[float]) -> float:
    """Repeated Richardson steps of an O(h^2) ladder on halved spacings, down to one value."""
    work = list(values)
    while len(work) > 1:
        work = [(4.0 * b - a) / 3.0 for a, b in zip(work, work[1:])]
    return work[0]


def _walk(r: np.ndarray, v: np.ndarray, mu: float, e_top: float, budget: float) -> float | None:
    """Where a walk over the points ``r``, with V_eff ``v`` there, ends: on
    to the turning point of e_top, then on until ``budget`` WKB e-foldings
    (each point's k times the length of the step after it) are spent.  None
    if the points run out.
    """
    (turning,) = np.nonzero(~(v[:-1] < e_top))
    if not turning.size:
        return None
    j = turning[0]
    with np.errstate(over="ignore"):  # an overflow is inf, which spends any budget
        decay = np.cumsum(np.sqrt(2.0 * mu * np.maximum(v[j:-1] - e_top, 0.0))
                          * np.abs(np.diff(r[j:])))
    (spent,) = np.nonzero(~(decay < budget))
    return float(r[j + spent[0] + 1]) if spent.size else None


def _dvr_box(potential: RadialPotential, mu: float, ell: int, n_max: int, r_scale: float,
             r_max: float | None = None) -> tuple[float, float]:
    """[r_min, r_max] of the sinc DVR, from V_eff on one grid in steps of
    0.02 in ln r, from the clamp INNER_WALL * r_scale (the matrix norm grows
    as 1/r_min^2) to the first point at or above 5e4 r_scale.  Steps in ln r
    follow the power-law decay toward the 1/r^2 core and stay 2% of r
    outside the well.

    The well minimum r0 is the grid's lowest point up to the first one at or
    above 50 r_scale.  The top energy of the lowest n_max + 1 states is a
    harmonic estimate at r0, capped below V_eff at the last point, the
    dissociation threshold, for open wells.  From r0 the walls are
    DECAY_BUDGET e-foldings past the outer turning point of that energy and
    INNER_DECAY_BUDGET inside the inner one, or the clamp where the inner
    walk runs out; GridError where the outer one does.  A given ``r_max``
    replaces the outer wall; the inner one is then the clamp where there is
    no interior minimum or the walk ends past r_max.
    """
    clamp = INNER_WALL * r_scale
    r = clamp * np.exp(0.02 * np.arange(math.ceil(math.log(5e4 / INNER_WALL) / 0.02) + 1))
    v = _v_eff(potential, ell, mu, r)
    window = int(np.searchsorted(r, 50.0 * r_scale)) + 1
    i0 = int(np.argmin(v[:window]))
    if i0 in (0, window - 1):
        if r_max is None:
            raise DomainError("effective potential has no interior minimum; pass r_max explicitly")
        return clamp, r_max
    r0, v0 = r[i0], v[i0]
    step = 1e-4 * r0
    above, below = _v_eff(potential, ell, mu, np.array([r0 + step, r0 - step]))
    omega = math.sqrt(max((above - 2.0 * v0 + below) / (step * step), 0.0) / mu)
    e_top = v0 + omega * (2.0 * n_max + 2.5)
    if e_top > v[-1]:
        # Open (dissociative) well: stay safely below threshold.
        e_top = v[-1] - 0.1 * (v[-1] - v0)
    inner = _walk(r[i0::-1], v[i0::-1], mu, e_top, INNER_DECAY_BUDGET) or clamp
    if r_max is not None:
        return (inner if inner < r_max else clamp), r_max
    outer = _walk(r[i0:], v[i0:], mu, e_top, DECAY_BUDGET)
    if outer is None:
        raise GridError(f"box edge not reached between the minimum at {r0:.3g} and "
                        f"{r[-1]:.3g}; the well is too shallow, pass r_max")
    return inner, outer


def _dvr_solve(potential: RadialPotential, ell: int, mu: float, box: tuple[float, float],
               points: int, count: int):
    """Lowest ``count`` states of the sinc DVR in x = ln r on ``points``
    points spanning ``box``: energies, <p^4>/mu slopes, unit eigenvectors as
    columns (psi at the grid points times sqrt(h)) and V_eff at the points.

    Raises DomainError when the Hamiltonian is not finite on the grid and
    ConvergenceError when the eigensolve fails.
    """
    x, h = np.linspace(math.log(box[0]), math.log(box[1]), points, retstep=True)
    r = np.exp(x)
    k = np.arange(1, points)
    column = np.empty(points)
    column[0] = math.pi ** 2 / 3.0 + h * h / 4.0
    column[1:] = np.where(k % 2, -2.0, 2.0) / (k * k)
    # Extreme boxes or masses overflow here; anything not finite is refused below.
    with np.errstate(all="ignore"):
        v = np.asarray(potential(r), dtype=float)
        v_eff = v + ell * (ell + 1) / (2.0 * mu * r * r) if ell else v  # as _v_eff has it
        ham = toeplitz(column / (2.0 * mu * h * h))
        inverse_r = 1.0 / r
        ham *= inverse_r[:, None]
        ham *= inverse_r
        ham.flat[:: points + 1] += v_eff
    if not np.all(np.isfinite(ham)):
        raise DomainError("DVR Hamiltonian is not finite on the grid")
    # The matrix is graded: its norm comes from the kinetic term at r_min,
    # far from the bound states.  Reducing the lower triangle, which starts
    # at that large end, and bisecting with ABSTOL = 2 * tiny (LAPACK's
    # setting for the most accurate eigenvalues) keeps the lowest ``count``
    # levels to about 1e-13, as the all-pairs solve does, at a third to a
    # half of its cost; the upper triangle or the default tolerance
    # (eps * |T|) loses digits as eps * |H|, up to 1e-5 at gamma 2.5 to 3.
    # ham.T is ham in Fortran order, so the solve overwrites it in place.
    energies, vectors, found, _, info = dsyevr(ham.T, range="I", lower=1, il=1, iu=count,
                                               abstol=2.0 * np.finfo(float).tiny,
                                               overwrite_a=1)
    if info != 0 or found < count:
        raise ConvergenceError(f"dense eigensolve failed: LAPACK dsyevr info = {info}, "
                               f"{found} of {count} states found")
    energies = energies[:count]
    with np.errstate(all="ignore"):  # a non-finite slope never agrees, so it never passes
        slopes = 4.0 * mu * np.sum(vectors * vectors * (energies - v[:, None]) ** 2, axis=0)
    return energies, slopes, vectors, v_eff


def _dvr_levels(potential: RadialPotential, ell: int, mu: float, box: tuple[float, float],
                count: int, points: int, solves: int) -> tuple[np.ndarray, np.ndarray]:
    """Converged energies and <p^4>/mu slopes of the lowest ``count`` states.

    Solves the DVR on ``points``, 2 * ``points``, ... points, at most
    ``solves`` times, and accepts the finer of the first two successive
    solves that agree to DVR_RTOL on every energy and slope.  Only the
    accepted solve must pass the bound-state, wall-amplitude and node-count
    checks (GridError or ConvergenceError); a coarser one that would fail
    them just doubles N.  Raises ConvergenceError when no two successive
    solves agree.
    """
    sizes = [points * 2**k for k in range(solves)]
    previous = None
    for size in sizes:
        if size < count:  # fewer points than states: too coarse to solve
            continue
        energies, slopes, vectors, v_eff = _dvr_solve(potential, ell, mu, box, size, count)
        current = np.array([energies, slopes])
        with np.errstate(invalid="ignore"):  # inf - inf is nan, which never agrees
            agree = previous is not None and np.all(np.abs(current - previous)
                                                    <= DVR_RTOL * np.abs(current))
        if agree:
            _check_states(energies, vectors.T, v_eff, *box)
            return energies, slopes
        previous = current
    raise ConvergenceError(f"sinc DVR not converged: no two successive solves at N = "
                           f"{', '.join(map(str, sizes))} agree to {DVR_RTOL:g}")
