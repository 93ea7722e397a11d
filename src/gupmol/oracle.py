"""Independent numerical verification of the closed forms.

A Colbert-Miller sinc DVR (J. Chem. Phys. 96, 1982 (1992)) of the reduced
radial equation

    -(hbar^2 / 2 mu) u'' + [V(r) + hbar^2 ell(ell+1) / (2 mu r^2)] u = E u

with hbar = 1, the package's internal units, so the code below never writes
it, on the mapped coordinate x = ln r.  With u = e^{x/2} phi and
psi = e^x phi = r^{1/2} u, the equation is the symmetric eigenproblem

    H psi = [D^-1 (T_x + 1/4) D^-1 / (2 mu) + V_eff] psi = E psi,

where D = diag(r_i) and T_x is the sinc kinetic matrix of -d^2/dx^2 on a
uniform x grid; int u^2 dr = int psi^2 dx, so a unit eigenvector is psi
sampled on the grid times sqrt(h).  The regular solution behaves as a power
r^(1/2 + lambda) at the origin, a branch point that a uniform r grid
resolves only slowly but that is a plain exponential in x; the error falls
faster than any power of the spacing.  The box comes from V_eff on a grid
in ln r: its minimum, then a WKB walk over the same points from there,
outward and inward (``_dvr_box``); V is sampled on that grid once for all
the ells of a well (``_box_grid``).

A solve is four steps.  The builder (``_dvr_build``) makes the part that
no ell changes on one box and size: the grid, V there and the scaled
kinetic matrix D^-1 (T_x + 1/4) D^-1 / (2 mu).  ``_dvr_hamiltonian`` adds
one ell's V_eff to its diagonal, the eigensolve (``_dvr_eigensolve``) finds
the lowest states, and ``_dvr_slopes`` sums their <p^4>.  The sweep's sizes
are tried in turn until two successive solves agree; the ells of a well
whose boxes are equal climb that ladder together, on one build per size
(``_dvr_levels``, ``_dvr_well``).

The first-order minimal-length shift is evaluated through the operator
identity p^2 u = 2 mu (E - V) u on an eigenstate, which turns <p^4> into
4 mu^2 <(E - V)^2> - a sum over the grid points of the unit eigenvector
instead of a fourth derivative.

Choice of r_min trades two errors: the truncated [0, r_min) tail of the
state shrinks with r_min, while V(r_min) grows into the matrix norm and with
it the eigensolver's absolute floor (~eps * |V(r_min)|).  The DVR's box grid
starts at INNER_WALL * re, so its inner wall never goes below that: the
kinetic term grows as 1/r_min^2.
"""
from __future__ import annotations

import math
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Sequence

from .core import ConvergenceError, DomainError, GridError, GupmolError

if TYPE_CHECKING:
    import numpy as np

    RadialPotential = Callable[[np.ndarray], np.ndarray]

#: Relative amplitude allowed at the outer grid end before the box is
#: declared too small; bound states decay exponentially there.
BOUNDARY_AMPLITUDE_TOL = 1e-5

#: Looser inner-wall threshold: against a 1/r^2 core the regular solution
#: grows as a power of r, so a few h from the wall it is small but not
#: exponentially so.  Gross misuse (wall inside the well) still trips this;
#: finer r_min effects are bounded by the inner walk's INNER_DECAY_BUDGET.
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
#: 32 MB, and the solve overwrites it in place: one solve at the cap takes
#: about 40 MB and 0.8 s on one BLAS thread.
DVR_MAX_POINTS = 2048

#: Relative agreement, on every energy and slope, at which the finer of two
#: successive DVR solves is accepted: two neighbouring sizes of the sweep's
#: half-octave ladder, such as 64 and 96 or 96 and 128 points.
DVR_RTOL = 1e-8


def _v_eff(v: np.ndarray, ell: int, mu: float, r: np.ndarray) -> np.ndarray:
    """V_eff at the radii ``r`` where V is ``v``: v plus the centrifugal term
    ell(ell+1)/(2 mu r^2)."""
    import numpy as np

    if not ell:
        return v
    with np.errstate(over="ignore"):  # 2 mu r^2 beyond float range: the term is 0
        return v + ell * (ell + 1) / (2.0 * mu * r * r)


def _count_nodes(u: np.ndarray) -> np.ndarray:
    """Nodes of each column of ``u``: the sign changes between its successive
    entries above 1e-9 of the column's largest magnitude."""
    import numpy as np

    magnitude = np.abs(u)
    # (column, row) of every significant entry, column by column
    columns, rows = np.nonzero((magnitude > 1e-9 * magnitude.max(axis=0)).T)
    signs = np.sign(u[rows, columns])
    change = (signs[1:] != signs[:-1]) & (columns[1:] == columns[:-1])
    return np.bincount(columns[1:][change], minlength=u.shape[1])


def _check_states(energies, states, v_eff: np.ndarray, r_min: float, r_max: float) -> None:
    """Raise unless each state is bound on [r_min, r_max], small at a wall
    that sits in a classically forbidden region, and has k nodes.

    ``states`` holds each state's values on the grid points, the first and
    last nearest the walls; ``v_eff`` is V_eff at the same points.  A
    failure names the first failing state and, of its failed checks, the
    first of r_max amplitude, r_min amplitude and node count.
    """
    import numpy as np

    # Bound on this box means decaying at the outer end: E below V_eff there.
    count = len(energies)
    n_bound = int(np.sum(energies < v_eff[-1]))
    if n_bound < count:
        raise GridError(
            f"only {n_bound} of the requested {count} states are bound on "
            f"[{r_min:g}, {r_max:g}] (V_eff at r_max = {v_eff[-1]:g}); enlarge the box"
        )
    magnitude = np.abs(states)
    peak = magnitude.max(axis=1)
    outer, inner = magnitude[:, -1], magnitude[:, 0]
    # Amplitude checks only where the wall sits in a classically forbidden
    # region; at a near-origin wall with V_eff <= E the Dirichlet condition
    # is the regular solution itself.
    leaks_out = outer > BOUNDARY_AMPLITUDE_TOL * peak
    leaks_in = (v_eff[0] > energies) & (inner > INNER_AMPLITUDE_TOL * peak)
    nodes = _count_nodes(states.T)
    failed = leaks_out | leaks_in | (nodes != np.arange(count))
    if not failed.any():
        return
    k = int(np.argmax(failed))
    if leaks_out[k]:
        raise GridError(
            f"state {k}: amplitude {outer[k]:.2e} at r_max (relative "
            f"{outer[k] / peak[k]:.2e}) exceeds {BOUNDARY_AMPLITUDE_TOL:g}; enlarge r_max"
        )
    if leaks_in[k]:
        raise GridError(
            f"state {k}: amplitude {inner[k]:.2e} at r_min (relative "
            f"{inner[k] / peak[k]:.2e}) exceeds {INNER_AMPLITUDE_TOL:g}; shrink r_min"
        )
    raise ConvergenceError(
        f"state {k} has {nodes[k]} interior nodes; eigensolve or grid is inconsistent"
    )


def _walk(r: np.ndarray, v: np.ndarray, mu: float, e_top: float, budget: float) -> float | None:
    """Where a walk over the points ``r``, with V_eff ``v`` there, ends: on
    to the turning point of e_top, then on until ``budget`` WKB e-foldings
    (each point's k times the length of the step after it) are spent.  None
    if the points run out.
    """
    import numpy as np

    turning = ~(v[:-1] < e_top)
    j = int(np.argmax(turning))
    if not turning[j]:
        return None
    with np.errstate(over="ignore"):  # an overflow is inf, which spends any budget
        decay = np.cumsum(np.sqrt(2.0 * mu * np.maximum(v[j:-1] - e_top, 0.0))
                          * np.abs(np.diff(r[j:])))
    spent = ~(decay < budget)
    i = int(np.argmax(spent))
    return float(r[j + i + 1]) if spent[i] else None


def _box_grid(potential: RadialPotential, r_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The points on which ``_dvr_box`` sizes the boxes of a well, and V
    there: steps of 0.02 in ln r from the clamp INNER_WALL * r_scale (the
    matrix norm grows as 1/r_min^2) to the first point at or above
    5e4 r_scale.  Steps in ln r follow the power-law decay toward the 1/r^2
    core and stay 2% of r outside the well.
    """
    import numpy as np

    r = INNER_WALL * r_scale * np.exp(
        0.02 * np.arange(math.ceil(math.log(5e4 / INNER_WALL) / 0.02) + 1))
    return r, np.asarray(potential(r), dtype=float)


def _dvr_box(potential: RadialPotential, grid: tuple[np.ndarray, np.ndarray], mu: float,
             ell: int, n_max: int, r_scale: float,
             r_max: float | None = None) -> tuple[float, float]:
    """[r_min, r_max] of the sinc DVR at ``ell``, from V_eff on the well's
    box grid (``_box_grid``: its points and V there).

    The well minimum r0 is the grid's lowest point up to the first one at or
    above 50 r_scale.  The top energy of the lowest n_max + 1 states is a
    harmonic estimate at r0, capped below V_eff at the last point, the
    dissociation threshold, for open wells.  From r0 the walls are
    DECAY_BUDGET e-foldings past the outer turning point of that energy and
    INNER_DECAY_BUDGET inside the inner one, or the clamp INNER_WALL *
    r_scale where the inner walk runs out; GridError where the outer one
    does.  A given ``r_max`` replaces the outer wall; the inner one is then
    the clamp where there is no interior minimum or the walk ends past
    r_max.
    """
    import numpy as np

    clamp = INNER_WALL * r_scale
    r, v = grid
    v = _v_eff(v, ell, mu, r)
    window = int(np.searchsorted(r, 50.0 * r_scale)) + 1
    i0 = int(np.argmin(v[:window]))
    if i0 in (0, window - 1):
        if r_max is None:
            raise DomainError("effective potential has no interior minimum; pass r_max explicitly")
        return clamp, r_max
    r0, v0 = r[i0], v[i0]
    step = 1e-4 * r0
    points = np.array([r0 + step, r0 - step])
    above, below = _v_eff(np.asarray(potential(points), dtype=float), ell, mu, points)
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


def _dvr_build(potential: RadialPotential, mu: float, box: tuple[float, float], points: int):
    """The part of the sinc DVR in x = ln r on ``points`` points spanning
    ``box`` that no ell changes: the radii r of the points, V there, and the
    kinetic matrix D^-1 (T_x + 1/4) D^-1 / (2 mu).  DomainError when that
    matrix is not finite.
    """
    import numpy as np

    x, h = np.linspace(math.log(box[0]), math.log(box[1]), points, retstep=True)
    r = np.exp(x)
    k = np.arange(1, points)
    side = np.where(k % 2, -2.0, 2.0) / (k * k)
    band = np.concatenate((side[::-1], [math.pi ** 2 / 3.0 + h * h / 4.0], side))
    # The sinc kinetic matrix is Toeplitz: T[i, j] = band[points - 1 + j - i],
    # a view into the band with a row stride of minus one entry, never copied.
    stride = band.itemsize
    toeplitz = np.ndarray((points, points), buffer=band, offset=(points - 1) * stride,
                          strides=(-stride, stride))
    # Extreme boxes or masses overflow here; anything not finite is refused below.
    with np.errstate(all="ignore"):
        v = np.asarray(potential(r), dtype=float)
        band /= 2.0 * mu * h * h
        inverse_r = 1.0 / r
        kinetic = np.multiply(toeplitz, inverse_r[:, None], out=np.empty((points, points)))
        kinetic *= inverse_r
    if not np.isfinite(kinetic).all():
        raise DomainError("DVR Hamiltonian is not finite on the grid")
    return r, v, kinetic


def _dvr_hamiltonian(build, ell: int, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The Hamiltonian of ``ell`` on a ``_dvr_build``, and V_eff at its
    points: V_eff is added to the diagonal of the build's kinetic matrix,
    in place.  DomainError when the diagonal is not finite; the build has
    checked the rest.
    """
    import numpy as np

    r, v, ham = build
    diagonal = ham.reshape(-1)[:: len(r) + 1]
    with np.errstate(all="ignore"):
        v_eff = _v_eff(v, ell, mu, r)
        diagonal += v_eff
    if not np.isfinite(diagonal).all():
        raise DomainError("DVR Hamiltonian is not finite on the grid")
    return ham, v_eff


def _dvr_eigensolve(ham: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``count`` eigenpairs of the DVR Hamiltonian ``ham``, which the
    solve overwrites: energies and unit eigenvectors as columns (psi at the
    grid points times sqrt(h)).  ConvergenceError when the solve fails.
    """
    import numpy as np
    from scipy.linalg.lapack import dsyevr  # the only scipy the package loads

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
    return energies[:count], vectors


def _dvr_slopes(energies: np.ndarray, vectors: np.ndarray, v: np.ndarray,
                mu: float) -> np.ndarray:
    """<p^4>/mu of each state: 4 mu <(E - V)^2>, summed over the grid points
    of its unit eigenvector (a column of ``vectors``), with V ``v`` there.
    The sum runs in grid order for any number of states: ``np.sum`` would add
    a lone state's products pairwise, so its slope would depend on n_max.
    """
    import numpy as np

    with np.errstate(all="ignore"):  # a non-finite slope never agrees, so it never passes
        products = vectors * vectors * (energies - v[:, None]) ** 2
        return 4.0 * mu * np.cumsum(products, axis=0)[-1]


def _dvr_levels(potential: RadialPotential, ells: Sequence[int], mu: float,
                box: tuple[float, float], count: int, sizes: Sequence[int]) -> list:
    """Converged energies and <p^4>/mu slopes of the lowest ``count`` states
    at each of ``ells``, which share ``box``: for each ell in turn, that
    pair or the GupmolError that stopped it.

    Each ell solves the DVR at each of ``sizes`` points in turn, each size
    at least ``count``, and accepts the finer of the first two successive
    solves that agree to DVR_RTOL on every energy and slope.  Only the
    accepted solve must pass the bound-state, wall-amplitude and node-count
    checks (GridError or ConvergenceError); a coarser one that would fail
    them just moves on to the next size.  ConvergenceError, naming the
    sizes, when no two successive solves agree.  The ells climb their
    ladders together, one size at a time, on one ``_dvr_build`` per size.
    """
    import numpy as np

    previous = dict.fromkeys(ells)
    results = {}
    for size in sizes:
        climbing = [ell for ell in ells if ell not in results]
        if not climbing:
            break
        try:
            r, v, kinetic = _dvr_build(potential, mu, box, size)
        except GupmolError as exc:  # no ell can solve at this size
            results.update(dict.fromkeys(climbing, exc))
            continue
        for ell in climbing:
            try:
                # every ell but the last at this size works on a copy of the build
                ham, v_eff = _dvr_hamiltonian(
                    (r, v, kinetic if ell == climbing[-1] else kinetic.copy()), ell, mu)
                energies, vectors = _dvr_eigensolve(ham, count)
                slopes = _dvr_slopes(energies, vectors, v, mu)
                current = np.array([energies, slopes])
                with np.errstate(invalid="ignore"):  # inf - inf is nan, which never agrees
                    agree = previous[ell] is not None and np.all(
                        np.abs(current - previous[ell]) <= DVR_RTOL * np.abs(current))
                if agree:
                    _check_states(energies, vectors.T, v_eff, *box)
                    results[ell] = energies, slopes
                previous[ell] = current
            except GupmolError as exc:
                results[ell] = exc
    not_converged = ConvergenceError(f"sinc DVR not converged: no two successive solves at "
                                     f"N = {', '.join(map(str, sizes))} agree to {DVR_RTOL:g}")
    return [results.get(ell, not_converged) for ell in ells]


def _dvr_well(potential: RadialPotential, mu: float, l_max: int, n_max: int, r_scale: float,
              r_max: float | None, sizes: Sequence[int]) -> list:
    """For each ell up to ``l_max``, the converged energies and slopes of
    the lowest n_max + 1 states on its box (``_dvr_box``, ``_dvr_levels``),
    or the GupmolError that stopped it.  V is sampled on the box grid once,
    and consecutive ells with equal boxes share each size's build.
    """
    grid = _box_grid(potential, r_scale)
    boxes = []
    for ell in range(l_max + 1):
        try:
            boxes.append(_dvr_box(potential, grid, mu, ell, n_max, r_scale, r_max))
        except GupmolError as exc:
            boxes.append(exc)
    results = []
    # an error equals only itself, so each refused ell is a run of its own
    for box, run in groupby(range(l_max + 1), key=boxes.__getitem__):
        results += ([box] if isinstance(box, GupmolError)
                    else _dvr_levels(potential, list(run), mu, box, n_max + 1, sizes))
    return results
