import math
import re

import numpy as np
import pytest
from scipy.linalg import eigh

from gupmol import (
    ConvergenceError,
    DomainError,
    GridError,
    KratzerPotential,
    PhoPotential,
    RadialGrid,
    closed_vs_oracle_sweep,
    extrapolate,
    kratzer_energy_undeformed,
    p4_expectation,
    pho_energy_undeformed,
    solve_radial,
    synthetic_molecule,
)
from gupmol import oracle
from gupmol.core import QuantumNumbers
from gupmol.oracle import (
    DVR_MAX_POINTS,
    INNER_WALL,
    _dvr_box,
    _dvr_solve,
    _edge_extrapolated,
    _simpson,
    _v_eff,
)
from gupmol.spectroscopy import get_model


def coulomb(r):
    return -1.0 / r


def hydrogenic_energy(n, ell, mu=1.0, g2=1.0, hbar=1.0):
    return -mu * g2 * g2 / (2.0 * hbar * hbar * (n + ell + 1) ** 2)


def fd_grid(pot, m, ell, n_max, points, r_min=None):
    """Finite-difference grid out to the DVR box's outer wall, from r_min
    (INNER_WALL * re by default)."""
    r_min = INNER_WALL * m.re if r_min is None else r_min
    return RadialGrid(r_min, _dvr_box(pot, m.mu, ell, n_max, m.re)[1], points)


def _p4_second_difference(state):
    """<p^4> from explicit second differences of u: p^2 u = -u'' + ell(ell+1) u / r^2,
    squared and integrated.  Agrees with p4_expectation only to the
    discretization order; the (E - V)^2 form is the primary definition."""
    r, u = state.r, state.u
    h = r[1] - r[0]
    ell = state.qn.ell
    p2u = np.empty_like(u)
    p2u[1:-1] = -(u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    p2u[1:-1] += ell * (ell + 1) * u[1:-1] / (r[1:-1] * r[1:-1])
    p2u = _edge_extrapolated(p2u)
    return _simpson(p2u * p2u, r)


def _kinetic_expectation(state, mu):
    """<p^2>/2mu from du/dr (central differences) plus the centrifugal piece:
    independent of the eigensolve's own identity E = T + V on the discrete
    operator, so comparing it against E - <V> is a real consistency check."""
    r, u = state.r, state.u
    du = np.gradient(u, r, edge_order=2)
    ell = state.qn.ell
    h2m = 1.0 / (2.0 * mu)
    value = h2m * _simpson(du * du, r)
    if ell:
        value += h2m * ell * (ell + 1) * _simpson(u * u / (r * r), r)
    return value


def _potential_expectation(state, potential):
    return _simpson(state.u * state.u * np.asarray(potential(state.r), dtype=float), state.r)


class TestGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialGrid(r_min=0.0, r_max=1.0, points=100)
        with pytest.raises(DomainError):
            RadialGrid(r_min=2.0, r_max=1.0, points=100)
        with pytest.raises(DomainError):
            RadialGrid(r_min=0.1, r_max=1.0, points=4)

    def test_refined_nests(self):
        grid = RadialGrid(0.1, 2.1, 101)
        fine = grid.refined()
        assert fine.points == 201
        assert fine.spacing == pytest.approx(grid.spacing / 2.0, rel=1e-15)
        assert np.allclose(fine.positions()[::2], grid.positions())


@pytest.fixture(scope="module")
def coulomb_states():
    grid = RadialGrid(1e-9, 60.0, 8001)
    return solve_radial(coulomb, 0, 1.0, grid, 3)


class TestCoulomb:
    def test_raw_eigenvalues(self, coulomb_states):
        assert coulomb_states[0].energy == pytest.approx(-0.5, rel=1e-4)
        assert coulomb_states[1].energy == pytest.approx(-0.125, rel=1e-4)

    def test_node_counts_label_states(self, coulomb_states):
        for k, state in enumerate(coulomb_states):
            assert state.qn.n == k

    def test_normalization(self, coulomb_states):
        for state in coulomb_states:
            assert state.norm_check == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_n(self, coulomb_states):
        energies = [s.energy for s in coulomb_states]
        assert energies == sorted(energies)

    def test_monotone_in_ell(self):
        grid = RadialGrid(1e-9, 60.0, 4001)
        e_l0 = solve_radial(coulomb, 0, 1.0, grid, 1)[0].energy
        e_l1 = solve_radial(coulomb, 1, 1.0, grid, 1)[0].energy
        assert e_l0 < e_l1
        # accidental degeneracy: (n=0, l=1) matches (n=1, l=0) hydrogen level
        assert e_l1 == pytest.approx(hydrogenic_energy(0, 1), rel=1e-4)


class TestSolverContracts:
    def test_too_small_box_loses_bound_states(self):
        grid = RadialGrid(1e-9, 5.0, 2001)
        with pytest.raises(GridError, match="bound"):
            solve_radial(coulomb, 0, 1.0, grid, 2)

    def test_boundary_amplitude_guard(self):
        m = synthetic_molecule(20.0)
        pot = KratzerPotential.from_molecule(m)
        grid = RadialGrid(1e-3, 2.5, 2001)  # outer turning point of n=3 is ~2.24
        with pytest.raises(GridError, match="r_max"):
            solve_radial(pot, 0, m.mu, grid, 4)

    def test_bad_count(self):
        grid = RadialGrid(1e-9, 40.0, 1001)
        with pytest.raises(DomainError):
            solve_radial(coulomb, 0, 1.0, grid, 0)


@pytest.fixture(scope="module")
def kratzer_case():
    m = synthetic_molecule(20.0)
    pot = KratzerPotential.from_molecule(m)
    grid = fd_grid(pot, m, 0, 1, 2001)
    states = solve_radial(pot, 0, m.mu, grid, 2)
    return m, pot, grid, states


class TestPerturbation:
    def test_p4_positive(self, kratzer_case):
        m, pot, _, states = kratzer_case
        for state in states:
            assert p4_expectation(state, pot, m.mu) > 0.0

    def test_second_difference_route_agrees(self, kratzer_case):
        m, pot, _, states = kratzer_case
        primary = p4_expectation(states[0], pot, m.mu)
        alternative = _p4_second_difference(states[0])
        assert alternative == pytest.approx(primary, rel=1e-2)

    def test_quadratic_convergence_of_p4(self, kratzer_case):
        m, pot, grid, _ = kratzer_case
        values = []
        g = grid
        for _ in range(3):
            state = solve_radial(pot, 0, m.mu, g, 1)[0]
            values.append(p4_expectation(state, pot, m.mu))
            g = g.refined()
        ratio = (values[0] - values[1]) / (values[1] - values[2])
        assert ratio == pytest.approx(4.0, rel=0.25)

    def test_virial_consistency(self, kratzer_case):
        m, pot, grid, _ = kratzer_case
        ratios = []
        g = grid
        for _ in range(3):
            state = solve_radial(pot, 1, m.mu, g, 1)[0]
            lhs = _kinetic_expectation(state, m.mu)
            rhs = state.energy - _potential_expectation(state, pot)
            ratios.append(lhs / rhs)
            g = g.refined()
        assert extrapolate(ratios) == pytest.approx(1.0, abs=1e-6)


class TestGridChoice:
    def test_eigenvalue_insensitive_to_inner_wall(self):
        m = synthetic_molecule(20.0)
        pot = KratzerPotential.from_molecule(m)
        values = []
        for r_min in (1e-3, 5e-4):
            grid = fd_grid(pot, m, 0, 0, 4001, r_min=r_min)
            ladder = []
            g = grid
            for _ in range(3):
                ladder.append(solve_radial(pot, 0, m.mu, g, 1)[0].energy)
                g = g.refined()
            values.append(extrapolate(ladder))
        assert abs(values[0] - values[1]) <= 1e-8 * abs(values[0])

    def test_auto_grid_requires_a_well(self):
        with pytest.raises(DomainError):
            _dvr_box(coulomb, 1.0, 0, 2, 1.0)

    def test_given_r_max_boxes_a_potential_without_a_well(self):
        assert _dvr_box(coulomb, 1.0, 0, 2, 1.0, r_max=40.0) == (INNER_WALL, 40.0)

    def test_inner_wall_past_a_given_r_max_falls_back_to_the_clamp(self):
        m = synthetic_molecule(20.0)
        pot = KratzerPotential.from_molecule(m)
        assert _dvr_box(pot, m.mu, 0, 0, m.re)[0] > 0.1
        assert _dvr_box(pot, m.mu, 0, 0, m.re, r_max=0.1) == (INNER_WALL * m.re, 0.1)

    def test_auto_grid_boxes_both_potentials(self):
        for g in (20.0, 100.0):
            m = synthetic_molecule(g)
            for pot in (KratzerPotential.from_molecule(m), PhoPotential.from_molecule(m)):
                grid = fd_grid(pot, m, 2, 3, 4001)
                assert grid.r_max > m.re
                # box must actually hold the requested states
                solve_radial(pot, 2, m.mu, grid, 4)


class TestMonotonicity:
    @pytest.mark.parametrize("make_potential", [KratzerPotential.from_molecule,
                                                PhoPotential.from_molecule])
    def test_energies_increase_in_n_and_ell(self, make_potential):
        m = synthetic_molecule(20.0)
        pot = make_potential(m)
        by_ell = []
        for ell in range(3):
            grid = fd_grid(pot, m, ell, 3, 2001)
            states = solve_radial(pot, ell, m.mu, grid, 4)
            energies = [s.energy for s in states]
            assert all(a < b for a, b in zip(energies, energies[1:]))
            by_ell.append(energies)
        for n in range(4):
            ladder = [by_ell[ell][n] for ell in range(3)]
            assert all(a < b for a, b in zip(ladder, ladder[1:]))


class TestClosedFormAgreement:
    """Spot checks; the full sweep lives in the acceptance suite."""

    def test_kratzer_ground_state(self):
        m = synthetic_molecule(100.0)
        pot = KratzerPotential.from_molecule(m)
        grid = fd_grid(pot, m, 0, 0, 2001)
        ladder = []
        g = grid
        for _ in range(3):
            ladder.append(solve_radial(pot, 0, m.mu, g, 1)[0].energy)
            g = g.refined()
        exact = kratzer_energy_undeformed(m, QuantumNumbers(0, 0))
        assert extrapolate(ladder) == pytest.approx(exact, rel=1e-7)

    def test_pho_ground_state(self):
        m = synthetic_molecule(100.0)
        pot = PhoPotential.from_molecule(m)
        grid = fd_grid(pot, m, 0, 0, 2001)
        ladder = []
        g = grid
        for _ in range(3):
            ladder.append(solve_radial(pot, 0, m.mu, g, 1)[0].energy)
            g = g.refined()
        exact = pho_energy_undeformed(m, QuantumNumbers(0, 0))
        assert extrapolate(ladder) == pytest.approx(exact, rel=1e-7)


class TestSweep:
    @pytest.mark.parametrize("levels", [0, -1])
    def test_levels_below_one_rejected(self, levels):
        with pytest.raises(DomainError, match="levels"):
            closed_vs_oracle_sweep(gammas=(20.0,), n_max=0, l_max=0, levels=levels)

    @pytest.mark.parametrize("options, message", [
        ({"n_max": -1}, "n_max must be a nonnegative integer, got -1"),
        ({"l_max": -1}, "l_max must be a nonnegative integer, got -1"),
        ({"n_max": True}, "n_max must be a nonnegative integer, got True"),
        ({"l_max": 1.0}, "l_max must be a nonnegative integer, got 1.0"),
        ({"gammas": ()}, "the sweep needs at least one potential and one gamma"),
        ({"potentials": ()}, "the sweep needs at least one potential and one gamma"),
    ], ids=["negative-n", "negative-l", "bool-n", "float-l", "no-gamma", "no-potential"])
    def test_empty_or_invalid_configuration_rejected(self, monkeypatch, options, message):
        # nothing is solved: a configuration error comes before the first solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr("gupmol.verify._dvr_levels", no_solve)
        config = {"gammas": (20.0,), "n_max": 0, "l_max": 0, **options}
        with pytest.raises(DomainError, match=re.escape(message)):
            closed_vs_oracle_sweep(**config)

    def test_numpy_integer_counts_accepted(self):
        report = closed_vs_oracle_sweep(potentials=("pho",), gammas=(20.0,), n_max=np.int64(1),
                                        l_max=np.int64(0))
        assert len(report.cells) == 2 and report.all_passed

    def test_shallow_well_cell_fails_fast(self):
        report = closed_vs_oracle_sweep(potentials=("kratzer",), gammas=(1e-3,), n_max=0,
                                        l_max=0, beta=0.0)
        (cell,) = report.cells
        assert not cell.passed
        assert "box edge not reached between the minimum" in cell.note
        assert report.runtime_s < 20.0  # the unbounded walk took about 100 s

    def test_minimum_near_the_edge_of_the_search_window(self):
        # pho's l = 2 minimum at gamma 1e-3 lies at about 49.5 re, just inside
        # the 50 re window
        report = closed_vs_oracle_sweep(potentials=("pho",), gammas=(1e-3,), n_max=0, l_max=2,
                                        beta=0.0)
        assert [c.passed for c in report.cells if c.ell > 0] == [True, True]


def stepwise_walls(potential, mu, ell, n_max, r_scale):
    """Both walls of the automatic box as a point-by-point walk over the box
    grid finds them: the reference for the vectorized walk, which must match
    it to the last bit."""
    def v_eff(r):
        return float(_v_eff(potential, ell, mu, np.array([r]))[0])

    r = list(INNER_WALL * r_scale * np.exp(0.02 * np.arange(888)))
    assert r[-2] < 5e4 * r_scale <= r[-1]
    window = next(i for i, x in enumerate(r) if x >= 50.0 * r_scale) + 1
    i0 = min(range(window), key=lambda i: v_eff(r[i]))
    r0, v0 = r[i0], v_eff(r[i0])
    step = 1e-4 * r0
    curvature = (v_eff(r0 + step) - 2.0 * v0 + v_eff(r0 - step)) / (step * step)
    omega = np.sqrt(max(curvature, 0.0) / mu)
    e_top = v0 + omega * (2.0 * n_max + 2.5)
    v_inf = v_eff(r[-1])
    if e_top > v_inf:
        e_top = v_inf - 0.1 * (v_inf - v0)

    def walk(points, budget):
        """Where the walk ends, or None where the points run out first."""
        k = 0
        while k + 1 < len(points) and v_eff(points[k]) < e_top:
            k += 1
        accumulated = 0.0
        while k + 1 < len(points) and accumulated < budget:
            k_wkb = float(np.sqrt(2.0 * mu * max(v_eff(points[k]) - e_top, 0.0)))
            accumulated += k_wkb * abs(points[k + 1] - points[k])
            k += 1
        return points[k] if accumulated >= budget else None

    # the inner wall is the clamp, the grid's first point, where its walk runs out
    return walk(r[i0::-1], 18.0) or r[0], walk(r[i0:], 36.0)


def check_wall(kind, gamma_value, wall):
    m = synthetic_molecule(gamma_value)
    pot = get_model(kind).potential(m)
    for ell, n_max in [(0, 0), (3, 4)]:
        expected = stepwise_walls(pot, m.mu, ell, n_max, m.re)[wall]
        assert _dvr_box(pot, m.mu, ell, n_max, m.re)[wall] == expected


class TestWalk:
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    @pytest.mark.parametrize("gamma_value", [2.0, 5.0, 20.0, 1000.0])
    def test_inner_wall_matches_the_stepwise_walk(self, kind, gamma_value):
        check_wall(kind, gamma_value, 0)

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    @pytest.mark.parametrize("gamma_value", [2.0, 5.0, 20.0, 1000.0])
    def test_outer_wall_matches_the_stepwise_walk(self, kind, gamma_value):
        check_wall(kind, gamma_value, 1)


def full_dvr_solve(potential, ell, mu, box, points, count):
    """Lowest ``count`` energies and <p^4>/mu slopes of the sinc DVR on
    ``points`` points, from all eigenpairs of the matrix written entry by
    entry: the reference for the subset solve."""
    x, h = np.linspace(np.log(box[0]), np.log(box[1]), points, retstep=True)
    r = np.exp(x)
    d = np.abs(np.subtract.outer(np.arange(points), np.arange(points)))
    t_x = np.where(d == 0, np.pi ** 2 / 3.0, 2.0 * (-1.0) ** d / np.maximum(d, 1) ** 2)
    ham = (t_x + np.where(d == 0, h * h / 4.0, 0.0)) / (2.0 * mu * h * h) / np.outer(r, r)
    ham += np.diag(_v_eff(potential, ell, mu, r))
    energies, vectors = eigh(ham)
    energies, vectors = energies[:count], vectors[:, :count]
    v = potential(r)[:, None]
    return energies, 4.0 * mu * np.sum(vectors ** 2 * (energies - v) ** 2, axis=0)


class TestDVR:
    @pytest.mark.parametrize("points", [128, 512])
    @pytest.mark.parametrize("ell", [0, 3])
    # Kratzer's E and V both lie near -De, so E - V in the slope keeps only
    # about eps * gamma relative: at gamma 1e6 the two solves' Kratzer slopes
    # differ by up to 1e-9.
    @pytest.mark.parametrize("gamma_value, slope_rtol", [
        (2.5, 1e-11), (5.0, 1e-11), (1000.0, 1e-11), (1e6, 1e-8),
    ])
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_subset_solve_matches_the_full_solve(self, kind, gamma_value, slope_rtol, ell,
                                                 points):
        m = synthetic_molecule(gamma_value)
        pot = get_model(kind).potential(m)
        box = _dvr_box(pot, m.mu, ell, 4, m.re)
        energies, slopes, _, _ = _dvr_solve(pot, ell, m.mu, box, points, 5)
        expected_energies, expected_slopes = full_dvr_solve(pot, ell, m.mu, box, points, 5)
        np.testing.assert_allclose(energies, expected_energies, rtol=1e-12, atol=0)
        np.testing.assert_allclose(slopes, expected_slopes, rtol=slope_rtol, atol=0)

    @pytest.mark.parametrize("ell", [0, 3])
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_potential_evaluated_once_per_solve(self, kind, ell):
        m = synthetic_molecule(20.0)
        pot = get_model(kind).potential(m)
        calls = []

        def counted(r):
            calls.append(None)
            return pot(r)

        box = _dvr_box(pot, m.mu, ell, 4, m.re)
        *_, v_eff = _dvr_solve(counted, ell, m.mu, box, 128, 5)
        assert len(calls) == 1
        r = np.exp(np.linspace(math.log(box[0]), math.log(box[1]), 128))  # as _dvr_solve has it
        assert np.array_equal(v_eff, _v_eff(pot, ell, m.mu, r))

    def test_matches_the_closed_forms(self):
        report = closed_vs_oracle_sweep(gammas=(5.0, 20.0, 100.0, 1000.0), n_max=4, l_max=3,
                                        beta=1e-6, tol_energy=1e-8, tol_correction=1e-8)
        assert len(report.cells) == 2 * 4 * 5 * 4
        assert report.all_passed, [c for c in report.cells if not c.passed]

    @pytest.mark.parametrize("info, found", [(1, 5), (0, 4)])
    def test_failed_eigensolve_is_a_convergence_error(self, monkeypatch, info, found):
        def dsyevr(a, iu, **_):
            return np.zeros(len(a)), np.zeros((len(a), iu)), found, None, info

        monkeypatch.setattr(oracle, "dsyevr", dsyevr)
        m = synthetic_molecule(20.0)
        with pytest.raises(ConvergenceError, match="eigensolve failed"):
            _dvr_solve(get_model("pho").potential(m), 0, m.mu, (0.1, 3.0), 64, 5)

    def test_small_gamma_meets_the_acceptance_tolerances(self):
        # LAPACK's default bisection tolerance, or reducing the upper
        # triangle, loses digits as eps * |H| here
        report = closed_vs_oracle_sweep(gammas=(2.5, 2.8, 3.0), n_max=4, l_max=3)
        assert report.all_passed, [c for c in report.cells if not c.passed]

    def test_inner_wall_is_the_clamp_only_for_a_shallow_well(self):
        for kind, gamma_value, clamped in [("pho", 0.5, True), ("kratzer", 5.0, False),
                                           ("pho", 100.0, False)]:
            m = synthetic_molecule(gamma_value)
            r_min, r_max = _dvr_box(get_model(kind).potential(m), m.mu, 0, 0, m.re)
            assert (r_min == INNER_WALL * m.re) == clamped
            assert INNER_WALL * m.re <= r_min < m.re < r_max

    def test_one_solve_never_passes(self):
        report = closed_vs_oracle_sweep(gammas=(20.0,), n_max=1, l_max=1, levels=1)
        for cell in report.cells:
            assert not cell.passed
            assert "not converged" in cell.note

    def test_shallow_well_is_not_a_false_pass(self):
        # the wavefunction is not small at the clamped inner wall (0.001 re)
        report = closed_vs_oracle_sweep(potentials=("pho",), gammas=(0.5,), n_max=0, l_max=0,
                                        beta=0.0)
        (cell,) = report.cells
        assert not cell.passed
        assert cell.note

    def test_more_states_than_starting_points(self):
        report = closed_vs_oracle_sweep(potentials=("kratzer",), gammas=(100.0,), n_max=20,
                                        l_max=0, base_points=16, levels=6)
        assert report.all_passed, report.cells[0].note

    @pytest.mark.parametrize("gamma_value, r_max", [(20.0, 10.0), (1000.0, 3.0)])
    def test_hand_set_box(self, gamma_value, r_max):
        # the inner wall is still walked; at the bare clamp gamma 1000 never converges
        report = closed_vs_oracle_sweep(gammas=(gamma_value,), n_max=3, l_max=2, r_max=r_max)
        assert report.all_passed

    @pytest.mark.parametrize("base_points, levels", [
        (2 * DVR_MAX_POINTS, 1), (64, 7), (16, 10**9),
    ])
    def test_size_cap_is_checked_before_solving(self, base_points, levels):
        with pytest.raises(DomainError, match="cap"):
            closed_vs_oracle_sweep(gammas=(20.0,), n_max=0, l_max=0, base_points=base_points,
                                   levels=levels)
