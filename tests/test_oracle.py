import math
import re
from functools import partial

import numpy as np
import pytest
from scipy.linalg import eigh

from gupmol import (
    ConvergenceError,
    DomainError,
    GridError,
    closed_vs_oracle_sweep,
    kratzer_energy_undeformed,
    pho_energy_undeformed,
    synthetic_molecule,
)
from gupmol import oracle
from gupmol.core import QuantumNumbers
from gupmol.kratzer import KRATZER
from gupmol.oracle import (
    DVR_MAX_POINTS,
    INNER_WALL,
    _box_grid,
    _check_states,
    _count_nodes,
    _dvr_box,
    _dvr_build,
    _dvr_eigensolve,
    _dvr_hamiltonian,
    _dvr_levels,
    _dvr_slopes,
    _dvr_well,
    _v_eff,
    _walk,
)
from gupmol.spectroscopy import get_model


def coulomb(r):
    return -1.0 / r


def hydrogenic_energy(n, ell, mu=1.0, g2=1.0, hbar=1.0):
    return -mu * g2 * g2 / (2.0 * hbar * hbar * (n + ell + 1) ** 2)


def dvr_grid(box, points):
    """The radii of the DVR's grid points on ``box``, as ``_dvr_build`` has them."""
    return np.exp(np.linspace(math.log(box[0]), math.log(box[1]), points))


def dvr_box(potential, mu, ell, n_max, r_scale, r_max=None):
    """The box of one ell, from a box grid sampled for it alone."""
    return _dvr_box(potential, _box_grid(potential, r_scale), mu, ell, n_max, r_scale, r_max)


def dvr_solve(potential, ell, mu, box, points, count):
    """One DVR solve from a build of its own: energies, <p^4>/mu slopes, unit
    eigenvectors as columns and V_eff at the grid points."""
    build = _dvr_build(potential, mu, box, points)
    ham, v_eff = _dvr_hamiltonian(build, ell, mu)
    energies, vectors = _dvr_eigensolve(ham, count)
    return energies, _dvr_slopes(energies, vectors, build[1], mu), vectors, v_eff


def checked_solve(potential, ell, mu, box, points, count):
    """One DVR solve whose states pass the bound-state, wall-amplitude and
    node-count checks: energies, slopes and unit eigenvectors as columns."""
    energies, slopes, vectors, v_eff = dvr_solve(potential, ell, mu, box, points, count)
    _check_states(energies, vectors.T, v_eff, *box)
    return energies, slopes, vectors


COULOMB_BOX = (1e-9, 80.0)

# 64 points doubled, five sizes: the power-of-two sizes of the sweep's default ladder
LADDER = (64, 128, 256, 512, 1024)

# the sweep's default ladder
HALF_OCTAVES = (64, 96, 128, 192, 256, 384, 512, 768, 1024)


@pytest.fixture(scope="module")
def coulomb_states():
    return checked_solve(coulomb, 0, 1.0, COULOMB_BOX, 512, 3)


class TestCoulomb:
    def test_raw_eigenvalues(self, coulomb_states):
        energies, _, _ = coulomb_states
        assert energies[0] == pytest.approx(-0.5, rel=1e-4)
        assert energies[1] == pytest.approx(-0.125, rel=1e-4)

    def test_node_counts_label_states(self, coulomb_states):
        _, _, vectors = coulomb_states
        assert _count_nodes(vectors).tolist() == [0, 1, 2]

    def test_normalization(self, coulomb_states):
        # a unit eigenvector is psi = r^(1/2) u at the points times sqrt(h),
        # so u = v / sqrt(h r) has int u^2 dr = 1; the trapezoid rule in r is
        # only as fine as the ln r grid is at large r (4e-4 here)
        _, _, vectors = coulomb_states
        r = dvr_grid(COULOMB_BOX, 512)
        h = math.log(r[1] / r[0])
        for v in vectors.T:
            u2 = v * v / (h * r)
            assert np.sum((u2[1:] + u2[:-1]) * np.diff(r)) / 2.0 == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_n(self, coulomb_states):
        energies, _, _ = coulomb_states
        assert list(energies) == sorted(energies)

    def test_monotone_in_ell(self):
        e_l0 = checked_solve(coulomb, 0, 1.0, COULOMB_BOX, 256, 1)[0][0]
        e_l1 = checked_solve(coulomb, 1, 1.0, COULOMB_BOX, 256, 1)[0][0]
        assert e_l0 < e_l1
        # accidental degeneracy: (n=0, l=1) matches (n=1, l=0) hydrogen level
        assert e_l1 == pytest.approx(hydrogenic_energy(0, 1), rel=1e-4)


class TestSolverContracts:
    def test_too_small_box_loses_bound_states(self):
        with pytest.raises(GridError, match="only 1 of the requested 2 states are bound"):
            checked_solve(coulomb, 0, 1.0, (1e-9, 5.0), 256, 2)

    def test_boundary_amplitude_guard(self):
        m = synthetic_molecule(20.0)
        pot = partial(KRATZER.potential, m)
        for points in (128, 512):  # outer turning point of n=3 is ~2.24
            with pytest.raises(GridError, match="enlarge r_max"):
                checked_solve(pot, 0, m.mu, (1e-3, 2.5), points, 4)

    # Hand-made states on eight points: V_eff 10 at both walls and 0 inside,
    # energies 1, 2 and 3, and 0, 1 and 2 nodes, each peaking at 1.
    WALLS = np.array([10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0])
    ENERGIES = np.array([1.0, 2.0, 3.0])
    STATES = ((0.0, 0.2, 0.6, 1.0, 1.0, 0.6, 0.2, 0.0),
              (0.0, 0.4, 1.0, 0.5, -0.5, -1.0, -0.4, 0.0),
              (0.0, 0.5, 1.0, -0.5, -0.5, 1.0, 0.5, 0.0))

    def check(self, *edits, v_eff=WALLS, energies=ENERGIES):
        """_check_states on STATES with each (state, point, value) of ``edits`` set."""
        states = np.array(self.STATES)
        for k, i, value in edits:
            states[k, i] = value
        _check_states(energies, states, v_eff, 0.1, 5.0)

    def refusal(self, error, *edits, **kwargs):
        with pytest.raises(error) as caught:
            self.check(*edits, **kwargs)
        return str(caught.value)

    def test_hand_made_states_pass(self):
        self.check()

    def test_unbound_state_is_refused_before_any_other_check(self):
        assert self.refusal(GridError, (0, 0, 0.5), (1, 3, 7.0),
                            energies=np.array([1.0, 2.0, 30.0])) == (
            "only 2 of the requested 3 states are bound on [0.1, 5] (V_eff at r_max = 10); "
            "enlarge the box")

    def test_amplitude_at_r_min_is_refused(self):
        assert self.refusal(GridError, (1, 0, 0.02)) == (
            "state 1: amplitude 2.00e-02 at r_min (relative 2.00e-02) exceeds 0.01; shrink r_min")

    def test_amplitude_at_r_min_is_allowed_where_the_wall_is_not_forbidden(self):
        # V_eff(r_min) = 1.5 lies above state 0 only: state 1's wall value is its
        # regular solution, not a leak
        walls = self.WALLS.copy()
        walls[0] = 1.5
        self.check((1, 0, 0.02), v_eff=walls)
        assert self.refusal(GridError, (0, 0, 0.02), v_eff=walls).startswith(
            "state 0: amplitude 2.00e-02 at r_min")

    def test_amplitude_at_r_max_is_refused(self):
        assert self.refusal(GridError, (2, 7, 3e-5)) == (
            "state 2: amplitude 3.00e-05 at r_max (relative 3.00e-05) exceeds 1e-05; "
            "enlarge r_max")

    def test_wrong_node_count_is_a_convergence_error(self):
        assert self.refusal(ConvergenceError, (1, 4, 0.5), (1, 5, 1.0), (1, 6, 0.4)) == (
            "state 1 has 0 interior nodes; eigensolve or grid is inconsistent")

    def test_first_failing_state_is_named(self):
        # state 0 gains a node, state 1 leaks at both walls
        assert self.refusal(ConvergenceError, (0, 6, -0.2), (1, 0, 0.5), (1, 7, 0.5)) == (
            "state 0 has 1 interior nodes; eigensolve or grid is inconsistent")

    def test_r_max_is_reported_before_r_min(self):
        assert self.refusal(GridError, (1, 0, 0.5), (1, 7, 0.25), (1, 4, 0.5)) == (
            "state 1: amplitude 2.50e-01 at r_max (relative 2.50e-01) exceeds 1e-05; "
            "enlarge r_max")

    def test_r_min_is_reported_before_the_node_count(self):
        assert self.refusal(GridError, (2, 0, 0.5), (2, 3, 0.5), (2, 4, 0.5)) == (
            "state 2: amplitude 5.00e-01 at r_min (relative 5.00e-01) exceeds 0.01; shrink r_min")


@pytest.fixture(scope="module")
def kratzer_case():
    m = synthetic_molecule(20.0)
    pot = partial(KRATZER.potential, m)
    box = dvr_box(pot, m.mu, 1, 1, m.re)
    return m, pot, box, checked_solve(pot, 1, m.mu, box, 256, 2)


class TestPerturbation:
    def test_p4_positive(self, kratzer_case):
        _, _, _, (_, slopes, _) = kratzer_case
        assert np.all(slopes > 0.0)

    def test_hellmann_feynman_agrees_with_the_eigenvectors(self, kratzer_case):
        # dE/dg1 = <1/r^2>: the central difference of the level in g1 against
        # the sum over the eigenvector, a route that shares only the matrix
        m, _, box, (_, _, vectors) = kratzer_case
        g1, g2 = m.de * m.re * m.re, 2.0 * m.de * m.re
        step = 1e-5 * g1
        upper, lower = (dvr_solve(lambda r: (g1 + s) / (r * r) - g2 / r, 1, m.mu, box, 256,
                                   2)[0] for s in (step, -step))
        r = dvr_grid(box, 256)
        expectation = np.sum(vectors * vectors / (r * r)[:, None], axis=0)
        np.testing.assert_allclose((upper - lower) / (2.0 * step), expectation, rtol=1e-8,
                                   atol=0)

    def test_virial_consistency(self, kratzer_case):
        # scaling r leaves the levels of a box the states have decayed in
        # unchanged: 2 <T> = <r V'>, with <T> = E - <V> taking the
        # centrifugal term, which scales as the kinetic one
        m, pot, box, (energies, _, vectors) = kratzer_case
        g1, g2 = m.de * m.re * m.re, 2.0 * m.de * m.re
        r = dvr_grid(box, 256)
        weights = vectors * vectors
        potential = weights.T @ pot(r)
        r_dv = weights.T @ (-2.0 * g1 / (r * r) + g2 / r)
        np.testing.assert_allclose(2.0 * (energies - potential), r_dv, rtol=1e-10, atol=0)


class TestGridChoice:
    def test_eigenvalue_insensitive_to_inner_wall(self, converged):
        m = synthetic_molecule(20.0)
        pot = partial(KRATZER.potential, m)
        r_max = dvr_box(pot, m.mu, 0, 0, m.re)[1]
        values = [converged(pot, 0, m.mu, (r_min, r_max), 1, LADDER + (2048,))[0][0]
                  for r_min in (1e-3, 5e-4)]
        assert abs(values[0] - values[1]) <= 1e-8 * abs(values[0])

    def test_auto_grid_requires_a_well(self):
        with pytest.raises(DomainError):
            dvr_box(coulomb, 1.0, 0, 2, 1.0)

    def test_given_r_max_boxes_a_potential_without_a_well(self):
        assert dvr_box(coulomb, 1.0, 0, 2, 1.0, r_max=40.0) == (INNER_WALL, 40.0)

    def test_inner_wall_past_a_given_r_max_falls_back_to_the_clamp(self):
        m = synthetic_molecule(20.0)
        pot = partial(KRATZER.potential, m)
        assert dvr_box(pot, m.mu, 0, 0, m.re)[0] > 0.1
        assert dvr_box(pot, m.mu, 0, 0, m.re, r_max=0.1) == (INNER_WALL * m.re, 0.1)

    def test_auto_grid_boxes_both_potentials(self, converged):
        for g in (20.0, 100.0):
            m = synthetic_molecule(g)
            for pot in (partial(get_model(kind).potential, m) for kind in ("kratzer", "pho")):
                box = dvr_box(pot, m.mu, 2, 3, m.re)
                assert box[1] > m.re
                # box must actually hold the requested states
                converged(pot, 2, m.mu, box, 4, LADDER)


class TestMonotonicity:
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_energies_increase_in_n_and_ell(self, kind):
        for g in (20.0, 100.0):
            m = synthetic_molecule(g)
            pot = partial(get_model(kind).potential, m)
            by_ell = [checked_solve(pot, ell, m.mu, dvr_box(pot, m.mu, ell, 3, m.re), 256, 4)[0]
                      for ell in range(3)]
            assert np.all(np.diff(by_ell, axis=1) > 0.0)  # in n
            assert np.all(np.diff(by_ell, axis=0) > 0.0)  # in ell


class TestClosedFormAgreement:
    """Spot checks; the full sweep lives in the acceptance suite."""

    @staticmethod
    def ground_state(converged, kind):
        m = synthetic_molecule(100.0)
        pot = partial(get_model(kind).potential, m)
        return m, converged(pot, 0, m.mu, dvr_box(pot, m.mu, 0, 0, m.re), 1, LADDER)[0][0]

    def test_kratzer_ground_state(self, converged):
        m, energy = self.ground_state(converged, "kratzer")
        assert energy == pytest.approx(kratzer_energy_undeformed(m, QuantumNumbers(0, 0)),
                                       rel=1e-7)

    def test_pho_ground_state(self, converged):
        m, energy = self.ground_state(converged, "pho")
        assert energy == pytest.approx(pho_energy_undeformed(m, QuantumNumbers(0, 0)), rel=1e-7)


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
        ({"levels": 2.5}, "levels must be a nonnegative integer, got 2.5"),
        ({"levels": 2.0}, "levels must be a nonnegative integer, got 2.0"),
        ({"levels": True}, "levels must be a nonnegative integer, got True"),
        ({"base_points": 64.0}, "base_points must be a nonnegative integer, got 64.0"),
        ({"l_max": np.True_}, f"l_max must be a nonnegative integer, got {np.True_!r}"),
    ], ids=["negative-n", "negative-l", "bool-n", "float-l", "no-gamma", "no-potential",
            "fractional-levels", "float-levels", "bool-levels", "float-base-points",
            "numpy-bool-l"])
    def test_empty_or_invalid_configuration_rejected(self, monkeypatch, options, message):
        # nothing is solved: a configuration error comes before the first solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr("gupmol.verify._dvr_well", no_solve)
        config = {"gammas": (20.0,), "n_max": 0, "l_max": 0, **options}
        with pytest.raises(DomainError, match=re.escape(message)):
            closed_vs_oracle_sweep(**config)

    def test_numpy_integer_base_points_run_the_same_cells(self):
        config = {"potentials": ("kratzer",), "gammas": (20.0,), "n_max": 1, "l_max": 0}
        assert (closed_vs_oracle_sweep(base_points=np.int64(64), **config).cells
                == closed_vs_oracle_sweep(base_points=64, **config).cells)

    @pytest.mark.parametrize("options", [
        {"potentials": ("kratzer",), "gammas": (20.0, 1e80)},
        {"potentials": ("pho",), "gammas": (20.0, 0.5), "beta": 1e-6},
        {"n_max": 100, "l_max": 0, "base_points": 16, "levels": 3},
        {"tol_energy": 0.0},
        {"tol_correction": math.nan},
        {"base_points": 8},
        {"base_points": 64, "levels": 7},
        {"r_max": math.inf},
        {"r_max": 1e-4},
        {"n_max": -1},
        {"l_max": 1.5},
    ], ids=["late-nan-shift", "late-slope-pole", "no-size-holds-the-states", "tol-energy",
            "tol-correction", "base-points", "size-cap", "r-max-inf", "r-max-inside-the-wall",
            "n-max", "l-max"])
    def test_every_refusal_comes_before_the_first_solve(self, monkeypatch, options):
        calls = []
        for name in ("_box_grid", "_dvr_build", "_dvr_eigensolve"):
            original = getattr(oracle, name)
            monkeypatch.setattr(oracle, name,
                                lambda *args, f=original, **kw: calls.append(f) or f(*args, **kw))
        with pytest.raises(DomainError):
            closed_vs_oracle_sweep(**{"n_max": 4, "l_max": 3, **options})
        assert calls == []

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
        point = np.array([r])
        return float(_v_eff(potential(point), ell, mu, point)[0])

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
    pot = partial(get_model(kind).potential, m)
    for ell, n_max in [(0, 0), (3, 4)]:
        expected = stepwise_walls(pot, m.mu, ell, n_max, m.re)[wall]
        assert dvr_box(pot, m.mu, ell, n_max, m.re)[wall] == expected


class TestWalk:
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    @pytest.mark.parametrize("gamma_value", [2.0, 5.0, 20.0, 1000.0])
    def test_inner_wall_matches_the_stepwise_walk(self, kind, gamma_value):
        check_wall(kind, gamma_value, 0)

    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    @pytest.mark.parametrize("gamma_value", [2.0, 5.0, 20.0, 1000.0])
    def test_outer_wall_matches_the_stepwise_walk(self, kind, gamma_value):
        check_wall(kind, gamma_value, 1)

    # Hand-made walks with mu = 1/2, so that each step past the turning point
    # decays by sqrt(V_eff - e_top) times its length: r = 0, 1, 2, ... and
    # V_eff -1 at the first three points and 1 from there, each step 1.
    R = np.arange(400.0)
    V = np.where(R < 3.0, -1.0, 1.0)

    def walk(self, v=V, budget=1e6, r=R):
        end = _walk(r, v, 0.5, 0.0, budget)
        assert end == walk_reference(r, v, 0.5, 0.0, budget)
        return end

    @pytest.mark.parametrize("budget", [1, 2, 63, 64, 65, 100, 127, 128, 129, 300, 396])
    def test_budget_spent_after_any_number_of_steps(self, budget):
        # the sum reaches the budget exactly after ``budget`` steps from point
        # 3; budgets on both sides of 64 and 128 steps, where a sum taken in
        # windows of a power of two would carry its total
        assert self.walk(budget=budget) == 3.0 + budget

    @pytest.mark.parametrize("points", [5, 64, 65, 150, 400])
    def test_points_run_out(self, points):
        assert self.walk(budget=points, r=self.R[:points], v=self.V[:points]) is None

    def test_overflowing_term_spends_the_budget(self):
        v = self.V.copy()
        v[170] = 1e308  # 2 mu (V_eff - e_top) is 1e308, k^2 2e308: inf
        assert self.walk(v) == 171.0

    @pytest.mark.parametrize("point, end", [(1, 2.0), (3, 4.0), (90, 91.0), (398, 399.0)])
    def test_nan_v_eff_ends_the_walk_at_the_next_point(self, point, end):
        # ~(nan < e_top) makes a NaN the turning point if none comes before
        # it, and its decay, nan, is not below the budget either
        v = self.V.copy()
        v[point] = math.nan
        assert self.walk(v) == end

    def test_no_turning_point(self):
        assert self.walk(np.full(400, -1.0)) is None
        assert self.walk(np.append(np.full(399, -1.0), 1.0)) is None  # the last point is no step

    @pytest.mark.parametrize("budget", [5.0, 18.0, 36.0, 90.0, 400.0])
    def test_uneven_steps_end_where_the_running_sum_does(self, budget):
        # an outward walk in a Kratzer well, on steps of 0.02 in ln r: uneven
        # steps and decays that end 23, 46, 65, 95 and 157 steps past the
        # turning point, each to the last bit of the running sum's end
        r = np.exp(0.02 * np.arange(900))
        v = 1.0 / (r * r) - 2.0 / r
        end = _walk(r, v, 0.5, -0.01, budget)
        assert end is not None and end == walk_reference(r, v, 0.5, -0.01, budget)


def walk_reference(r, v, mu, e_top, budget):
    """``_walk`` point by point in Python floats: the first point short of the
    last whose V_eff is not below e_top, then a running sum, from there, of
    k times the step after each point, until the sum is not below the budget."""
    r, v = r.tolist(), v.tolist()
    j = next((k for k in range(len(r) - 1) if not v[k] < e_top), None)
    if j is None:
        return None
    decay = 0.0
    for k in range(j, len(r) - 1):
        decay += math.sqrt(2.0 * mu * max(v[k] - e_top, 0.0)) * abs(r[k + 1] - r[k])
        if not decay < budget:
            return r[k + 1]
    return None


def full_dvr_solve(potential, ell, mu, box, points, count):
    """Lowest ``count`` energies and <p^4>/mu slopes of the sinc DVR on
    ``points`` points, from all eigenpairs of the matrix written entry by
    entry: the reference for the subset solve."""
    x, h = np.linspace(np.log(box[0]), np.log(box[1]), points, retstep=True)
    r = np.exp(x)
    d = np.abs(np.subtract.outer(np.arange(points), np.arange(points)))
    t_x = np.where(d == 0, np.pi ** 2 / 3.0, 2.0 * (-1.0) ** d / np.maximum(d, 1) ** 2)
    ham = (t_x + np.where(d == 0, h * h / 4.0, 0.0)) / (2.0 * mu * h * h) / np.outer(r, r)
    ham += np.diag(_v_eff(potential(r), ell, mu, r))
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
        pot = partial(get_model(kind).potential, m)
        box = dvr_box(pot, m.mu, ell, 4, m.re)
        energies, slopes, _, _ = dvr_solve(pot, ell, m.mu, box, points, 5)
        expected_energies, expected_slopes = full_dvr_solve(pot, ell, m.mu, box, points, 5)
        np.testing.assert_allclose(energies, expected_energies, rtol=1e-12, atol=0)
        np.testing.assert_allclose(slopes, expected_slopes, rtol=slope_rtol, atol=0)

    @pytest.mark.parametrize("potential, box", [
        (lambda r: np.where(r > 1.0, np.nan, -1.0 / r), (0.1, 3.0)),
        (coulomb, (1e-200, 3.0)),
    ], ids=["nan-potential", "kinetic-overflow"])
    def test_hamiltonian_not_finite_is_refused(self, potential, box):
        # V not finite at some points spoils only the diagonal; 1/r_min^2
        # beyond float range spoils the kinetic matrix every ell shares
        with pytest.raises(DomainError, match="^DVR Hamiltonian is not finite on the grid$"):
            dvr_solve(potential, 0, 1.0, box, 64, 2)
        results = _dvr_levels(potential, [0, 1], 1.0, box, 2, (64, 96))
        assert [str(result) for result in results] == [
            "DVR Hamiltonian is not finite on the grid"] * 2

    @pytest.mark.parametrize("points", [64, 1024])
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_slopes_sum_in_grid_order(self, kind, points):
        # each slope is 4 mu times the products psi^2 (E - V)^2 added one after
        # another in grid order, to the last bit, for a lone state as for five
        m = synthetic_molecule(20.0)
        pot = partial(get_model(kind).potential, m)
        box = dvr_box(pot, m.mu, 1, 4, m.re)
        v = pot(dvr_grid(box, points)).tolist()
        for count in (5, 1):
            energies, slopes, vectors, _ = dvr_solve(pot, 1, m.mu, box, points, count)
            for k, energy in enumerate(energies.tolist()):
                total = 0.0
                for x, v_i in zip(vectors[:, k].tolist(), v):
                    total += x * x * ((energy - v_i) * (energy - v_i))
                assert slopes[k] == 4.0 * m.mu * total, (count, k)

    @pytest.mark.parametrize("gamma_value", [20.0, 1000.0])
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_shared_build_matches_a_build_per_ell(self, monkeypatch, converged, kind,
                                                  gamma_value):
        # at gamma 1000 the boxes of l <= 3 coincide, so the four ells share
        # one build per size; at gamma 20 some ells have boxes of their own
        m = synthetic_molecule(gamma_value)
        pot = partial(get_model(kind).potential, m)
        grid = _box_grid(pot, m.re)
        boxes = [_dvr_box(pot, grid, m.mu, ell, 4, m.re) for ell in range(4)]
        assert (len(set(boxes)) == 1) == (gamma_value == 1000.0)
        builds, sizes = [], []
        build, solve = oracle._dvr_build, oracle._dvr_eigensolve
        monkeypatch.setattr(oracle, "_dvr_build",
                            lambda *args: builds.append(args[3]) or build(*args))
        monkeypatch.setattr(oracle, "_dvr_eigensolve",
                            lambda ham, count: sizes.append(len(ham)) or solve(ham, count))
        shared = _dvr_well(pot, m.mu, 3, 4, m.re, None, HALF_OCTAVES)
        if gamma_value == 1000.0:
            assert builds == list(HALF_OCTAVES[:len(builds)]) and len(sizes) > len(builds)
        for ell, (box, (energies, slopes)) in enumerate(zip(boxes, shared)):
            sizes.clear()
            converged(pot, ell, m.mu, box, 5, HALF_OCTAVES)  # alone, for its accepted size
            alone = dvr_solve(pot, ell, m.mu, box, sizes[-1], 5)
            assert np.array_equal(energies, alone[0]) and np.array_equal(slopes, alone[1])

    @pytest.mark.parametrize("ell", [0, 3])
    @pytest.mark.parametrize("kind", ["kratzer", "pho"])
    def test_potential_evaluated_once_per_solve(self, kind, ell):
        m = synthetic_molecule(20.0)
        pot = partial(get_model(kind).potential, m)
        calls = []

        def counted(r):
            calls.append(None)
            return pot(r)

        box = dvr_box(pot, m.mu, ell, 4, m.re)
        *_, v_eff = dvr_solve(counted, ell, m.mu, box, 128, 5)  # one build of its own
        assert len(calls) == 1
        r = np.exp(np.linspace(math.log(box[0]), math.log(box[1]), 128))  # as _dvr_build has it
        assert np.array_equal(v_eff, _v_eff(pot(r), ell, m.mu, r))

    def test_matches_the_closed_forms(self):
        report = closed_vs_oracle_sweep(gammas=(5.0, 20.0, 100.0, 1000.0), n_max=4, l_max=3,
                                        beta=1e-6, tol_energy=1e-8, tol_correction=1e-8)
        assert len(report.cells) == 2 * 4 * 5 * 4
        assert report.all_passed, [c for c in report.cells if not c.passed]

    @pytest.mark.parametrize("info, found", [(1, 5), (0, 4)])
    def test_failed_eigensolve_is_a_convergence_error(self, monkeypatch, info, found):
        def dsyevr(a, iu, **_):
            return np.zeros(len(a)), np.zeros((len(a), iu)), found, None, info

        monkeypatch.setattr("scipy.linalg.lapack.dsyevr", dsyevr)  # imported per eigensolve
        m = synthetic_molecule(20.0)
        with pytest.raises(ConvergenceError, match="eigensolve failed"):
            dvr_solve(partial(get_model("pho").potential, m), 0, m.mu, (0.1, 3.0), 64, 5)

    def test_small_gamma_meets_the_acceptance_tolerances(self):
        # LAPACK's default bisection tolerance, or reducing the upper
        # triangle, loses digits as eps * |H| here
        report = closed_vs_oracle_sweep(gammas=(2.5, 2.8, 3.0), n_max=4, l_max=3)
        assert report.all_passed, [c for c in report.cells if not c.passed]

    def test_inner_wall_is_the_clamp_only_for_a_shallow_well(self):
        for kind, gamma_value, clamped in [("pho", 0.5, True), ("kratzer", 5.0, False),
                                           ("pho", 100.0, False)]:
            m = synthetic_molecule(gamma_value)
            r_min, r_max = dvr_box(partial(get_model(kind).potential, m), m.mu, 0, 0, m.re)
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

    @pytest.mark.parametrize("n_max, solved, note", [
        (50, [64], "no two successive solves at N = 64 agree to 1e-08"),
        (40, [48, 64], "no two successive solves at N = 48, 64 agree to 1e-08"),
    ], ids=["one-solved", "two-solved"])
    def test_not_converged_note_names_the_sizes_solved(self, monkeypatch, n_max, solved, note):
        sizes = []
        solve = oracle._dvr_eigensolve
        monkeypatch.setattr(oracle, "_dvr_eigensolve",
                            lambda ham, count: sizes.append(len(ham)) or solve(ham, count))
        report = closed_vs_oracle_sweep(potentials=("kratzer",), gammas=(20.0,), n_max=n_max,
                                        l_max=0, base_points=16, levels=3)
        assert sizes == solved
        assert {cell.note for cell in report.cells} == {f"sinc DVR not converged: {note}"}

    def test_default_sizes_climb_in_half_octaves(self, monkeypatch):
        # a stand-in eigensolve whose levels move by 1 each call, so no two agree
        sizes = []

        def never_agrees(ham, count):
            sizes.append(len(ham))
            return np.full(count, float(len(sizes))), np.zeros((len(ham), count))

        monkeypatch.setattr(oracle, "_dvr_eigensolve", never_agrees)
        report = closed_vs_oracle_sweep(potentials=("kratzer",), gammas=(20.0,), n_max=0,
                                        l_max=0)
        assert sizes == list(HALF_OCTAVES)
        assert "N = 64, 96, 128, 192, 256, 384, 512, 768, 1024 agree" in report.cells[0].note

    def test_deep_pho_well_converges_between_the_last_two_sizes(self):
        # 768 and 1024 points agree; 512 and 1024, the last pair of a
        # doubling ladder, did not
        report = closed_vs_oracle_sweep(potentials=("pho",), gammas=(1e7,), n_max=1, l_max=0)
        assert report.all_passed, [c.note for c in report.cells]

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
