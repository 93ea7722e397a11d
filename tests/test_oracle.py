import numpy as np
import pytest

from gupmol import (
    DomainError,
    GridError,
    KratzerPotential,
    PhoPotential,
    RadialGrid,
    auto_grid,
    closed_vs_oracle_sweep,
    dump_eigenstate,
    extrapolate,
    kinetic_expectation,
    kratzer_energy_undeformed,
    p4_expectation,
    p4_expectation_fd,
    pho_energy_undeformed,
    potential_expectation,
    solve_radial,
    synthetic_molecule,
)
from gupmol.core import QuantumNumbers
from gupmol.oracle import MAX_WALK_STEPS


def coulomb(r):
    return -1.0 / r


def hydrogenic_energy(n, ell, mu=1.0, g2=1.0, hbar=1.0):
    return -mu * g2 * g2 / (2.0 * hbar * hbar * (n + ell + 1) ** 2)


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
    grid = auto_grid(pot, m.mu, 0, 1, m.re, points=2001)
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
        alternative = p4_expectation_fd(states[0], pot, m.mu)
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
            lhs = kinetic_expectation(state, m.mu)
            rhs = state.energy - potential_expectation(state, pot)
            ratios.append(lhs / rhs)
            g = g.refined()
        assert extrapolate(ratios) == pytest.approx(1.0, abs=1e-6)


class TestGridChoice:
    def test_eigenvalue_insensitive_to_inner_wall(self):
        m = synthetic_molecule(20.0)
        pot = KratzerPotential.from_molecule(m)
        values = []
        for r_min in (1e-3, 5e-4):
            grid = auto_grid(pot, m.mu, 0, 0, m.re, points=4001, r_min=r_min)
            ladder = []
            g = grid
            for _ in range(3):
                ladder.append(solve_radial(pot, 0, m.mu, g, 1)[0].energy)
                g = g.refined()
            values.append(extrapolate(ladder))
        assert abs(values[0] - values[1]) <= 1e-8 * abs(values[0])

    def test_auto_grid_requires_a_well(self):
        with pytest.raises(DomainError):
            auto_grid(coulomb, 1.0, 0, 2, 1.0)

    def test_auto_grid_boxes_both_potentials(self):
        for g in (20.0, 100.0):
            m = synthetic_molecule(g)
            for pot in (KratzerPotential.from_molecule(m), PhoPotential.from_molecule(m)):
                grid = auto_grid(pot, m.mu, 2, 3, m.re)
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
            grid = auto_grid(pot, m.mu, ell, 3, m.re, points=2001)
            states = solve_radial(pot, ell, m.mu, grid, 4)
            energies = [s.energy for s in states]
            assert all(a < b for a, b in zip(energies, energies[1:]))
            by_ell.append(energies)
        for n in range(4):
            ladder = [by_ell[ell][n] for ell in range(3)]
            assert all(a < b for a, b in zip(ladder, ladder[1:]))


class TestDump:
    def test_two_column_text(self, coulomb_states, tmp_path):
        path = tmp_path / "state.txt"
        dump_eigenstate(coulomb_states[0], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# radial eigenstate n=0 ell=0 energy=")
        assert len(lines) == 1 + len(coulomb_states[0].r)
        r_val, u_val = (float(x) for x in lines[1].split())
        assert r_val == pytest.approx(coulomb_states[0].r[0])
        assert u_val == coulomb_states[0].u[0]

    def test_file_object_destination(self, coulomb_states, tmp_path):
        import io

        buffer = io.StringIO()
        dump_eigenstate(coulomb_states[0], buffer)
        assert buffer.getvalue().startswith("# radial eigenstate")


class TestClosedFormAgreement:
    """Spot checks; the full sweep lives in the acceptance suite."""

    def test_kratzer_ground_state(self):
        m = synthetic_molecule(100.0)
        pot = KratzerPotential.from_molecule(m)
        grid = auto_grid(pot, m.mu, 0, 0, m.re, points=2001)
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
        grid = auto_grid(pot, m.mu, 0, 0, m.re, points=2001)
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

    def test_shallow_well_cell_fails_fast(self):
        report = closed_vs_oracle_sweep(potentials=("kratzer",), gammas=(1e-3,), n_max=0,
                                        l_max=0, beta=0.0)
        (cell,) = report.cells
        assert not cell.passed
        assert f"box edge not reached in {MAX_WALK_STEPS} steps" in cell.note
        assert report.runtime_s < 20.0  # the unbounded walk took about 100 s
