"""Acceptance suite: one printed PASS/FAIL line per criterion (run with -s to see).

Criterion 5 is asserted at its stated 1% tolerance for all twelve constants.
Three of them cannot mathematically reach it and fail honestly: a least-
squares fit on the basis {1, nu, nu^2, nu^3, L, nu L} of the 1/r^2 - 1/r
closed-form spectrum aliases the neglected 1/gamma^4 terms (-5 nu^4 +
6 nu^2 L - L^2, nu = n+1/2, L-terms via (l+1/2)^2) onto the fitted columns
with node-leverage factors of order 10, leaving irreducible relative errors
of about 1.2e3/gamma^2 on y00, 12.5/gamma on weye and 10/gamma on alphae -
roughly 2-6% at gamma = 200 for any admissible integer-n table (four
distinct n at least).  The other nine constants recover well inside 1%,
and the same leakage measured here matches those analytic floors.
"""
import math
from functools import partial

import numpy as np
import pytest

from gupmol import (
    Deformation,
    Molecule,
    QuantumNumbers,
    closed_form_table,
    closed_vs_oracle_sweep,
    fit_beta_bound,
    fit_dunham,
    kratzer_correction_slope,
    kratzer_energy_deformed,
    kratzer_energy_undeformed,
    kratzer_spectroscopic_constants,
    load_levels,
    load_molecules,
    packaged_data_path,
    pho_correction_slope,
    pho_energy_deformed,
    pho_energy_undeformed,
    pho_spectroscopic_constants,
    synthetic_molecule,
)
from gupmol.kratzer import KRATZER
from gupmol.pho import PHO
from gupmol.oracle import (
    _check_states,
    _dvr_build,
    _dvr_eigensolve,
    _dvr_hamiltonian,
    _dvr_slopes,
)

TOL_ENERGY = 1e-6
TOL_CORRECTION = 1e-4
RUNTIME_BUDGET_S = 60.0


def report(criterion, passed, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweep():
    return closed_vs_oracle_sweep()


# --------------------------------------------------------------------------
# 1. undeformed closed forms vs the independent solver


def test_criterion_1_undeformed_levels(sweep):
    worst = sweep.max_energy_error
    ok = worst <= TOL_ENERGY and sweep.runtime_s < RUNTIME_BUDGET_S
    report(
        1,
        ok,
        f"max |closed-solver|/|closed| = {worst:.2e} (tol {TOL_ENERGY:g}) over "
        f"{len(sweep.cells)} cells, runtime {sweep.runtime_s:.1f} s (budget {RUNTIME_BUDGET_S:g})",
    )
    for cell in sweep.cells:
        assert cell.e_rel_err <= TOL_ENERGY, (
            f"{cell.potential} gamma={cell.gamma} n={cell.n} l={cell.ell}: "
            f"energy rel err {cell.e_rel_err:.3e} {cell.note}"
        )
    assert sweep.runtime_s < RUNTIME_BUDGET_S


# --------------------------------------------------------------------------
# 2. first-order corrections vs the perturbation integral


def test_criterion_2_corrections(sweep):
    worst = sweep.max_correction_error
    ok = worst <= TOL_CORRECTION
    report(
        2,
        ok,
        f"max shift rel err = {worst:.2e} (tol {TOL_CORRECTION:g}) at beta = {sweep.beta:g}; "
        "no transcription corrections were needed in either closed form",
    )
    for cell in sweep.cells:
        assert cell.de_rel_err <= TOL_CORRECTION, (
            f"{cell.potential} gamma={cell.gamma} n={cell.n} l={cell.ell}: "
            f"shift rel err {cell.de_rel_err:.3e} {cell.note}"
        )


# --------------------------------------------------------------------------
# 3. synthetic exact point (de = re = mu = 1): E = -1/2, shift = beta


def test_criterion_3_synthetic_exact_point():
    m = Molecule("unit", de=1.0, re=1.0, mu=1.0)
    qn = QuantumNumbers(0, 0)

    # solver confirmation first, by the DVR at two sizes on a hand-set box
    # (r_min = 1e-6: the perturbation integrand has a nonzero r -> 0 limit
    # here, so the inner cutoff must be tight).  Each size is held to the
    # tolerance: on this shallow well the slopes drift by about 1e-7 per
    # doubling, so successive solves never meet the sweep's DVR_RTOL.
    pot = partial(KRATZER.potential, m)
    box = (1e-6, 60.0)
    e_err = s_err = 0.0
    for points in (256, 512):
        build = _dvr_build(pot, m.mu, box, points)
        ham, v_eff = _dvr_hamiltonian(build, 0, m.mu)
        energies, vectors = _dvr_eigensolve(ham, 1)
        slopes = _dvr_slopes(energies, vectors, build[1], m.mu)
        _check_states(energies, vectors.T, v_eff, *box)
        e_err = max(e_err, abs(energies[0] - (-0.5)) / 0.5)
        s_err = max(s_err, abs(slopes[0] / m.mu - 1.0))
    ok = e_err <= 1e-4 and s_err <= 1e-4
    report(
        3,
        ok,
        f"DVR at N = 256 and 512: worst E00 rel err {e_err:.2e}, "
        f"worst shift/beta err {s_err:.2e} (tol 1e-4); golden values frozen",
    )
    assert e_err <= 1e-4
    assert s_err <= 1e-4

    # frozen golden values, now confirmed
    assert kratzer_energy_undeformed(m, qn) == pytest.approx(-0.5, rel=1e-12)
    assert kratzer_correction_slope(m, qn) == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------------------
# 4. truncation order of the 1/gamma series


GAMMA_LADDER = (50.0, 100.0, 200.0, 400.0, 800.0)


def _order_molecule(g):
    # fixed mu and de: the series remainder then scales cleanly as gamma^-4
    return Molecule(f"order-{g:g}", de=2.0, re=g / math.sqrt(2.0 * 300.0 * 2.0), mu=300.0)


def _fitted_slope(diffs):
    coeffs = np.polyfit(np.log(GAMMA_LADDER), np.log(diffs), 1)
    return -coeffs[0]


ORDER_CASES = {
    # n != ell for the undeformed Kratzer case: its gamma^-4 coefficient is
    # -(5 nu^2 - (l+1/2)^2)(nu^2 - (l+1/2)^2) and vanishes identically at n == ell.
    "kratzer-undeformed": (
        QuantumNumbers(1, 0),
        lambda m, qn: abs(
            kratzer_energy_undeformed(m, qn) - KRATZER.expansion(m, Deformation(0.0), qn)
        ),
    ),
    "kratzer-beta-part": (
        QuantumNumbers(0, 0),
        lambda m, qn: abs(
            kratzer_correction_slope(m, qn)
            - (
                KRATZER.expansion(m, Deformation(1.0), qn)
                - KRATZER.expansion(m, Deformation(0.0), qn)
            )
        ),
    ),
    "pho-undeformed": (
        QuantumNumbers(0, 1),
        lambda m, qn: abs(
            pho_energy_undeformed(m, qn) - PHO.expansion(m, Deformation(0.0), qn)
        ),
    ),
    "pho-beta-part": (
        QuantumNumbers(0, 0),
        lambda m, qn: abs(
            pho_correction_slope(m, qn)
            - (
                PHO.expansion(m, Deformation(1.0), qn)
                - PHO.expansion(m, Deformation(0.0), qn)
            )
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_criterion_4_series_truncation_order(case):
    qn, diff_fn = ORDER_CASES[case]
    diffs = [diff_fn(_order_molecule(g), qn) for g in GAMMA_LADDER]
    slope = _fitted_slope(diffs)
    ok = 3.7 <= slope <= 4.3
    report(4, ok, f"{case}: |closed - series| log-log slope = {slope:.3f} (want 4 +/- 0.3)")
    assert 3.7 <= slope <= 4.3


# --------------------------------------------------------------------------
# 5. constants round trip at gamma = 200


ROUND_TRIP_BETA = 1e-6
CONSTANT_NAMES = ("y00", "we", "wexe", "weye", "be", "alphae")


@pytest.fixture(scope="module")
def round_trip():
    m = synthetic_molecule(200.0)
    d = Deformation(ROUND_TRIP_BETA)
    out = {}
    for kind, constants_fn in (
        ("kratzer", kratzer_spectroscopic_constants),
        ("pho", pho_spectroscopic_constants),
    ):
        fit = fit_dunham(closed_form_table(m, d, kind, 4, 4))
        out[kind] = (fit.constants, constants_fn(m, d))
    fit0 = fit_dunham(closed_form_table(m, Deformation(0.0), "kratzer", 4, 4))
    out["kratzer-beta0-fit"] = fit0.constants
    return m, d, out


@pytest.mark.parametrize("kind", ["kratzer", "pho"])
@pytest.mark.parametrize("name", CONSTANT_NAMES)
def test_criterion_5_constant_recovery(round_trip, kind, name):
    _, _, out = round_trip
    fitted, exact = out[kind]
    fitted_value = getattr(fitted, name)
    exact_value = getattr(exact, name)
    if exact_value == 0.0:
        # zero constant: judged against the fit noise floor (documented: 1e-10 * we)
        floor = 1e-10 * exact.we
        ok = abs(fitted_value) <= floor
        report(5, ok, f"{kind} {name}: |fitted| = {abs(fitted_value):.2e} vs floor {floor:.2e}")
        assert abs(fitted_value) <= floor
    else:
        rel = abs(fitted_value - exact_value) / abs(exact_value)
        ok = rel <= 1e-2
        report(5, ok, f"{kind} {name}: fit rel err = {rel:.3e} (tol 1e-2)")
        assert rel <= 1e-2


def test_criterion_5_fitted_rotational_constant_beta_independent(round_trip):
    _, _, out = round_trip
    with_beta, _ = out["kratzer"]
    without_beta = out["kratzer-beta0-fit"]
    rel = abs(with_beta.be - without_beta.be) / abs(without_beta.be)
    ok = rel <= 1e-2
    report(5, ok, f"fitted be shift under beta: {rel:.2e} (fit tolerance 1e-2)")
    assert rel <= 1e-2


def test_criterion_5_pho_signs(round_trip):
    _, _, out = round_trip
    fitted, _ = out["pho"]
    ok = fitted.wexe < 0.0 and fitted.alphae < 0.0
    report(5, ok, f"fitted pho wexe = {fitted.wexe:.3e}, alphae = {fitted.alphae:.3e} (both < 0)")
    assert fitted.wexe < 0.0
    assert fitted.alphae < 0.0


# --------------------------------------------------------------------------
# 6. minimal-length upper bound from H2 data


def test_criterion_6_h2_bound_order_of_magnitude():
    molecules = {m.name: m for m in load_molecules(packaged_data_path("molecules.csv"))}
    levels = load_levels(packaged_data_path("levels.csv"))
    record = next(
        lvl for lvl in levels if lvl.molecule == "H2-kratzer" and lvl.qn == QuantumNumbers(0, 0)
    )
    bound = fit_beta_bound(molecules["H2-kratzer"], record.energy, record.qn, "kratzer")
    ok = 1e-3 <= bound.minimal_length_upper <= 1e-1
    report(
        6,
        ok,
        f"H2 bound: beta <= {bound.beta_upper:.3e} A^2, minimal length <= "
        f"{bound.minimal_length_upper:.4f} A (order 0.01 A)",
    )
    assert 1e-3 <= bound.minimal_length_upper <= 1e-1


# --------------------------------------------------------------------------
# 7. identity suite


def test_criterion_7_identities(rng):
    checked = 0
    for g in (5.0, 30.0, 200.0):
        m = synthetic_molecule(g, de=1.7)
        for n in range(3):
            for ell in range(3):
                qn = QuantumNumbers(n, ell)
                for deformed_fn, undeformed_fn in (
                    (kratzer_energy_deformed, kratzer_energy_undeformed),
                    (pho_energy_deformed, pho_energy_undeformed),
                ):
                    level = deformed_fn(m, Deformation(0.0), qn)
                    assert level.de == 0.0
                    assert level.total == undeformed_fn(m, qn)
                    one = deformed_fn(m, Deformation(1e-8), qn).de
                    two = deformed_fn(m, Deformation(2e-8), qn).de
                    assert two == 2.0 * one
                    checked += 1
    worst_round_trip = 0.0
    for x in rng.uniform(1e-9, 1.0, size=100):
        back = Deformation.from_minimal_length(x).minimal_length
        worst_round_trip = max(worst_round_trip, abs(back - x) / x)
    ok = worst_round_trip <= 1e-12
    report(
        7,
        ok,
        f"beta=0 reduction and beta-linearity exact over {checked} level checks; "
        f"worst length round trip {worst_round_trip:.2e} (tol 1e-12)",
    )
    assert worst_round_trip <= 1e-12


# --------------------------------------------------------------------------
# 8. solver sanity on the closed-form hydrogen-like problem


def test_criterion_8_hydrogenic_sanity(converged):
    def coulomb(r):
        return -1.0 / r

    exact = (-0.5, -0.125)
    # converged when two successive DVR solves (64, 128, ... points) agree
    # to DVR_RTOL; the accepted solve's node counts must label the states
    energies, _ = converged(coulomb, 0, 1.0, (1e-9, 60.0), 2, (64, 128, 256, 512, 1024))
    rels = [abs(e - x) / abs(x) for e, x in zip(energies, exact)]
    ok = all(r <= 1e-6 for r in rels)
    report(
        8,
        ok,
        f"converged DVR rel errs {rels[0]:.2e}, {rels[1]:.2e} (tol 1e-6); node counts match",
    )
    for rel in rels:
        assert rel <= 1e-6
