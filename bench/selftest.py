"""Self-tests of the benchmark's checkers; no timed workload is run.

    python3 bench/selftest.py        (from the root of a checkout)

Each checker must pass output that matches the reference and catch output
that is wrong by ten times its tolerance, a swapped (n, l) row, or a sweep
cell outside the acceptance tolerance.  The last test compares the mpmath
reference with gupmol itself at small gamma, where the closed forms have no
cancellation, so the two must agree to about 1e-14.
"""
from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import expect  # noqa: E402
import reference as ref  # noqa: E402
from workloads import TOL_ENERGY, TOL_SHIFT  # noqa: E402

mp.dps = ref.DIGITS
H2_KRATZER = ref.Molecule(9.866636, 0.741446, 120.55)


def spectrum_text(rows, meta, fmt: str) -> str:
    """Spectrum stdout in the CLI's layout (12 significant digits in csv)."""
    if fmt == "json":
        return json.dumps({"meta": meta, "levels": [
            {"n": n, "l": ell, "e0": e0, "delta_e": de, "total": e0 + de}
            for n, ell, e0, de in rows]})
    lines = [f"# {k}={v if isinstance(v, str) else f'{v:.12g}'}" for k, v in meta.items()]
    lines.append("n,l,e0,delta_e,total")
    lines += [f"{n},{ell},{e0:.12g},{de:.12g},{e0 + de:.12g}" for n, ell, e0, de in rows]
    return "\n".join(lines) + "\n"


class SpectrumChecks(unittest.TestCase):
    def setUp(self):
        op = {"potential": "kratzer", "molecule": "H2-kratzer"}
        self.exp = expect._expect_spectrum(op, H2_KRATZER, mpf(2e-5), mpf(8065.54))
        self.rows = [(n, ell, float(e0), float(de)) for n, ell, e0, de in self.exp["rows"]]
        self.meta = {k: (v if isinstance(v, str) else float(v))
                     for k, v in self.exp["meta"].items()}

    def verdict(self, rows, fmt="csv"):
        v = checks.Verdict()
        checks.check_spectrum(v, spectrum_text(rows, self.meta, fmt),
                              {**self.exp, "format": fmt})
        return v

    def test_reference_output_passes(self):
        for fmt in ("csv", "json"):
            self.assertFalse(self.verdict(self.rows, fmt).problems, fmt)

    def test_energy_off_by_ten_tolerances_is_caught(self):
        rows = list(self.rows)
        n, ell, e0, de = rows[5]
        rows[5] = (n, ell, e0 * (1 + 10 * TOL_ENERGY), de)
        v = self.verdict(rows)
        self.assertIn(checks.OTHER, [kind for kind, _ in v.problems])

    def test_shift_off_by_ten_tolerances_is_caught(self):
        rows = list(self.rows)
        n, ell, e0, de = rows[7]
        rows[7] = (n, ell, e0, de * (1 + 10 * TOL_SHIFT))
        v = self.verdict(rows, "json")
        self.assertEqual([kind for kind, _ in v.problems], [checks.SHIFT])

    def test_swapped_rows_are_caught(self):
        rows = list(self.rows)
        rows[1], rows[2] = rows[2], rows[1]
        v = self.verdict(rows)
        self.assertTrue(v.unexpected)
        self.assertIn("rows", v.unexpected[0])

    def test_swapped_labels_are_caught(self):
        rows = list(self.rows)
        (n1, l1, *a), (n2, l2, *b) = rows[1], rows[4]
        rows[1], rows[4] = (n2, l2, *a), (n1, l1, *b)
        self.assertTrue(self.verdict(rows).unexpected)


class TableChecks(unittest.TestCase):
    def test_perturbed_level_is_caught(self):
        m = ref.Molecule(9.866636, 0.741446, 120.55)
        levels = ref.levels("pho", m, 4, 3)
        closed, scales = ref.constants("pho", m, 0.0)
        known = {k: float(v) for k, v in closed.items()}
        labels = np.array([(n, ell) for n in range(5) for ell in range(4)])
        energies = levels["emin_hi"].ravel().copy()
        fit = dict(zip(known, checks.lstsq_scaled(labels, energies)))
        _, emin, slope = ref.level("pho", m, 0, 0)
        beta_upper = abs(emin * mpf("0.01")) / abs(slope)  # a 1 % gap
        out = {"labels": labels, "energies": energies, "fit": fit, "constants": known,
               "master_fit": known, "beta_upper": float(beta_upper),
               "minimal_length_upper": float(mp.sqrt(5 * mpf(float(beta_upper))))}
        exp = {"shape": (4, 3), "levels": levels, "beta": 0.0, "known": known,
               "closed": closed, "scales": scales,
               "master_scale": {k: 1.0 for k in known}, "beta_upper": beta_upper}
        v = checks.Verdict()
        checks.check_table(v, out, exp)
        self.assertFalse(v.problems)

        bad = copy.deepcopy(out)
        bad["energies"][6] *= 1 + 10 * TOL_ENERGY
        bad["fit"] = dict(zip(known, checks.lstsq_scaled(labels, bad["energies"])))
        v = checks.Verdict()
        checks.check_table(v, bad, exp)
        self.assertTrue(v.unexpected)


class SweepChecks(unittest.TestCase):
    def setUp(self):
        self.beta = mpf(1e-6)
        self.cells, self.expected = [], []
        for kind in ("kratzer", "pho"):
            m = ref.Molecule(1.0, 1.0, 20.0**2 / 2.0)
            for ell in range(2):
                for n in range(2):
                    e0, _, slope = ref.level(kind, m, n, ell)
                    de = self.beta * slope
                    self.expected.append({"label": (kind, 20.0, n, ell), "e0": e0, "de": de})
                    self.cells.append((kind, 20.0, n, ell, float(e0), float(e0) * (1 + 1e-9),
                                       1e-9, float(de), float(de) * (1 + 1e-7), 1e-7, True, ""))

    def verdicts(self, cells, all_passed=True):
        return checks.check_sweep([{"cells": cells, "all_passed": all_passed}],
                                  {"cells": self.expected, "beta": self.beta})

    def test_cells_within_tolerance_pass(self):
        self.assertFalse(any(v.problems for v in self.verdicts(self.cells)))

    def test_cell_outside_tolerance_is_caught(self):
        for field, tol in ((5, checks.TOL_SWEEP_ENERGY), (8, checks.TOL_SWEEP_SHIFT)):
            cells = list(self.cells)
            cell = list(cells[3])
            cell[field] = cell[field] * (1 + 10 * tol)
            cells[3] = tuple(cell)
            verdicts = self.verdicts(cells)
            self.assertTrue(verdicts[3].unexpected, field)
            self.assertFalse(any(v.problems for i, v in enumerate(verdicts) if i != 3))

    def test_all_passed_false_is_caught(self):
        self.assertTrue(self.verdicts(self.cells, all_passed=False)[-1].unexpected)


class ReferenceAgreesWithProgram(unittest.TestCase):
    """At small gamma the program's float64 closed forms are cancellation-free."""

    def test_small_gamma(self):
        sys.path.insert(0, str(Path.cwd() / "src"))
        import gupmol

        worst = 0.0
        for g in (3.0, 5.0, 8.0):
            mu = g * g / 2.0
            m = gupmol.Molecule("small", 1.0, 1.0, mu)
            rm = ref.Molecule(1.0, 1.0, mu)
            for kind in ("kratzer", "pho"):
                e0_fn = getattr(gupmol, f"{kind}_energy_undeformed")
                slope_fn = getattr(gupmol, f"{kind}_correction_slope")
                for n in range(4):
                    for ell in range(4):
                        qn = gupmol.QuantumNumbers(n, ell)
                        e0, _, slope = ref.level(kind, rm, n, ell)
                        worst = max(worst, checks.dev(e0_fn(m, qn), e0),
                                    checks.dev(slope_fn(m, qn), slope))
        self.assertLess(worst, 1e-13)
        print(f"\nworst relative deviation at gamma <= 8: {worst:.2e}", file=sys.stderr)


if __name__ == "__main__":
    unittest.main()
