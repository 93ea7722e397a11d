"""Checks of the program's outputs against the reference and stated properties.

Every check here is made apart from the program: outputs arrive as plain
data (CLI stdout text, floats, numpy arrays) and are compared with the
60-digit reference values of expect.py.  Each operation gets a Verdict that
lists its problems and the relative deviations of the level energies and
minimal-length shifts it returned.

A problem is SHIFT when a closed-form shift (or a beta bound built from one)
misses TOL_SHIFT: the known large-gamma cancellation in the shift slopes.
Every other problem is OTHER, and any OTHER problem makes a run incorrect.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from mpmath import mpf, sqrt

from workloads import TOL_ENERGY, TOL_SHIFT

SHIFT, OTHER = "shift", "other"
# The CLI prints 12 significant digits: values parsed back carry up to 5e-12.
TOL_PRINTED = 2e-11
# Acceptance tolerances of the closed-form vs solver sweep.
TOL_SWEEP_ENERGY, TOL_SWEEP_SHIFT = 1e-6, 1e-4
# A least-squares fit is compared per constant, scaled to the largest change
# of the fitted table that constant's error causes (expect._column_scales).
TOL_FIT = 1e-9


class Verdict:
    def __init__(self):
        self.problems: list[tuple[str, str]] = []
        self.energy_devs: list[float] = []
        self.shift_devs: list[float] = []

    def fail(self, kind: str, message: str) -> None:
        self.problems.append((kind, message))

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def unexpected(self) -> list[str]:
        return [message for kind, message in self.problems if kind == OTHER]

    def bound(self, devs, tol: float, kind: str, what: str, record: list | None = None) -> None:
        """Record deviations and fail with ``kind`` if any exceeds ``tol``.

        A value that is not a finite number fails as OTHER and is recorded as
        a relative deviation of 1 (no correct digit).
        """
        devs = np.atleast_1d(np.asarray(devs, dtype=float)).ravel()
        devs = np.where(np.isnan(devs), np.inf, devs)
        if record is not None:
            record.extend(np.minimum(devs, 1.0).tolist())
        if np.any(devs > tol):
            worst = float(devs.max())
            self.fail(kind if math.isfinite(worst) else OTHER,
                      f"{what}: worst relative deviation {worst:.3e} > {tol:g}")

    def energy(self, devs, what: str, tol: float = TOL_ENERGY) -> None:
        self.bound(devs, tol, OTHER, what, self.energy_devs)

    def shift(self, devs, what: str, tol: float = TOL_SHIFT) -> None:
        self.bound(devs, tol, SHIFT, what, self.shift_devs)


def dev(x: float, expected: mpf) -> float:
    """Relative deviation of a float from a reference value (nan if x is)."""
    if not math.isfinite(x):
        return float("nan")
    return float(abs(mpf(x) - expected) / abs(expected))


def dev_dd(x: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Relative deviation from a double-double reference (hi + lo)."""
    return np.abs((x - hi) - lo) / np.abs(hi)


def digits(devs: list[float]) -> float:
    """-log10 of the worst relative deviation; 30 if every value was exact."""
    worst = max(devs)
    return -math.log10(max(worst, 1e-30))


# ---------------------------------------------------------------------------
# CLI output parsing


def _csv_parts(text: str) -> tuple[dict[str, str], list[list[str]]]:
    comments, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        else:
            body.append(line)
    return comments, list(csv.reader(io.StringIO("\n".join(body))))


def parse_spectrum(text: str, fmt: str) -> tuple[dict, list[tuple]]:
    """(meta, [(n, l, e0, delta_e, total), ...]) from spectrum stdout."""
    if fmt == "json":
        payload = json.loads(text)
        rows = [(r["n"], r["l"], r["e0"], r["delta_e"], r["total"]) for r in payload["levels"]]
        return payload["meta"], rows
    meta, table = _csv_parts(text)
    if table[0] != ["n", "l", "e0", "delta_e", "total"]:
        raise ValueError(f"unexpected spectrum header {table[0]}")
    rows = [(int(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4])) for r in table[1:]]
    for key in ("gamma", "beta", "min_length_angstrom"):
        meta[key] = float(meta[key])
    return meta, rows


def parse_constants(text: str, fmt: str) -> tuple[dict, dict, dict, dict]:
    """(meta, closed, fitted, rel_diff) from ``constants --fit`` stdout."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["meta"], payload["constants"], payload["fitted"], payload["rel_diff"]
    meta, table = _csv_parts(text)
    if table[0] != ["constant", "value", "fitted", "rel_diff"]:
        raise ValueError(f"unexpected constants header {table[0]}")
    closed = {r[0]: float(r[1]) for r in table[1:]}
    fitted = {r[0]: float(r[2]) for r in table[1:]}
    rel = {r[0]: float(r[3]) for r in table[1:]}
    for key in ("gamma", "beta"):
        meta[key] = float(meta[key])
    return meta, closed, fitted, rel


def parse_fit_beta(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    _, table = _csv_parts(text)
    header, row = table[0], table[1]
    out = dict(zip(header, row))
    for key in ("n", "l"):
        out[key] = int(out[key])
    for key in ("e_exp_eV", "beta_upper_A2", "min_length_upper_A"):
        out[key] = float(out[key])
    return out


# ---------------------------------------------------------------------------
# interactive


def _check_meta(v: Verdict, meta: dict, expected: dict) -> None:
    for key, want in expected.items():
        got = meta.get(key)
        if isinstance(want, str):
            if got != want:
                v.fail(OTHER, f"meta {key} = {got!r}, expected {want!r}")
        elif want == 0:
            if got != 0:
                v.fail(OTHER, f"meta {key} = {got!r}, expected 0")
        elif got is None or dev(float(got), want) > TOL_PRINTED:
            v.fail(OTHER, f"meta {key} = {got!r}, expected {float(want)!r}")


def check_spectrum(v: Verdict, text: str, exp: dict) -> list[tuple]:
    tol = TOL_PRINTED if exp["format"] == "csv" else 0.0
    meta, rows = parse_spectrum(text, exp["format"])
    _check_meta(v, meta, exp["meta"])
    labels = [(r[0], r[1]) for r in rows]
    want = [(r[0], r[1]) for r in exp["rows"]]
    if labels != want:
        v.fail(OTHER, f"spectrum rows are {labels}, expected {want}")
        return rows
    for (n, ell, e0, de, total), (_, _, r_e0, r_de) in zip(rows, exp["rows"]):
        v.energy(dev(e0, r_e0), f"e0 (n={n}, l={ell})", TOL_ENERGY + tol)
        check_total(v, e0, de, total, tol, f"(n={n}, l={ell})")
        if r_de == 0:
            if de != 0:
                v.fail(OTHER, f"delta_e (n={n}, l={ell}) = {de!r} at beta = 0")
        else:
            v.shift(dev(de, r_de), f"delta_e (n={n}, l={ell})", TOL_SHIFT + tol)
    return rows


def check_total(v: Verdict, e0: float, de: float, total: float, tol: float, where: str) -> None:
    """The reported total is the undeformed level plus the shift."""
    if abs(total - (e0 + de)) > (tol + 1e-15) * (abs(e0) + abs(de)):
        v.fail(OTHER, f"total {where} = {total!r} is not e0 + delta_e = {e0 + de!r}")


def check_linearity(v: Verdict, rows_a: list[tuple], beta_a: mpf,
                    rows_b: list[tuple], beta_b: mpf) -> None:
    """Shifts of one molecule at two betas stand in the ratio of the betas."""
    ratio = beta_b / beta_a
    devs = [dev(b[3] / a[3], ratio) for a, b in zip(rows_a, rows_b)]
    if not devs or max(devs) > 2 * TOL_PRINTED:
        v.fail(OTHER, f"delta_e not linear in beta: worst ratio deviation "
                      f"{max(devs, default=float('nan')):.3e}")


def check_constants(v: Verdict, text: str, exp: dict) -> None:
    meta, closed, fitted, rel = parse_constants(text, exp["format"])
    _check_meta(v, meta, exp["meta"])
    cf = exp["cf"]
    tol = TOL_PRINTED if exp["format"] == "csv" else 1e-15
    for k, ref_closed in exp["closed"].items():
        scale = exp["scales"][k]
        if abs(mpf(closed[k]) - ref_closed * cf) > tol * max(scale * cf, abs(ref_closed * cf)):
            v.fail(OTHER, f"constant {k} = {closed[k]!r}, expected {float(ref_closed * cf)!r}")
        ref_fit = exp["fitted"][k]
        fit_tol = TOL_FIT * exp["fit_scale"][k]
        if abs(mpf(fitted[k]) / cf - ref_fit) > fit_tol + tol * abs(ref_fit):
            v.fail(OTHER, f"fitted {k} = {fitted[k]!r}, expected {float(ref_fit * cf)!r}")
        # rel_diff is (fitted - closed)/closed, or the fitted value (internal
        # units) where the closed constant is exactly zero.
        if ref_closed == 0:
            want, slack = ref_fit, fit_tol
        else:
            want = (ref_fit - ref_closed) / ref_closed
            slack = fit_tol / abs(ref_closed)
        if abs(mpf(rel[k]) - want) > slack + tol * abs(want):
            v.fail(OTHER, f"rel_diff {k} = {rel[k]!r}, expected {float(want)!r}")


def check_fit_beta(v: Verdict, text: str, exp: dict) -> None:
    out = parse_fit_beta(text, exp["format"])
    for key in ("molecule", "potential", "n", "l"):
        if out.get(key) != exp[key]:
            v.fail(OTHER, f"fit-beta {key} = {out.get(key)!r}, expected {exp[key]!r}")
    tol = TOL_PRINTED if exp["format"] == "csv" else 1e-15
    if dev(out["e_exp_eV"], exp["e_exp_eV"]) > tol:
        v.fail(OTHER, f"e_exp_eV = {out['e_exp_eV']!r}, expected {float(exp['e_exp_eV'])!r}")
    beta = out["beta_upper_A2"]
    # The bound is the gap divided by the shift slope: it carries the slope's error.
    v.shift(dev(beta, exp["beta_upper"]), "beta_upper (gap / shift slope)", TOL_SHIFT + tol)
    if dev(out["min_length_upper_A"], sqrt(5 * mpf(beta))) > tol + 1e-15:
        v.fail(OTHER, f"min_length_upper_A = {out['min_length_upper_A']!r} "
                      f"is not sqrt(5 beta_upper)")


def check_library(v: Verdict, result: dict, exp: dict) -> None:
    if "closed" in exp:
        for k, want in exp["closed"].items():
            if abs(mpf(result[k]) - want) > 1e-14 * max(exp["scales"][k], abs(want)):
                v.fail(OTHER, f"{exp['call']} {k} = {result[k]!r}, expected {float(want)!r}")
        return
    v.energy(dev(result["e0"], exp["e0"]), f"{exp['call']} e0")
    check_total(v, result["e0"], result["de"], result["total"], 0.0, exp["call"])
    if exp["de"] == 0:
        if result["de"] != 0:
            v.fail(OTHER, f"{exp['call']} de = {result['de']!r} at beta = 0")
    else:
        v.shift(dev(result["de"], exp["de"]), f"{exp['call']} de")


def check_interactive(outputs: list, expected: list[dict]) -> list[Verdict]:
    verdicts = []
    spectra: dict[str, list] = {}
    for payload, exp in zip(outputs, expected):
        v = Verdict()
        verdicts.append(v)
        if payload is None:
            v.fail(OTHER, "operation raised")
            continue
        try:
            if exp["op"] == "library":
                check_library(v, payload, exp)
                continue
            if payload["code"] != 0:
                v.fail(OTHER, f"exit code {payload['code']}")
                continue
            if exp["op"] == "spectrum":
                rows = check_spectrum(v, payload["stdout"], exp)
                if exp["pair"]:
                    spectra.setdefault(exp["pair"], []).append((v, rows, exp["beta"]))
            elif exp["op"] == "constants":
                check_constants(v, payload["stdout"], exp)
            else:
                check_fit_beta(v, payload["stdout"], exp)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            v.fail(OTHER, f"unparsable output: {type(exc).__name__}: {exc}")
    for pair, members in spectra.items():
        if len(members) != 2:
            continue
        (_, rows_a, beta_a), (v_b, rows_b, beta_b) = members
        check_linearity(v_b, rows_a, beta_a, rows_b, beta_b)
    return verdicts


# ---------------------------------------------------------------------------
# tables


def master_design(labels: np.ndarray) -> np.ndarray:
    """Design matrix of the master expression, signs folded in, for (n, l) rows."""
    nu = labels[:, 0] + 0.5
    big_l = labels[:, 1] * (labels[:, 1] + 1.0)
    return np.column_stack([np.ones_like(nu), nu, -nu * nu, nu**3, big_l, -nu * big_l])


def lstsq_scaled(labels: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """The benchmark's own fit: QR on the column-scaled master basis."""
    design = master_design(labels)
    norms = np.max(np.abs(design), axis=0)
    norms[norms == 0] = 1.0
    q, r = np.linalg.qr(design / norms)
    return np.linalg.solve(r, q.T @ energies) / norms


def check_table(v: Verdict, out: dict, exp: dict) -> None:
    n_max, l_max = exp["shape"]
    want = np.array([(n, ell) for n in range(n_max + 1) for ell in range(l_max + 1)])
    labels, energies = out["labels"], out["energies"]
    if labels.shape != want.shape or not np.array_equal(labels, want):
        v.fail(OTHER, "table rows are not the (n, l) grid in n-major order")
        return
    levels = exp["levels"]
    grid = energies.reshape(n_max + 1, l_max + 1)
    beta = exp["beta"]
    if beta == 0.0:
        v.energy(dev_dd(grid, levels["emin_hi"], levels["emin_lo"]), "undeformed table energies")
        if not (np.all(np.diff(grid, axis=0) > 0) and np.all(np.diff(grid, axis=1) > 0)):
            v.fail(OTHER, "undeformed levels do not increase with n and l")
    else:
        # The shift is what the program's level exceeds the reference
        # undeformed level by.
        shift = (grid - levels["emin_hi"]) - levels["emin_lo"]
        want_shift = beta * levels["slope_hi"] + beta * levels["slope_lo"]
        v.shift(np.abs(shift - want_shift) / np.abs(want_shift), "table shifts")
        out["shift"] = shift

    fit = np.array([out["fit"][k] for k in exp["known"]])
    own = lstsq_scaled(labels, energies)
    scale = np.max(np.abs(energies)) / np.max(np.abs(master_design(labels)), axis=0)
    if not np.all(np.abs(fit - own) <= TOL_FIT * scale):
        v.fail(OTHER, f"fit_dunham disagrees with the benchmark's own fit: {fit} vs {own}")

    for k, want in exp["closed"].items():
        if abs(mpf(out["constants"][k]) - want) > 1e-14 * max(exp["scales"][k], abs(want)):
            v.fail(OTHER, f"constant {k} = {out['constants'][k]!r}, expected {float(want)!r}")

    for k, known in exp["known"].items():
        if abs(out["master_fit"][k] - known) > 1e-10 * exp["master_scale"][k]:
            v.fail(OTHER, f"fit_dunham on the master table: {k} = {out['master_fit'][k]!r}, "
                          f"expected {known!r}")

    beta_upper = out["beta_upper"]
    v.shift(dev(beta_upper, exp["beta_upper"]), "fit_beta_bound beta (gap / shift slope)")
    if dev(out["minimal_length_upper"], sqrt(5 * mpf(beta_upper))) > 1e-15:
        v.fail(OTHER, "fit_beta_bound minimal length is not sqrt(5 beta)")


def check_tables(outputs: list, expected: list[dict]) -> list[Verdict]:
    verdicts = []
    deformed: dict[tuple, list] = {}
    for out, exp in zip(outputs, expected):
        v = Verdict()
        verdicts.append(v)
        if out is None:
            v.fail(OTHER, "operation raised")
            continue
        check_table(v, out, exp)
        if "shift" in out:
            deformed.setdefault((exp["kind"], exp["gamma"]), []).append((exp["index"], v, out, exp))
    # Linearity: the two deformed tables of one (potential, gamma) share the
    # levels n, l <= 10, where the shifts must stand in the ratio of the betas.
    for members in deformed.values():
        if len(members) != 2:
            continue
        (_, _, out_a, exp_a), (_, v_b, out_b, exp_b) = sorted(members, key=lambda m: m[0])
        k = min(exp_a["shape"][0], exp_b["shape"][0]) + 1
        j = min(exp_a["shape"][1], exp_b["shape"][1]) + 1
        ratio = out_b["shift"][:k, :j] / out_a["shift"][:k, :j]
        want = exp_b["beta"] / exp_a["beta"]
        worst = float(np.max(np.abs(ratio / want - 1.0)))
        if not worst <= 1e-9:
            v_b.fail(OTHER, f"table shifts not linear in beta: worst ratio deviation {worst:.3e}")
    return verdicts


# ---------------------------------------------------------------------------
# sweep


def check_sweep(outputs: list, expected: dict) -> list[Verdict]:
    """One verdict per cell of the single sweep call."""
    payload = outputs[0]
    cells = expected["cells"]
    if payload is None:
        verdicts = [Verdict() for _ in cells]
        for v in verdicts:
            v.fail(OTHER, "sweep raised")
        return verdicts
    got = payload["cells"]
    verdicts = []
    for i, exp in enumerate(cells):
        v = Verdict()
        verdicts.append(v)
        if i >= len(got):
            v.fail(OTHER, "cell missing")
            continue
        (kind, g, n, ell, e_closed, e_oracle, _, de_closed, de_oracle, _, passed, note) = got[i]
        if (kind, g, n, ell) != exp["label"]:
            v.fail(OTHER, f"cell {i} is {(kind, g, n, ell)}, expected {exp['label']}")
            continue
        where = f"{kind} gamma={g:g} n={n} l={ell}"
        # The solver's own accuracy, held to the acceptance tolerances.
        v.energy(dev(e_oracle, exp["e0"]), f"solver energy {where}", TOL_SWEEP_ENERGY)
        v.bound(dev(de_oracle, exp["de"]), TOL_SWEEP_SHIFT, OTHER, f"solver shift {where}",
                v.shift_devs)
        if dev(e_closed, exp["e0"]) > TOL_ENERGY or dev(de_closed, exp["de"]) > TOL_SWEEP_SHIFT:
            v.fail(OTHER, f"closed form in cell {where} is off the reference")
        if not passed:
            v.fail(OTHER, f"cell {where} reported FAIL {note}")
    if len(got) != len(cells):
        verdicts[-1].fail(OTHER, f"{len(got)} cells, expected {len(cells)}")
    if not payload["all_passed"]:
        verdicts[-1].fail(OTHER, "all_passed is false")
    return verdicts


CHECKS = {"interactive": check_interactive, "tables": check_tables, "sweep": check_sweep}
