"""gupmol benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {interactive,tables,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program measured is the package in its
``src/``.  This process never imports gupmol.  It

1. makes the workload's inputs from the seed and evaluates the expected
   outputs with the 60-digit mpmath reference (untimed);
2. measures set-up time: fresh interpreters are launched until the modules
   the workload calls are imported and warmed up (median of SETUP_LAUNCHES);
3. starts one worker process that runs whole passes over the workload's
   fixed job list for S seconds (closed loop, one client, BLAS/OpenMP pinned
   to one thread);
4. checks every output of the first pass against the reference and the
   stated properties, and that every later pass returns identical outputs;
5. prints a summary and, as its last line, one JSON object with correct,
   attempted, failed and the metrics: the end-to-end ones with --trace 0,
   the per-layer ones (from a run whose passes alternate untraced and
   traced) with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

from mpmath import mp

import checks
import expect
import reference

BENCH = Path(__file__).resolve().parent
SETUP_LAUNCHES = 5
IMPORT_LAUNCHES = 3
WORKER_TIMEOUT_S = 150.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def worker_env(root: Path, pinned: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    if pinned:
        env.update(PINNED)
    return env


def worker_argv(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


def launch_ready(argv: list[str], root: Path, env: dict, log) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; returns (process, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log,
                            text=True)
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - t0
    if line != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (said {line!r}); see {log.name}")
    return proc, elapsed


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure_setup(workload: str, root: Path, env: dict, log) -> list[float]:
    """Set-up times of fresh interpreters; the first launch only warms caches."""
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        proc, elapsed = launch_ready(worker_argv("probe", workload), root, env, log)
        finish(proc, 60.0)
        if i:
            times.append(elapsed)
    return times


def measure_imports(root: Path, env: dict, log) -> dict:
    out = {}
    for module, key in (("gupmol.core", "core"), ("gupmol.cli", "cli")):
        samples = []
        for _ in range(IMPORT_LAUNCHES):
            proc = subprocess.run(worker_argv("import-probe", module), cwd=root, env=env,
                                  stdout=subprocess.PIPE, stderr=log, text=True, timeout=60)
            if proc.returncode != 0:
                raise BenchError(f"import probe of {module} failed; see {log.name}")
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        out[f"{key}.import_s"] = statistics.median(s["import_s"] for s in samples)
        out[f"{key}.scipy_modules"] = statistics.median(s["scipy_modules"] for s in samples)
    return out


# ---------------------------------------------------------------------------
# operations, failures and digits


def tally(workload: str, result: dict, verdicts: list[checks.Verdict]) -> tuple[int, int, list]:
    """(attempted, failed, unexpected problems) over every pass.

    An operation of a later pass has the first pass's verdict when it returned
    the identical output, and fails otherwise; one that raised has failed.
    """
    passes = result["passes"]
    first = passes[0]["signatures"]
    attempted = failed = 0
    unexpected = []
    for number, p in enumerate(passes):
        if workload == "sweep":
            error = p["errors"][0]
            signatures = p["signatures"][0] or [None] * len(verdicts)
            reference_sigs = first[0] or [None] * len(verdicts)
            errors = [error] * len(verdicts)
        else:
            signatures, reference_sigs, errors = p["signatures"], first, p["errors"]
        for i, v in enumerate(verdicts):
            attempted += 1
            if errors[i] is not None:
                failed += 1
                unexpected.append(f"pass {number} op {i}: {errors[i]}")
            elif signatures[i] != reference_sigs[i]:
                failed += 1
                unexpected.append(f"pass {number} op {i}: output differs from pass 0")
            elif v.failed:
                failed += 1
                if number == 0:
                    unexpected.extend(f"op {i}: {m}" for m in v.unexpected)
    return attempted, failed, unexpected


def latency_summary(result: dict) -> str:
    samples = [t for p in result["passes"] if not p["traced"] for t in p["latency"]]
    line = f"per-call latency: {len(samples)} calls, median {statistics.median(samples):.6g} s"
    if len(samples) >= 40:
        q = statistics.quantiles(samples, n=100)
        line += f", p90 {q[89]:.6g} s, p99 {q[98]:.6g} s"
    return line


# ---------------------------------------------------------------------------
# per-layer metrics

def _calls(key):
    return lambda s: s["calls"][key]


def _self(key):
    return lambda s: s["self_s"][key]


def _count(key):
    return lambda s: s["counts"].get(key, 0)


def _layer_sum(layer, field):
    return lambda s: sum(v for k, v in s[field].items() if k.startswith(layer + "."))


# name -> (unit, function of one traced pass's sums, gupmol functions it needs)
LAYER_METRICS = {
    "cli.main.calls": ("count", _calls("cli.main"), ["cli.main"]),
    "cli.main.self_s": ("s", _self("cli.main"), ["cli.main"]),
    "spectroscopy.load_molecules.rows": (
        "count", _count("spectroscopy.load_molecules.rows"), ["spectroscopy.load_molecules"]),
    "spectroscopy.load_molecules.self_s": (
        "s", _self("spectroscopy.load_molecules"), ["spectroscopy.load_molecules"]),
    "spectroscopy.load_levels.self_s": (
        "s", _self("spectroscopy.load_levels"), ["spectroscopy.load_levels"]),
    "spectroscopy.fit_beta_bound.calls": (
        "count", _calls("spectroscopy.fit_beta_bound"), ["spectroscopy.fit_beta_bound"]),
    "spectroscopy.fit_beta_bound.self_s": (
        "s", _self("spectroscopy.fit_beta_bound"), ["spectroscopy.fit_beta_bound"]),
    "kratzer.calls": ("count", _layer_sum("kratzer", "calls"), []),
    "kratzer.self_s": ("s", _layer_sum("kratzer", "self_s"), []),
    "pho.calls": ("count", _layer_sum("pho", "calls"), []),
    "pho.self_s": ("s", _layer_sum("pho", "self_s"), []),
    "spectroscopy.closed_form_table.levels": (
        "count", _count("spectroscopy.closed_form_table.levels"),
        ["spectroscopy.closed_form_table"]),
    "spectroscopy.closed_form_table.self_s": (
        "s", _self("spectroscopy.closed_form_table"), ["spectroscopy.closed_form_table"]),
    "spectroscopy.fit_dunham.rows": (
        "count", _count("spectroscopy.fit_dunham.rows"), ["spectroscopy.fit_dunham"]),
    "spectroscopy.fit_dunham.self_s": (
        "s", _self("spectroscopy.fit_dunham"), ["spectroscopy.fit_dunham"]),
    "spectroscopy.perturbation_warnings": (
        "count", _count("spectroscopy.perturbation_warnings"), []),
    "oracle.auto_grid.calls": ("count", _calls("oracle.auto_grid"), ["oracle.auto_grid"]),
    "oracle.auto_grid.self_s": ("s", _self("oracle.auto_grid"), ["oracle.auto_grid"]),
    "oracle.solve_radial.calls": ("count", _calls("oracle.solve_radial"), ["oracle.solve_radial"]),
    "oracle.solve_radial.grid_points": (
        "count", _count("oracle.solve_radial.grid_points"), ["oracle.solve_radial"]),
    "oracle.solve_radial.self_s": ("s", _self("oracle.solve_radial"), ["oracle.solve_radial"]),
    "oracle.p4_expectation.calls": (
        "count", _calls("oracle.p4_expectation"), ["oracle.p4_expectation"]),
    "oracle.p4_expectation.self_s": (
        "s", _self("oracle.p4_expectation"), ["oracle.p4_expectation"]),
    "verify.sweep.cells": (
        "count", _count("verify.sweep.cells"), ["verify.closed_vs_oracle_sweep"]),
    "verify.sweep.self_s": (
        "s", _self("verify.closed_vs_oracle_sweep"), ["verify.closed_vs_oracle_sweep"]),
}


def layer_metrics(result: dict, imports: dict) -> tuple[dict, list[str]]:
    keys = set(result["layer_keys"])
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    metrics, absent = {}, []
    for name, (unit, value, needs) in LAYER_METRICS.items():
        if any(k not in keys for k in needs):
            absent.append(name)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        metrics[name] = {"value": statistics.median(value(p["layer"]) for p in traced),
                         "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain), "unit": "s"}
    metrics["core.import_s"] = {"value": imports["core.import_s"], "unit": "s"}
    metrics["cli.import_s"] = {"value": imports["cli.import_s"], "unit": "s"}
    metrics["cli.scipy_modules"] = {"value": imports["cli.scipy_modules"], "unit": "count"}
    return metrics, absent


def write_spans(path: Path, result: dict) -> None:
    import numpy as np

    spans = result["spans"]
    np.savez_compressed(path, key=np.frombuffer(spans["key"], dtype=np.int32),
                        parent=np.frombuffer(spans["parent"], dtype=np.int32),
                        start=np.frombuffer(spans["start"], dtype=np.float64),
                        end=np.frombuffer(spans["end"], dtype=np.float64),
                        names=np.array(spans["keys"]), dropped=spans["dropped"])


# ---------------------------------------------------------------------------


def run(args: argparse.Namespace, root: Path) -> dict:
    mp.dps = reference.DIGITS
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    phases = {}
    t0 = time.perf_counter()
    jobs, expected = expect.PREPARE[args.workload](args.seed, root, out_dir)
    jobs_path = out_dir / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    phases["inputs and reference"] = time.perf_counter() - t0

    env = worker_env(root, pinned=not args.unpinned)
    log_path = out_dir / "worker.log"
    result_path = out_dir / "result.pickle"
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        setup = measure_setup(args.workload, root, env, log)
        imports = measure_imports(root, env, log) if args.trace else None
        phases["set-up launches"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        proc, _ = launch_ready(
            worker_argv("run", args.workload, str(jobs_path), str(args.seconds),
                        str(args.trace), str(result_path)), root, env, log)
        said = finish(proc, args.seconds + WORKER_TIMEOUT_S)
        phases["worker"] = time.perf_counter() - t0
    if said.strip() != "done":
        raise BenchError(f"worker ended without finishing (said {said!r})")
    # Only this benchmark's own worker wrote this file.
    with open(result_path, "rb") as handle:
        result = pickle.load(handle)
    result_path.unlink()
    if not Path(result["gupmol_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"worker imported gupmol from {result['gupmol_file']}, not {root}/src")

    t0 = time.perf_counter()
    verdicts = checks.CHECKS[args.workload](result["first_outputs"], expected)
    attempted, failed, unexpected = tally(args.workload, result, verdicts)
    phases["checks"] = time.perf_counter() - t0
    for problem in unexpected[:20]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    if not unexpected:
        log_path.unlink()  # the program's stderr, kept only to diagnose a problem
    known = sum(1 for v in verdicts if v.failed and not v.unexpected)
    print(f"{args.workload} seed={args.seed}: {len(result['passes'])} passes, "
          f"{attempted} operations, {failed} failed "
          f"({known} per pass on the known large-gamma shift cancellation)")
    print(latency_summary(result))
    print("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))

    if args.trace:
        metrics, absent = layer_metrics(result, imports)
        if absent:
            print(f"absent (gupmol no longer has the function): {', '.join(absent)}")
        write_spans(out_dir / "spans.npz", result)
    else:
        plain = result["passes"]
        energy = [d for v in verdicts for d in v.energy_devs]
        shift = [d for v in verdicts for d in v.shift_devs]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "energy_digits": {"value": checks.digits(energy), "unit": "digits"},
            "shift_digits": {"value": checks.digits(shift), "unit": "digits"},
        }
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    summary = {"correct": not unexpected, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (out_dir / "jobs.json").unlink()
    (out_dir / "summary.json").write_text(json.dumps(summary))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(expect.PREPARE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unpinned", action="store_true",
                        help="leave BLAS/OpenMP at their default thread counts "
                             "(for the single-thread baseline comparison)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gupmol" / "__init__.py").is_file():
        print(f"no gupmol package under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        summary = run(args, root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
