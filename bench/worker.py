"""Benchmark worker: the only process that imports gupmol.

Run by run.py in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH and BLAS/OpenMP pinned to one thread.  Modes:

    worker.py import-probe MODULE
        time ``import MODULE`` in this fresh interpreter; print one JSON line.
    worker.py probe WORKLOAD
        import what WORKLOAD calls, make one small warm-up call into each of
        its layers, print "ready" and exit (the set-up time run.py measures).
    worker.py run WORKLOAD JOBS SECONDS TRACE OUT
        as probe, then run whole passes over the jobs in JOBS until SECONDS
        have passed, and pickle per-pass timings and outputs to OUT.  With
        TRACE=1, passes alternate untraced and traced (see spans.py).

Only stdlib is imported before gupmol, so the import probe and the set-up
time see gupmol's own import cost.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import pickle
import resource
import sys
import time

MIN_PASSES = 5


def import_probe(module: str) -> None:
    t0 = time.perf_counter()
    importlib.import_module(module)
    elapsed = time.perf_counter() - t0
    scipy = sum(1 for name in sys.modules if name == "scipy" or name.startswith("scipy."))
    print(json.dumps({"import_s": elapsed, "scipy_modules": scipy}), flush=True)


def cli_call(cli, argv: list[str]) -> tuple[int, str]:
    """Run gupmol.cli.main(argv) with stdout captured; returns (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue()


# ---------------------------------------------------------------------------
# set-up: imports plus one small call into each layer the workload times


def setup(workload: str):
    if workload == "interactive":
        import gupmol
        import gupmol.cli as cli

        cli_call(cli, ["spectrum", "--potential", "kratzer", "--molecule", "H2",
                       "--nmax", "0", "--lmax", "0"])
        cli_call(cli, ["fit-beta", "--molecule", "H2-kratzer", "--e-exp", "2200"])
        h2 = gupmol.Molecule.from_spectroscopic("H2", 4.7446, 0.74144, 0.503913)
        gupmol.pho_energy_deformed(h2, gupmol.Deformation(1e-6), gupmol.QuantumNumbers(0, 0))
        return gupmol
    if workload == "tables":
        import gupmol

        m = gupmol.synthetic_molecule(36.0)
        d = gupmol.Deformation(1e-6)
        for kind in ("kratzer", "pho"):
            table = gupmol.closed_form_table(m, d, kind, 3, 1)
            gupmol.fit_dunham(table)
            gupmol.fit_beta_bound(m, 0.2, gupmol.QuantumNumbers(0, 0), kind)
        gupmol.kratzer_spectroscopic_constants(m, d)
        gupmol.pho_spectroscopic_constants(m, d)
        return gupmol
    if workload == "sweep":
        import gupmol

        gupmol.closed_vs_oracle_sweep(gammas=(20.0,), n_max=0, l_max=0,
                                      base_points=201, levels=2)
        return gupmol
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations: each returns a callable (timed) and a post-processor (untimed)
# that turns the raw result into plain data the client can check


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def interactive_ops(gupmol, jobs: dict) -> list:
    import gupmol.cli as cli

    ops = []
    for spec in jobs["ops"]:
        if spec["op"] == "library":
            ops.append((_library_call(gupmol, spec), _library_post))
        else:
            argv = spec["argv"]
            ops.append((lambda argv=argv: cli_call(cli, argv), _cli_post))
    return ops


def _library_call(gupmol, spec):
    name, call = spec["molecule"], spec["call"]
    de, re, mu = spec["params"]
    beta, n, ell = float(spec["beta"]), spec["n"], spec["l"]

    if call.endswith("_constants"):
        def run():
            m = gupmol.Molecule.from_spectroscopic(name, de_ev=de, re_angstrom=re, mu_amu=mu)
            return getattr(gupmol, call)(m, gupmol.Deformation(beta=beta)).as_dict()
    else:
        def run():
            m = gupmol.Molecule.from_spectroscopic(name, de_ev=de, re_angstrom=re, mu_amu=mu)
            level = getattr(gupmol, call)(m, gupmol.Deformation(beta=beta),
                                          gupmol.QuantumNumbers(n, ell))
            return {"e0": level.e0, "de": level.de, "total": level.total}
    return run


def _library_post(result):
    return _digest(repr(sorted(result.items())).encode()), result


def _cli_post(result):
    code, text = result
    return _digest(f"{code}\n{text}".encode()), {"code": code, "stdout": text}


def tables_ops(gupmol, jobs: dict) -> list:
    ops = []
    for spec in jobs["jobs"]:
        mol = spec["molecule"]
        m = gupmol.Molecule(name=mol["name"], de=mol["de"], re=mol["re"], mu=mol["mu"])
        kind = spec["kind"]
        master = spec["master"]
        master_table = gupmol.LevelTable(
            molecule=m,
            entries=tuple((gupmol.QuantumNumbers(n, ell), e) for n, ell, e in master["entries"]),
            provenance=f"computed-{kind}",
        )
        bound_qn = gupmol.QuantumNumbers(*spec["bound_level"])

        def run(m=m, kind=kind, spec=spec, master_table=master_table, bound_qn=bound_qn):
            d = gupmol.Deformation(spec["beta"])
            table = gupmol.closed_form_table(m, d, kind, spec["n_max"], spec["l_max"])
            fit = gupmol.fit_dunham(table)
            constants = getattr(gupmol, f"{kind}_spectroscopic_constants")(m, d)
            bound = gupmol.fit_beta_bound(m, spec["e_exp"], bound_qn, kind)
            master_fit = gupmol.fit_dunham(master_table)
            return table, fit, constants, bound, master_fit

        ops.append((run, _table_post))
    return ops


def _table_post(result):
    import numpy as np

    table, fit, constants, bound, master_fit = result
    labels = np.array([(qn.n, qn.ell) for qn, _ in table.entries], dtype=np.int64)
    energies = np.array([e for _, e in table.entries], dtype=np.float64)
    payload = {
        "labels": labels,
        "energies": energies,
        "fit": fit.constants.as_dict(),
        "constants": constants.as_dict(),
        "beta_upper": bound.beta_upper,
        "minimal_length_upper": bound.minimal_length_upper,
        "master_fit": master_fit.constants.as_dict(),
    }
    scalars = repr([payload["beta_upper"], payload["minimal_length_upper"]]
                   + [sorted(payload[k].items()) for k in ("fit", "constants", "master_fit")])
    return _digest(labels.tobytes() + energies.tobytes() + scalars.encode()), payload


def sweep_ops(gupmol, jobs: dict) -> list:
    def run():
        return gupmol.closed_vs_oracle_sweep(
            potentials=("kratzer", "pho"), gammas=tuple(jobs["gammas"]),
            n_max=jobs["n_max"], l_max=jobs["l_max"], beta=jobs["beta"])

    def post(report):
        cells = [(c.potential, c.gamma, c.n, c.ell, c.e_closed, c.e_oracle, c.e_rel_err,
                  c.de_closed, c.de_oracle, c.de_rel_err, bool(c.passed), c.note)
                 for c in report.cells]
        signature = [_digest(repr(cell).encode()) for cell in cells]
        return signature, {"cells": cells, "all_passed": bool(report.all_passed)}

    return [(run, post)]


OPS = {"interactive": interactive_ops, "tables": tables_ops, "sweep": sweep_ops}


# ---------------------------------------------------------------------------
# timed passes


def run_passes(ops: list, seconds: float, tracer) -> dict:
    passes = []
    first_outputs = None
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        raw, latency, errors = [], [], []
        clock, cpu = time.perf_counter, time.process_time
        w0, c0 = clock(), cpu()
        for run, _ in ops:
            t0 = clock()
            try:
                raw.append(run())
                errors.append(None)
            except Exception as exc:  # an operation that raises has failed
                raw.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            latency.append(clock() - t0)
        wall, cpu_s = clock() - w0, cpu() - c0
        if traced:
            tracer.uninstall()
        layer = tracer.snapshot() if traced else None

        signatures, outputs = [], []
        for (_, post), result, error in zip(ops, raw, errors):
            if error is None:
                signature, payload = post(result)
            else:
                signature, payload = None, None
            signatures.append(signature)
            outputs.append(payload)
        if first_outputs is None:
            first_outputs = outputs
        passes.append({"wall_s": wall, "cpu_s": cpu_s, "traced": traced, "latency": latency,
                       "errors": errors, "signatures": signatures, "layer": layer})
        index += 1
        if clock() - start >= seconds and index >= MIN_PASSES:
            break
    return {"passes": passes, "first_outputs": first_outputs}


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "import-probe":
        import_probe(argv[2])
        return 0
    workload = argv[2]
    gupmol = setup(workload)
    print("ready", flush=True)
    if mode == "probe":
        return 0
    jobs_path, seconds, trace, out_path = argv[3], float(argv[4]), argv[5] == "1", argv[6]
    with open(jobs_path) as handle:
        jobs = json.load(handle)
    ops = OPS[workload](gupmol, jobs)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    result = run_passes(ops, seconds, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["gupmol_file"] = gupmol.__file__
    if tracer is not None:
        result["spans"] = tracer.spans()
        result["layer_keys"] = list(tracer.keys)
    with open(out_path, "wb") as handle:
        pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
