"""Run the two fixed grids of the verification sweep and print what passes.

    PYTHONPATH=src python tests/oracle_grids.py [--grid full] [--grid shallow]

Each grid is one ``closed_vs_oracle_sweep`` per potential and gamma:

- ``full``, 520 cells: gamma 1.5, 2, 2.5, 3, 5, 20, 1e2 ... 1e7 and 3e7;
  n <= 4, l <= 3; the sweep's default beta and tolerances.
- ``shallow``, 144 cells: gamma 1e-3, 0.05, 0.1, 0.3, 0.5, 0.8, 1 and 1.2;
  n, l <= 2; beta = 0.

One line per (potential, gamma) gives PASS when every cell passes, else FAIL
with the (n, l) of the failing cells and their distinct notes; then the worst
energy and shift errors over the passing cells.  Each grid ends with its
totals, wall time and a sha256 over the ``repr`` of every cell, one per
line, in sweep order, and then a line with the number of eigensolves at
each matrix size, counted by wrapping ``oracle._dvr_eigensolve`` here.  The
output names every failing cell and the digest changes with any digit of
any cell, so two commits are compared by running the script against each
one's ``src`` and diffing the lines: only the wall times differ where the
two give bit-identical cells, and a change to the size ladder or the box
shows its LAPACK work in the solve counts.  Not a test: pytest does not
collect it.  The script pins one OpenBLAS thread, as ``gupmol`` does,
since the oracle's last digits depend on the thread count.
"""
import argparse
import hashlib
import os
import time
from collections import Counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS

from gupmol import closed_vs_oracle_sweep, oracle  # noqa: E402  (after the thread pin)

GRIDS = {
    "full": {
        "gammas": (1.5, 2.0, 2.5, 3.0, 5.0, 20.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 3e7),
        "n_max": 4,
        "l_max": 3,
    },
    "shallow": {
        "gammas": (1e-3, 0.05, 0.1, 0.3, 0.5, 0.8, 1.0, 1.2),
        "n_max": 2,
        "l_max": 2,
        "beta": 0.0,
    },
}
POTENTIALS = ("kratzer", "pho")
SOLVES = Counter()  # eigensolves per matrix size, since the current grid began


def counting(eigensolve):
    """``eigensolve`` that counts each call in SOLVES by its matrix size."""
    def counted(ham, count):
        SOLVES[len(ham)] += 1
        return eigensolve(ham, count)
    return counted


def run_grid(name: str) -> None:
    config = dict(GRIDS[name])
    gammas = config.pop("gammas")
    passed = total = 0
    worst_e = worst_de = 0.0
    digest = hashlib.sha256()
    SOLVES.clear()
    t0 = time.perf_counter()
    for potential in POTENTIALS:
        for gamma_value in gammas:
            cells = closed_vs_oracle_sweep(potentials=(potential,), gammas=(gamma_value,),
                                           **config).cells
            for cell in cells:
                digest.update(f"{cell!r}\n".encode())
            good = [c for c in cells if c.passed]
            bad = [c for c in cells if not c.passed]
            e_err = max((c.e_rel_err for c in good), default=0.0)
            de_err = max((c.de_rel_err for c in good), default=0.0)
            passed += len(good)
            total += len(cells)
            worst_e, worst_de = max(worst_e, e_err), max(worst_de, de_err)
            status = "PASS" if not bad else "FAIL " + " ".join(f"({c.n},{c.ell})" for c in bad)
            print(f"{name} {potential:8s} gamma={gamma_value:<8g} {len(good):2d}/{len(cells)} "
                  f"max_e_rel={e_err:.2g} max_de_rel={de_err:.2g} {status}")
            for note in dict.fromkeys(c.note for c in bad):
                print(f"    {note or 'outside the tolerances'}")
    wall = time.perf_counter() - t0
    print(f"{name}: {passed}/{total} cells pass; over them max_e_rel={worst_e:.2g} "
          f"max_de_rel={worst_de:.2g}; wall {wall:.2f} s; sha256 {digest.hexdigest()}")
    print(f"{name}: eigensolves per size: "
          + ", ".join(f"{size}: {SOLVES[size]}" for size in sorted(SOLVES)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", action="append", choices=tuple(GRIDS),
                        help="a grid to run; repeatable (default: both)")
    oracle._dvr_eigensolve = counting(oracle._dvr_eigensolve)
    for name in parser.parse_args().grid or GRIDS:
        run_grid(name)


if __name__ == "__main__":
    main()
