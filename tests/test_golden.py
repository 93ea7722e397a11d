"""The golden CLI corpus: byte-identical stdout, exit code and stderr line on a
fixed set of invocations, the package's definition of "same behaviour".

``golden/corpus.json`` is a list of entries, each the argv of one command and
what it printed, as written by the code it was generated from:

- ``stdout``: the lines of standard output, each with its newline, or
  ``{"sha256": ..., "lines": ...}`` for an output of more than
  ``HASHED_OVER`` lines (the 201 x 201 tables);
- ``stderr``: the same for standard error, or null where the command ends in
  argparse's usage text, which is argparse's and not the package's;
- ``exit``: the exit code.

Every command but ``verify`` runs in process through ``cli.main``.  verify's
digits depend on the number of BLAS threads, so its entries run as
``python -m gupmol`` with ``OPENBLAS_NUM_THREADS=1``, and the line that gives
its run time is left out of its stderr.  The packaged data directory is
written ``<data>`` wherever a message names it, so the corpus does not
depend on where the package is installed.

``python tests/golden/update.py`` rewrites the corpus from the current code
and prints the diff: a change that alters the CLI's output shows it there.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import gupmol
from gupmol import cli, packaged_data_path

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
HASHED_OVER = 1000
RUNTIME_LINE = "verify runtime: "


def _record(text: str) -> list[str] | dict:
    text = text.replace(str(packaged_data_path("molecules.csv").parent), "<data>")
    lines = text.splitlines(keepends=True)
    if len(lines) > HASHED_OVER:
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": len(lines)}
    return lines


def _run_in_process(argv: list[str]) -> tuple[int, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            return exc.code, out.getvalue(), None
    return code, out.getvalue(), err.getvalue()


def _run_verify(argv: list[str]) -> tuple[int, str, str | None]:
    env = {k: v for k, v in os.environ.items() if k != cli.DATA_DIR_ENV}
    env["PYTHONPATH"] = str(Path(gupmol.__file__).resolve().parents[1])
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-m", "gupmol", *argv], capture_output=True,
                          text=True, env=env)
    err = "".join(line for line in proc.stderr.splitlines(keepends=True)
                  if not line.startswith(RUNTIME_LINE))
    return proc.returncode, proc.stdout, err


def observe(argv: list[str]) -> dict:
    """The corpus entry of one invocation, as the current code gives it."""
    run = _run_verify if argv[0] == "verify" else _run_in_process
    code, out, err = run(argv)
    return {"argv": argv, "exit": code, "stdout": _record(out),
            "stderr": None if err is None else _record(err)}


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_is_reproduced_byte_for_byte(monkeypatch):
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    mismatched = [" ".join(entry["argv"]) for entry in load()
                  if observe(entry["argv"]) != entry]
    assert not mismatched, (f"{len(mismatched)} invocations changed; "
                            "`python tests/golden/update.py` shows how:\n" + "\n".join(mismatched))


def test_corpus_covers_every_command_and_refusal():
    entries = load()
    assert {entry["argv"][0] for entry in entries} == {"spectrum", "constants", "verify",
                                                       "fit-beta"}
    assert {0, 2, 3, 4} <= {entry["exit"] for entry in entries}
    assert any(isinstance(entry["stdout"], dict) for entry in entries)

