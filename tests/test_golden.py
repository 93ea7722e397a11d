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

It is the one home of the CLI's exact bytes: ``tests/test_cli.py`` holds
the relations and properties that an entry cannot express.

``observe`` runs the entries through ``cli.main``, one after another, in one
``python`` process that it starts with ``OPENBLAS_NUM_THREADS=1`` (the
package's data directory variable unset), because a solve's or a fit's last
digits could depend on the number of BLAS threads; the line that gives
``verify``'s run time is left out of its stderr.  The packaged data
directory is written ``<data>`` wherever a message names it, so the corpus
does not depend on where the package is installed.  The corpus was
recorded on Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and scipy-openblas
0.3.31; another BLAS build may round a fit's or a solve's last digits
differently.

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


def observe(argvs: list[list[str]], threads: str = "1") -> list[dict]:
    """The corpus entries of ``argvs``, as the current code gives them with
    ``threads`` BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k != cli.DATA_DIR_ENV}
    env["PYTHONPATH"] = str(Path(gupmol.__file__).resolve().parents[1])
    env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, __file__], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    entries = []
    for argv, (code, out, err) in zip(argvs, json.loads(proc.stdout)):
        if err is not None:
            err = _record("".join(line for line in err.splitlines(keepends=True)
                                  if not line.startswith(RUNTIME_LINE)))
        entries.append({"argv": argv, "exit": code, "stdout": _record(out), "stderr": err})
    return entries


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_is_reproduced_byte_for_byte():
    entries = load()
    mismatched = [" ".join(entry["argv"]) for entry, now in
                  zip(entries, observe([entry["argv"] for entry in entries])) if now != entry]
    assert not mismatched, (f"{len(mismatched)} invocations changed; "
                            "`python tests/golden/update.py` shows how:\n" + "\n".join(mismatched))


def test_corpus_covers_every_command_and_refusal():
    entries = load()
    assert {entry["argv"][0] for entry in entries} == {"spectrum", "constants", "verify",
                                                       "fit-beta"}
    assert {0, 2, 3, 4} <= {entry["exit"] for entry in entries}
    assert any(isinstance(entry["stdout"], dict) for entry in entries)


if __name__ == "__main__":  # the process that observe starts
    json.dump([_run_in_process(argv) for argv in json.load(sys.stdin)], sys.stdout)
