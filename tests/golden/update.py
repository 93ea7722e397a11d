"""Rewrite the golden CLI corpus from the current code and print the diff.

    PYTHONPATH=src python tests/golden/update.py

Every entry of ``corpus.json`` keeps its argv; its exit code, stdout and
stderr are replaced by what the code gives now, recorded as
``tests/test_golden.py`` describes.  To add an invocation, append an entry
that holds its argv alone and run the script.
"""
import difflib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden  # noqa: E402  (found through the path above)


def main() -> None:
    before = test_golden.CORPUS.read_text(encoding="utf-8")
    entries = test_golden.observe([entry["argv"] for entry in json.loads(before)])
    after = json.dumps(entries, indent=1, ensure_ascii=False) + "\n"
    sys.stdout.writelines(difflib.unified_diff(
        before.splitlines(keepends=True), after.splitlines(keepends=True),
        "corpus.json (before)", "corpus.json (after)"))
    test_golden.CORPUS.write_text(after, encoding="utf-8")


if __name__ == "__main__":
    main()
