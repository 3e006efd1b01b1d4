"""Write the reference report corpus that `test_reference_reports.py` checks.

Each file of `tests/reference_reports/` holds one command line (without
`--out`), its exit code and its JSON report, all at `--seed 1`.  Run it
against the checkout whose reports are the reference:

    PYTHONPATH=<checkout>/src python tests/write_reference_reports.py [dir]

A change that alters a report regenerates the corpus with this script and
names each changed report and the reason.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from weilrep.cli import main

CORPUS_DIR = Path(__file__).with_name("reference_reports")

_RING = [["--p", "3", "--r", "1", "--l", "0", "--n", "1"],
         ["--p", "3", "--r", "1", "--l", "0", "--n", "1", "--twist", "1"],
         ["--p", "3", "--r", "1", "--l", "1", "--n", "1"],
         ["--p", "3", "--r", "1", "--l", "1", "--n", "1", "--twist", "1"],
         ["--p", "5", "--r", "1", "--l", "0", "--n", "1"],
         ["--p", "3", "--r", "1", "--l", "0", "--n", "2"],
         ["--p", "3", "--r", "1", "--l", "0", "--n", "3"],
         ["--p", "3", "--r", "2", "--l", "1", "--n", "1",
          "--cap-group", "2000"],
         ["--p", "3", "--r", "2", "--l", "0", "--n", "1"],
         ["--p", "3", "--r", "2", "--l", "2", "--n", "1"],
         ["--p", "7", "--r", "1", "--l", "0", "--n", "1"],
         ["--p", "5", "--r", "1", "--l", "1", "--n", "1"],
         ["--p", "5", "--r", "1", "--l", "0", "--n", "2"]]

_KINDS = [["--kind", "unramified", "--uval", "0"],
          ["--kind", "unramified", "--uval", "1"],
          ["--kind", "ramified"]]

ARGVS = (
    [["field", "--p", str(p), "--rank", str(r), "--samples", "1000"]
     for p, r in ((3, 1), (5, 1), (7, 1), (3, 2))]
    # every generator pair at the default samples
    + [["field", "--p", "7", "--rank", "1"]]
    + [["ring", *args] for args in _RING]
    + [["torus", "--p", str(p), *kind, "--n", "1"]
       for p in (3, 5) for kind in _KINDS]
    + [["torus", "--p", "3", "--uval", "0", "--n", "3"],
       ["torus", "--p", "3", "--uval", "1", "--n", "3"],
       ["torus", "--p", "3", "--uval", "0", "--n", "2"],
       ["torus", "--p", "3", "--kind", "ramified", "--n", "3"],
       ["torus", "--p", "3", "--uval", "1", "--n", "2"],
       # skipped at --cap-dim by its dimension exponent
       ["torus", "--p", "3", "--n", "9012"],
       ["selfcheck"]])
ARGVS = [argv + ["--seed", "1"] for argv in ARGVS]


def file_name(argv) -> str:
    """The corpus file of a command line: its words without dashes."""
    return "_".join(a.lstrip("-") for a in argv) + ".json"


def run(argv, out) -> tuple[int, dict]:
    """The exit code and the report of one command line, written to out."""
    code = main(list(argv) + ["--out", str(out)])
    return code, json.loads(Path(out).read_text())


def write(directory=CORPUS_DIR):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in ARGVS:
            code, report = run(argv, os.path.join(tmp, "report.json"))
            doc = {"argv": argv, "exit_code": code, "report": report}
            (directory / file_name(argv)).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(code, " ".join(argv))


if __name__ == "__main__":
    write(*sys.argv[1:])
