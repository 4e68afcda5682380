"""CLI stdout and exit codes, pinned by one sha256 per group of calls.

``cli_stdout.json`` holds the reference digests. Running this file as a
script prints them for the checkout on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_cli_stdout.py > tests/cli_stdout.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from minorbit.cli import main

# the cli-cold benchmark's type list
TYPES = (
    ["G2", "F4", "E6", "E7", "E8"]
    + [f"A{n}" for n in range(2, 17)]
    + [f"B{n}" for n in range(2, 14)]
    + [f"C{n}" for n in range(2, 21)]
    + [f"D{n}" for n in range(4, 13)]
)
FORMATS = (("--format", "text"), ("--format", "json"))
ELLS = ("2", "3", "5")

CALLS = {
    "tables": [["tables", "--all", *fmt] for fmt in FORMATS],
    "fundgroup": [["fundgroup", "--type", t, *fmt] for t in TYPES for fmt in FORMATS],
    "decomp minimal": [["decomp", "minimal", "--type", t, "--ell", ell] for t in TYPES for ell in ELLS]
    + [["decomp", "minimal", "--type", t, "--ell", "2", "--format", "json"] for t in TYPES],
    "decomp subregular": [["decomp", "subregular", "--type", t, "--ell", ell] for t in TYPES for ell in ELLS]
    + [["decomp", "subregular", "--type", t, "--ell", "3", "--format", "json"] for t in TYPES],
    "decomp simple": [["decomp", "simple", "--type", t] for t in TYPES]
    + [["decomp", "simple", "--type", t, "--ell", "2", "--format", "json"] for t in TYPES],
    "verify": [["verify", "--type", t] for t in ("G2", "A4", "B3", "C3", "D4", "F4", "E7")],
    "cohomology": [["cohomology", "--type", t, *fmt] for t in TYPES for fmt in FORMATS],
    "dmatrices": [["dmatrices", "--type", t, *fmt] for t in TYPES for fmt in FORMATS],
    "springer-gln": [
        ["springer-gln", "--n", str(n), "--ell", ell, *fmt] for n in range(1, 13) for ell in ELLS for fmt in FORMATS
    ],
}


def digest(calls) -> dict:
    """sha256 over every call's argv, exit code and stdout, in order."""
    h = hashlib.sha256()
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode())
    return {"calls": len(calls), "sha256": h.hexdigest()}


@pytest.mark.parametrize("group", sorted(CALLS))
def test_cli_stdout_is_unchanged(group):
    expected = json.loads((Path(__file__).parent / "cli_stdout.json").read_text())
    assert digest(CALLS[group]) == expected[group]


if __name__ == "__main__":
    json.dump({group: digest(calls) for group, calls in sorted(CALLS.items())}, sys.stdout, indent=2)
    print()
