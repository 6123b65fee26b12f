"""Byte-for-byte goldens of the CLI's help texts and usage errors.

``cli_goldens.json`` holds stdout, stderr and the exit code of each case
below, rendered at 80 columns.  Re-record it with
``PYTHONPATH=src python tests/test_cli_goldens.py`` only when a change to
the command-line surface is intended.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from cuspcheck.cli import main

GOLDENS = Path(__file__).with_name("cli_goldens.json")

VERBS = ["dual", "collapse", "analyze", "bounds", "scan", "satake", "small"]

CASES = {
    "help": ["--help"],
    **{f"{verb}-help": [verb, "--help"] for verb in VERBS},
    "no-verb": [],
    "unknown-verb": ["frobnicate"],
    "unknown-flag": ["dual", "7 2^2", "--bogus"],
    "satake-without-n": ["satake"],
    "unknown-group": ["small", "--group", "foo", "--n", "3"],
    "csv-on-dual": ["dual", "7 2^2", "--format", "csv"],
    "n-not-an-integer": ["satake", "--n", "abc"],
    "stray-positional": ["small", "--group", "sp", "--n", "3", "extra"],
    "verb-without-positional": ["analyze"],
    "help-before-verb": ["-h", "small"],
}

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="argparse before 3.11 names the heading 'optional arguments:'"
)


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(CASES[name]) == json.loads(GOLDENS.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    recorded = {name: invoke(argv) for name, argv in sorted(CASES.items())}
    GOLDENS.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
