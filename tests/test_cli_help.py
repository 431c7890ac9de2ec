"""The command line's help and usage errors, pinned byte for byte.

``cli_help.txt`` was written before the shared options moved onto one
parent parser; how the parser is declared must not change what a user
reads.  Regenerate it only for a change meant to alter the command line.
"""

import contextlib
import io
from pathlib import Path

from mulhopf.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_help.txt"
COMMANDS = ("check-algebra", "check-bialgebra", "check-hopf", "check-comodule",
            "synthesize-counit", "synthesize-antipode", "classify")
ARGVS = ([["--help"]] + [[cmd, "--help"] for cmd in COMMANDS]
         + [[], ["classify"], ["classify", "x.spec", "--report", "xml"]])


def transcript() -> str:
    """Exit code, stdout and stderr of ``main`` on every argv of ARGVS."""
    out = []
    for argv in ARGVS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(argv)
                code = None
            except SystemExit as exc:
                code = exc.code
        out.append(f"=== mulhopf {' '.join(argv)}\n--- exit {code}\n"
                   f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
    return "".join(out)


def test_help_and_usage_errors_match_the_golden_file(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript() == GOLDEN.read_text(encoding="utf-8")
