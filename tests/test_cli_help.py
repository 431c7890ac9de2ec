"""The command line's help and usage errors, pinned byte for byte.

``cli_help.txt`` was written before the shared options moved onto one
parent parser; how the parser is declared must not change what a user
reads.  Regenerate it only for a change meant to alter the command line.
The parser is built once per process; reusing it must not change that
either.
"""

import argparse
import contextlib
import io
from pathlib import Path

from mulhopf.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli_help.txt"
VALID = ["check-algebra", str(GOLDEN.with_name("rescaled_z4_f7.spec")), "--report", "json"]
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


def captured(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, a usage error's too."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def test_only_the_first_call_builds_a_parser(monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or real(self, *a, **k))
    build_parser.cache_clear()  # as in a new process
    counts = []
    for _ in range(3):
        assert captured(VALID)[0] == 0
        counts.append(len(built))
    assert counts[0] > 0 and counts[1:] == counts[:1] * 2


def test_a_parser_built_under_wide_columns_prints_the_golden_help(monkeypatch):
    build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "200")
    assert captured(VALID)[0] == 0
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


def test_a_rejected_command_line_changes_no_later_report():
    build_parser.cache_clear()
    first = captured(VALID)
    build_parser.cache_clear()
    assert captured(VALID[:2] + ["--report", "xml"])[0] == 2
    assert captured(VALID) == first
