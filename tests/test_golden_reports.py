"""Reports pinned byte for byte against committed JSON files.

A change that only makes mulhopf faster or smaller must leave every report
as it was; these files were written before such changes and are compared
verbatim.  Regenerate one only for a change meant to alter that report.
"""

from pathlib import Path

import pytest

from mulhopf.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv, code", [
    ("classify_kfin_Z_w3.json", ["classify", "gallery:kfin_Z", "--window", "3"], 0),
    ("classify_kfin_N_w4.json", ["classify", "gallery:kfin_N", "--window", "4"], 1),
])
def test_report_matches_the_golden_file(capsys, name, argv, code):
    assert main(argv + ["--report", "json"]) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
