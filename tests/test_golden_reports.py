"""Reports pinned byte for byte against committed JSON files.

A change that only makes mulhopf faster or smaller must leave every report
as it was; these files were written before such changes and are compared
verbatim.  Regenerate one only for a change meant to alter that report.
"""

from pathlib import Path

import pytest

from mulhopf.cli import main

GOLDEN = Path(__file__).parent / "golden"


# The spec files rescale the function algebra on Z/6 by non-integral c_i:
# e_i = c_i d_i, Delta(e_k)(e_j (x) e_l) = [j + l = k] c_k (e_j (x) e_l) and
# S(e_k) = (c_k / c_{6-k}) e_{6-k}, so the finite solves see those scalars.
@pytest.mark.parametrize("name, argv, code", [
    ("classify_kfin_Z_w3.json", ["classify", "gallery:kfin_Z", "--window", "3"], 0),
    ("classify_kfin_N_w4.json", ["classify", "gallery:kfin_N", "--window", "4"], 1),
    ("classify_rescaled_z6.json", ["classify", "rescaled_z6.spec"], 0),
    ("check_hopf_rescaled_z6.json", ["check-hopf", "rescaled_z6_antipode.spec"], 0),
])
def test_report_matches_the_golden_file(capsys, monkeypatch, name, argv, code):
    monkeypatch.chdir(GOLDEN)  # spec files are named relative to it, as in the report
    assert main(argv + ["--report", "json"]) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
