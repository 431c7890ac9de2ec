"""Reports pinned byte for byte against committed JSON files.

A change that only makes mulhopf faster or smaller must leave every report
as it was; these files were written before such changes and are compared
verbatim.  Regenerate one only for a change meant to alter that report.
"""

import json
from pathlib import Path

import pytest

from mulhopf.cli import main

GOLDEN = Path(__file__).parent / "golden"


# The rescaled spec files rescale the function algebra on Z/n by c_i:
# e_i = c_i d_i, Delta(e_k)(e_j (x) e_l) = [j + l = k] c_k (e_j (x) e_l) and
# S(e_k) = (c_k / c_{n-k}) e_{n-k}, so the finite solves see those scalars
# (non-integral over Q for Z/6; over F_7, with a declared counit, for Z/4).
# check-hopf on the spec without an antipode line synthesizes S after the
# T1/T2 gate.  The check-comodule reports cover the tensor extensions
# rho (x) id and id (x) Delta on two oracle windows (window 3 is the
# benchmark's comodule input, where the probe sweeps dominate) and on a
# finite algebra;
# the last one declares the trivial coaction rho(b) = b (x) 1 of Z/4 over
# F_7 in coaction lines, so the coaction is sliced apart from Delta.
# classify at window 6 and check-comodule at window 4 of K(Z) are the sizes
# where the supports of iota(u) and of Psi leaves prune the probe sweeps.
# nonunital_path8.spec is a finite algebra that is associative, idempotent
# and non-degenerate but has no unit (``test_multiplier`` shows M(A) != A).
# check-comodule of kfun_cyclic(20) is the north-star finite size, where
# coassociativity is decided by element identities; the d0 coaction keeps
# only rho(b) = b (x) d0 from the trivial one, which is not coassociative,
# so its failed lines and witnesses come from the sweeps.
# monoid01.spec is functions on the monoid ({0,1}, .): a finite multiplier
# bialgebra, every verdict proven, whose canonical maps are not bijective;
# left_zero2.spec is functions on the left-zero semigroup xy = x, whose
# coproduct is coassociative but has no counit, and null2.spec on the null
# semigroup xy = 0, whose counit identities have no solution over the whole
# basis (a failed synthesis, not exit 2).  rescaled_z6_no_unit.spec
# drops the unit line, so the unit is solved; nonunital_path8_delta.spec
# gives the path algebra Delta(a) = iota(a (x) e), and as A (x) A has no
# unit its rho tables and slices are solved.  rescaled_z6_damaged_antipode.spec
# doubles S(e2), so the antipode and convolution inverse lines read failed,
# each witness and detail from the first failing pair or frame of a sweep.
# kfun_cyclic(20) is the north-star finite size whose Delta leaves, antipode
# values and iota are all built as iota(a): classify and check-hopf read
# each recorded a, and check-hopf sends the declared gallery S through
# check_antipode and check_convolution_inverse as a map into M(A).
# nand_delta puts a coproduct of iota leaves that is not coassociative on
# functions on Z/2: its coassociativity line fails with the first triple
# in scan order, (d0, d0, d1), and its counit line fails too.
@pytest.mark.parametrize("name, argv, code", [
    ("classify_kfin_Z_w3.json", ["classify", "gallery:kfin_Z", "--window", "3"], 0),
    ("classify_kfin_N_w4.json", ["classify", "gallery:kfin_N", "--window", "4"], 1),
    ("classify_rescaled_z6.json", ["classify", "rescaled_z6.spec"], 0),
    ("check_hopf_rescaled_z6.json", ["check-hopf", "rescaled_z6_antipode.spec"], 0),
    ("check_comodule_kfin_Z_w2.json", ["check-comodule", "kfin_Z_w2.spec"], 0),
    ("check_comodule_rescaled_z4_f7.json", ["check-comodule", "rescaled_z4_f7.spec"], 0),
    ("check_hopf_rescaled_z6_synth.json", ["check-hopf", "rescaled_z6.spec"], 0),
    ("check_comodule_trivial_coaction_z4_f7.json",
     ["check-comodule", "rescaled_z4_f7_trivial_coaction.spec"], 0),
    ("check_comodule_kfin_Z_w3.json", ["check-comodule", "kfin_Z_w3.spec"], 0),
    ("check_algebra_nonunital_path8.json", ["check-algebra", "nonunital_path8.spec"], 1),
    ("classify_kfin_Z_w6.json", ["classify", "kfin_Z_w6.spec"], 0),
    ("check_comodule_kfin_Z_w4.json", ["check-comodule", "kfin_Z_w4.spec"], 0),
    ("check_comodule_kfun_cyclic_20.json", ["check-comodule", "gallery:kfun_cyclic(20)"], 0),
    ("check_comodule_d0_coaction_z4_f7.json",
     ["check-comodule", "rescaled_z4_f7_d0_coaction.spec"], 1),
    ("classify_monoid01.json", ["classify", "monoid01.spec"], 1),
    ("check_hopf_monoid01.json", ["check-hopf", "monoid01.spec"], 1),
    ("classify_left_zero2.json", ["classify", "left_zero2.spec"], 1),
    ("classify_null2.json", ["classify", "null2.spec"], 1),
    ("classify_rescaled_z6_no_unit.json", ["classify", "rescaled_z6_no_unit.spec"], 0),
    ("check_hopf_nonunital_path8_delta.json",
     ["check-hopf", "nonunital_path8_delta.spec"], 1),
    ("check_hopf_rescaled_z6_damaged_antipode.json",
     ["check-hopf", "rescaled_z6_damaged_antipode.spec"], 1),
    ("classify_kfun_cyclic_20.json", ["classify", "gallery:kfun_cyclic(20)"], 0),
    ("check_hopf_kfun_cyclic_20.json", ["check-hopf", "gallery:kfun_cyclic(20)"], 0),
    ("check_bialgebra_nand_delta.json", ["check-bialgebra", "gallery:nand_delta"], 1),
])
def test_report_matches_the_golden_file(capsys, monkeypatch, name, argv, code):
    monkeypatch.chdir(GOLDEN)  # spec files are named relative to it, as in the report
    assert main(argv + ["--report", "json"]) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def numbers(data, path=()):
    """(path, value) of every JSON number in ``data``."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from numbers(value, path + (key,))
    elif isinstance(data, list):
        for value in data:
            yield from numbers(value, path)
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        yield path, data


# Scalars reach a report through ``default=str``; one that leaked as a raw
# int would print as a JSON number where the text form prints a string.
@pytest.mark.parametrize("spec", ["rescaled_z6.spec", "kfin_Z_w3.spec"])
def test_report_numbers_are_only_inputs_and_timings(capsys, monkeypatch, spec):
    monkeypatch.chdir(GOLDEN)
    assert main(["classify", spec, "--report", "json", "--seed", "4", "--timing"]) == 0
    found = list(numbers(json.loads(capsys.readouterr().out)))
    assert {path for path, _ in found} <= {
        ("input", "window"), ("input", "expansion"), ("input", "seed"), ("entries", "timing_ms")}
    assert (("input", "seed"), 4) in found and ("entries", "timing_ms") in dict(found)
