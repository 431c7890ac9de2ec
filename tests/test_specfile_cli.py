"""The text input format and the command line driver."""

import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mulhopf import cli, specfile
from mulhopf.algebra import InputError
from mulhopf.cli import build_parser, main
from mulhopf.extension import Extension
from mulhopf.fields import GF, QQ
from mulhopf.gallery import gallery_names, kfin_Z, kfun_cyclic, zero1
from mulhopf.multiplier import basis_image, iota_element
from mulhopf.specfile import SpecError, build_bundle, derive_rho, parse_spec

GROUP_SPEC = """\
# group algebra of Z/2: e is the identity, g the generator
field Q
basis e g
mul e e = 1*e
mul e g = 1*g
mul g e = 1*g
mul g g = 1*e
unit = 1*e
delta e (e,e) = 1*(e,e)
delta e (e,g) = 1*(e,g)
delta e (g,e) = 1*(g,e)
delta e (g,g) = 1*(g,g)
delta g (e,e) = 1*(g,g)
delta g (e,g) = 1*(g,e)
delta g (g,e) = 1*(e,g)
delta g (g,g) = 1*(e,e)
epsilon e = 1
epsilon g = 1
antipode e = 1*e
antipode g = 1*g
"""


# --- parsing --------------------------------------------------------------


def test_minimal_spec():
    spec = parse_spec("field Q\nbasis a b\n")
    assert spec.field is QQ
    assert spec.ids == ["a", "b"]
    assert spec.finite


def test_prime_field_header():
    spec = parse_spec("field Fp 5\nbasis x\n")
    assert spec.field.p == 5


def test_element_text_with_fractions():
    spec = parse_spec("field Q\nbasis a b\nmul a a = 2*a + 1/3*b\n")
    assert spec.mul[("a", "a")] == {"a": Fraction(2), "b": Fraction(1, 3)}


def test_element_text_roundtrips_through_str():
    A = kfun_cyclic(3).algebra
    x = A.basis_element(0).scale(QQ.coerce(-2)) + A.basis_element(2).scale(Fraction(1, 3))
    text = f"field Q\nbasis d0 d1 d2\nmul d0 d0 = {x}\n"
    spec = parse_spec(text)
    assert spec.mul[("d0", "d0")] == {"d0": Fraction(-2), "d2": Fraction(1, 3)}


def test_full_spec_parses_all_sections():
    spec = parse_spec(GROUP_SPEC)
    assert spec.unit == {"e": QQ.one}
    assert spec.delta["g"][("e", "g")] == {("g", "e"): QQ.one}
    assert spec.epsilon == {"e": QQ.one, "g": QQ.one}
    assert spec.antipode == {"e": {"e": QQ.one}, "g": {"g": QQ.one}}


def test_oracle_spec():
    spec = parse_spec("field Q\noracle kfin_Z\nwindow 3\n")
    assert spec.oracle == ("kfin_Z", [])
    assert spec.window == 3
    assert not spec.finite
    entry = build_bundle(spec)
    assert not entry.algebra.finite
    assert entry.default_window == 3


def test_oracle_spec_with_parameter():
    entry = build_bundle(parse_spec("field Q\noracle kfun_cyclic 3\n"))
    assert entry.algebra.finite
    assert len(entry.algebra.basis.ids) == 3


@pytest.mark.parametrize("text, fragment", [
    ("basis a\nfield Q\n", "field"),
    ("field Q\nbasis a b\nmul a c = 1*a\n", "undeclared"),
    ("field Fp 4\nbasis a\n", "modulus"),
    ("field Q\nbasis a\nmul a a = 1*a\nmul a a = 1*a\n", "duplicate"),
    ("field Q\nbasis a\noracle kfin_Z\n", "oracle"),
    ("field Q\nbasis a\ncoaction a (a,a) = 1*(a,a)\n", "coaction"),
    ("basis a\n", "field"),
    ("field Q\nbasis a\nmul a a = spam\n", "term"),
    ("field Q\nbasis a\nwindow zero\n", "window"),
    ("field Q\n", "basis"),
])
def test_rejected_specs_mention_the_problem(text, fragment):
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert fragment in str(err.value).lower()


def test_error_carries_line_number():
    with pytest.raises(SpecError) as err:
        parse_spec("field Q\nbasis a b\nmul a c = 1*a\n")
    assert "line 3" in str(err.value)


# one line per rule statement of the grammar table, on basis b; the rules
# are tried after a line 3 that gives delta rules for coaction to rest on
RULES_BASE = "field Q\nbasis a b\ndelta a (a,a) = 1*(a,a)\n"


def rule_line(head, flip=None):
    """A well-formed ``head`` line, or with position ``flip`` (the value's
    terms come last) written in the other id shape."""
    shapes, kind, _ = specfile._RULES[head]
    ids = ["(b,b)" if tensor != (k == flip) else "b" for k, tensor in enumerate(shapes)]
    if kind == "scalar":
        return " ".join([head, *ids, "= 1"])
    tensor = (kind != "element") != (flip == len(shapes))
    return " ".join([head, *ids, "=", "1*(b,b)" if tensor else "1*b"])


def rule_positions():
    for head, (shapes, kind, _) in specfile._RULES.items():
        for k in range(len(shapes) + (kind != "scalar")):
            yield head, k


@pytest.mark.parametrize("head", list(specfile._RULES))
def test_every_rule_statement_parses_once_and_rejects_a_repeat(head):
    parse_spec(RULES_BASE + rule_line(head) + "\n")
    with pytest.raises(SpecError, match="^line 5: duplicate"):
        parse_spec(RULES_BASE + (rule_line(head) + "\n") * 2)


@pytest.mark.parametrize("head, position", list(rule_positions()))
def test_an_id_of_the_wrong_shape_is_rejected_with_its_line(head, position):
    # a tensor id in a plain position, or a plain id in a tensor position
    with pytest.raises(SpecError, match=r"^line 4: malformed basis id '\(?b"):
        parse_spec(RULES_BASE + rule_line(head, flip=position) + "\n")


@pytest.mark.parametrize("line", ["window 2", "expansion 2"])
def test_a_repeated_window_or_expansion_is_rejected_with_its_line(line):
    with pytest.raises(SpecError, match=f"^line 4: duplicate {line.split()[0]} declaration"):
        parse_spec(f"field Q\nbasis a\n{line}\n{line}\n")


def test_every_statement_is_documented_in_the_module_and_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Spec files", 1)[1].split("\n## ", 1)[0]
    for head in specfile._RULES:  # the usage text an error prints
        assert specfile._usage(head) in specfile.__doc__
    for head in [*specfile._ONCE, *specfile._RULES]:
        for text in (specfile.__doc__, section):
            assert re.search(rf"(^|[`|])\s*{head} ", text, re.M), head


@pytest.mark.parametrize("name", gallery_names())
def test_oracle_spec_builds_every_gallery_entry_over_its_field(name):
    params = " 3" if name == "kfun_cyclic" else ""
    entry = build_bundle(parse_spec(f"field Fp 7\noracle {name}{params}\nwindow 2\n"))
    assert entry.algebra.field == GF(7)
    if entry.bialgebra is not None:
        assert entry.bialgebra.delta.target.field == GF(7)
    assert entry.default_window == 2  # windowed builders get the spec's window


def test_unknown_oracle_rejected_at_build():
    spec = parse_spec("field Q\noracle nothing_here\n")
    with pytest.raises((SpecError, InputError)):
        build_bundle(spec)


# --- completing the right action ------------------------------------------


def test_derive_rho_on_group_algebra():
    # left multiplication by g completes to right multiplication by g
    spec = parse_spec(GROUP_SPEC)
    entry = build_bundle(spec)
    A = entry.algebra
    m = derive_rho(A, {"e": {"g": QQ.one}, "g": {"e": QQ.one}}, what="test")
    assert {p: basis_image(m, "right", p) for p in A.basis.ids} == \
        {"e": {"g": QQ.one}, "g": {"e": QQ.one}}
    assert iota_element(m) == A.basis_element("g")  # iota of the certified m(1)


def test_derive_rho_rejects_right_annihilators():
    with pytest.raises(InputError) as err:
        derive_rho(zero1().algebra, {"z": {}}, what="test")
    assert "annihilator" in str(err.value)


def test_derive_rho_rejects_one_sided_tables():
    A = kfun_cyclic(2).algebra
    with pytest.raises(InputError) as err:
        derive_rho(A, {0: {1: QQ.one}}, what="test")
    assert "two-sided" in str(err.value)


# --- bundles from files ---------------------------------------------------


def test_build_bundle_produces_a_working_bialgebra(tmp_path):
    entry = build_bundle(parse_spec(GROUP_SPEC))
    b = entry.bialgebra
    assert b is not None
    assert b.epsilon.witness(entry.algebra.basis.ids) == entry.algebra.basis_element("e")
    assert b.antipode is not None
    # the group algebra of Z/2 is a Hopf algebra
    rc = run_cli(["check-hopf", write_spec(tmp_path, GROUP_SPEC)])[0]
    assert rc == 0


def write_spec(tmp_path, text, name="case.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(argv, capsys=None):
    rc = main(argv)
    if capsys is None:
        return rc, None, None
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- exit codes -----------------------------------------------------------


def test_python_dash_m_runs_the_cli_from_the_checkout():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "mulhopf", "classify", "gallery:kfun_cyclic(3)"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("mulhopf classify gallery:kfun_cyclic(3)")


def test_exit_0_and_classification_line(capsys):
    rc, out, _ = run_cli(["classify", "gallery:kfun_cyclic(2)"], capsys)
    assert rc == 0
    assert "classification: multiplier Hopf algebra (proven; finite)" in out


def test_a_finite_bialgebra_that_is_not_hopf_is_labelled_proven(capsys, monkeypatch):
    # every verdict on the finite monoid ({0,1}, .) reads proven [full basis];
    # an oracle algebra's read holds_on_window (golden classify_kfin_N_w4.json)
    monkeypatch.chdir(Path(__file__).parent / "golden")
    rc, out, _ = run_cli(["classify", "monoid01.spec"], capsys)
    assert rc == 1
    assert out.endswith("classification: multiplier bialgebra (proven; finite)\n")


def path8_with_a_tensor_one(extra="", mirror=False, keyword="delta",
                            spec="nonunital_path8.spec"):
    """``spec`` with Delta(a) = a (x) 1, i.e. Delta(a)(x (x) y) = ax (x) y,
    written from its mul lines; ``mirror`` gives 1 (x) a, (y (x) x) |-> y (x) ax,
    ``keyword`` "coaction" rho in place of Delta; ``extra`` lines are appended."""
    text = (Path(__file__).parent / "golden" / spec).read_text(encoding="utf-8")
    ids = next(line for line in text.splitlines() if line.startswith("basis ")).split()[1:]
    lines = []
    for line in text.splitlines():
        if line.startswith("mul "):
            lhs, value = line[4:].split(" = ")
            (a, x), (coeff, ax) = lhs.split(), value.split("*")
            lines += [f"{keyword} {a} ({y},{x}) = {coeff}*({y},{ax})\n" if mirror
                      else f"{keyword} {a} ({x},{y}) = {coeff}*({ax},{y})\n" for y in ids]
    return text + "".join(lines) + extra


@pytest.mark.parametrize("command, extra, axiom", [
    ("check-bialgebra", "", "counit synthesis"),
    ("check-hopf", "", "counit synthesis"),
    ("check-comodule", "", "counit synthesis"),
    ("synthesize-counit", "", "counit synthesis"),
    ("synthesize-antipode", "", "counit synthesis"),
    ("check-hopf", "epsilon e = 1\n", "T2 bijectivity"),  # a declared counit gets that far
])
def test_an_undefined_slice_fails_with_its_pair_as_witness(tmp_path, capsys, command, extra,
                                                           axiom):
    # (e (x) 1)Delta(e) = e (x) 1 is not in A (x) A: A has no unit
    rc, out, err = run_cli([command, write_spec(tmp_path, path8_with_a_tensor_one(extra))],
                           capsys)
    assert (rc, err) == (1, "")
    assert re.search(rf"^  {axiom}: failed \[[^]]*\] witness=1\*e, 1\*e \(Delta framed by "
                     r"\(a\(x\)1\) is not iota of a window element \[side=left, a=e, b=e\]\)$",
                     out, re.M)



UNDEFINED_SLICE = {
    "left": "framed by (a(x)1) is not iota of a window element [side=left, a=e, b=e]",
    "right": "framed by (1(x)b) is not iota of a window element [side=right, a=e, b=e]",
}


@pytest.mark.parametrize("text, name, side, axioms", [
    (path8_with_a_tensor_one(), "Delta", "left", {
        "check-bialgebra": ["slice membership", "coassociativity", "counit synthesis"],
        "check-comodule": ["counit synthesis", "comodule coassociativity (framed)",
                           "comodule coassociativity (element)"]}),
    (path8_with_a_tensor_one("epsilon e = 1\n", mirror=True), "Delta", "right", {
        "check-bialgebra": ["slice membership", "coassociativity", "counit"],
        "check-comodule": ["comodule coassociativity (framed)",
                           "comodule coassociativity (element)", "comodule counit"]}),
    # a declared coaction rho(a) = 1 (x) a over the coproduct of nonunital_path8_delta
    (path8_with_a_tensor_one("epsilon e = 1\n", mirror=True, keyword="coaction",
                             spec="nonunital_path8_delta.spec"), "rho", "right", {
        "check-comodule": ["comodule coassociativity (framed)",
                           "comodule coassociativity (element)", "comodule counit"]}),
], ids=["a(x)1", "1(x)a", "rho 1(x)a"])
def test_every_check_an_undefined_slice_fails_reads_the_slicers_report(tmp_path, capsys, text,
                                                                      name, side, axioms):
    # A has no unit, so the framed e (x) e is not in A (x) A: every line that
    # fails at that pair reads one message
    path = write_spec(tmp_path, text)
    for command, want in axioms.items():
        rc, out, err = run_cli([command, path], capsys)
        assert (rc, err) == (1, "")
        failed = [line for line in out.splitlines() if " witness=1*e, 1*e (" in line]
        assert [line.split(": failed [")[0].strip() for line in failed] == want, (command, out)
        for line in failed:
            assert line.endswith(f" witness=1*e, 1*e ({name} {UNDEFINED_SLICE[side]})"), line

def test_exit_1_on_failed_axiom(capsys):
    rc, out, _ = run_cli(["check-algebra", "gallery:zero1"], capsys)
    assert rc == 1
    assert "idempotency: failed" in out
    assert "witness=1*z" in out


def test_a_zero_rule_value_is_the_zero_product(tmp_path, capsys):
    rc, out, _ = run_cli(["check-algebra", write_spec(tmp_path, "field Q\nbasis e\nmul e e = 0\n")],
                         capsys)
    assert rc == 1
    assert "  idempotency: failed [full basis(1)] witness=1*e " in out


def test_classify_of_an_algebra_with_no_coproduct_stops_at_the_algebra(capsys):
    # matfin has no coproduct; its window is certified through the gallery's
    # local-unit hook
    rc, out, _ = run_cli(["classify", "gallery:matfin", "--window", "2"], capsys)
    assert rc == 0
    assert out.endswith("\nclassification: non-degenerate idempotent algebra "
                        "(holds_on_window 2)\n")


def test_the_text_report_names_its_options_and_times_each_entry(capsys):
    rc, out, _ = run_cli(["check-algebra", "gallery:kfun_cyclic(2)", "--seed", "3", "--timing"],
                         capsys)
    head, *entries = out.splitlines()
    assert rc == 0
    assert head == "mulhopf check-algebra gallery:kfun_cyclic(2)  (expansion=2, seed=3)"
    assert len(entries) == 4 and all(re.search(r" \d+\.\dms$", line) for line in entries)


def test_exit_2_on_window_insufficiency(capsys):
    # at expansion 1 the window-2 search cannot decompose Delta's products:
    # the run stops with a partial report
    rc, out, err = run_cli(["check-bialgebra", "gallery:kfin_Z", "--window", "2",
                            "--expansion", "1"], capsys)
    assert rc == 2
    assert "window insufficient" in err
    assert "local units: holds_on_window [5 ids of K(Z)]" in out
    assert "extension" not in out


def test_an_omitted_epsilon_line_reads_zero(tmp_path, capsys):
    # a counit declared only where it is nonzero is the whole counit, as
    # omitted mul and antipode lines read zero: no window is too small
    full = str(Path(__file__).parent / "golden" / "rescaled_z4_f7.spec")
    text = Path(full).read_text()
    trimmed = write_spec(tmp_path, re.sub(r"epsilon e\d = 0\n", "", text))
    assert Path(trimmed).read_text().count("epsilon") == 1
    for cmd in ("check-bialgebra", "check-hopf", "check-comodule", "classify",
                "synthesize-antipode"):
        reports = []
        for spec in (full, trimmed):
            rc, out, err = run_cli([cmd, spec, "--report", "json"], capsys)
            doc = json.loads(out)
            reports.append((rc, err, doc["entries"], doc["tables"], doc["classification"]))
        assert reports[0] == reports[1], cmd
    # an omitted nonzero value reads zero too, and fails the counit law
    partial = write_spec(tmp_path, GROUP_SPEC.replace("epsilon g = 1\n", ""), "group.spec")
    rc, out, err = run_cli(["check-bialgebra", partial], capsys)
    assert (rc, err) == (1, "")
    assert "  counit: failed [full basis(2)] witness=1*e, 1*g" in out


# a unital F_7 algebra whose Delta(e_k) = iota(t_k) is not idempotent
# (test_comodule's "planted random2" row): id (x) Delta does not lift
DEGENERATE_DELTA_SPEC = """\
field Fp 7
basis f0 f1
mul f0 f0 = 1*f0
mul f0 f1 = 5*f0
mul f1 f0 = 5*f0
mul f1 f1 = 6*f0 + 1*f1
unit = 3*f0 + 1*f1
delta f0 (f0,f0) = 3*(f0,f0)
delta f0 (f0,f1) = 6*(f0,f0) + 6*(f0,f1)
delta f0 (f1,f0) = 6*(f0,f0) + 6*(f1,f0)
delta f0 (f1,f1) = 6*(f0,f0) + 2*(f0,f1) + 2*(f1,f0)
delta f1 (f0,f0) = 2*(f0,f0)
delta f1 (f0,f1) = 5*(f0,f0) + 1*(f0,f1)
delta f1 (f1,f0) = 5*(f0,f0) + 1*(f1,f0)
delta f1 (f1,f1) = 5*(f0,f1) + 5*(f1,f0)
epsilon f0 = 1
epsilon f1 = 0
"""


def test_exit_1_when_a_finite_lift_has_no_decomposition(tmp_path, capsys):
    # a finite window cannot grow: the missing A.B decomposition is a failure
    # with its basis element as witness, not "window too small"
    rc, out, err = run_cli(["check-comodule", write_spec(tmp_path, DEGENERATE_DELTA_SPEC)],
                           capsys)
    assert rc == 1 and err == ""
    assert ("comodule coassociativity: failed [full basis(2) / full basis(2), 8 probes] "
            "witness=1*f0, 1*f0, 1*(f0,(f1,f1)) (lift undefined: no A.B decomposition)") in out


def test_exit_3_on_a_tensor_id_where_a_plain_id_belongs(tmp_path, capsys):
    text = GROUP_SPEC.replace("epsilon e = 1\nepsilon g = 1\n", "epsilon (e,e) = 1\n")
    rc, _, err = run_cli(["check-hopf", write_spec(tmp_path, text)], capsys)
    assert rc == 3
    assert "line 17: malformed basis id '(e,e)' (want a plain id)" in err


def test_exit_3_on_bad_input(tmp_path, capsys):
    rc, _, err = run_cli(["classify", write_spec(tmp_path, "field Q\nbasis a\nmul a b = 1*a\n")], capsys)
    assert rc == 3
    assert "line 3" in err
    rc, _, err = run_cli(["classify", str(tmp_path / "missing.spec")], capsys)
    assert rc == 3
    rc, _, err = run_cli(["classify", "gallery:who_knows"], capsys)
    assert rc == 3
    assert "known:" in err
    rc, _, err = run_cli(["classify", "gallery:kfun_cyclic"], capsys)
    assert rc == 3
    assert "kfun_cyclic takes 1 parameter(s), got 0" in err


# --- reports --------------------------------------------------------------


def test_json_report_schema(capsys):
    rc, out, _ = run_cli(["classify", "gallery:kfun_cyclic(2)",
                          "--report", "json", "--seed", "5"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["tool"]["name"] == "mulhopf"
    assert data["command"] == "classify"
    assert data["input"]["digest"].startswith("sha256:")
    assert data["input"]["seed"] == 5
    for entry in data["entries"]:
        assert set(entry) == {"axiom", "status", "window", "witness",
                              "detail", "timing_ms"}
        assert entry["timing_ms"] is None
    assert data["tables"]["epsilon"] == {"d0": "1", "d1": "0"}
    assert data["tables"]["antipode"] == {"d0": "1*d0", "d1": "1*d1"}
    assert data["classification"] == "multiplier Hopf algebra (proven; finite)"


def test_json_reports_are_byte_identical_across_runs(capsys):
    argv = ["classify", "gallery:kfun_cyclic(3)", "--report", "json", "--seed", "11"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_timing_flag_fills_timing_ms(capsys):
    rc, out, _ = run_cli(["check-algebra", "gallery:kfun_cyclic(2)",
                          "--report", "json", "--timing"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert all(isinstance(e["timing_ms"], (int, float)) for e in data["entries"])


class _StepClock:
    """A stand-in for ``time``: perf_counter moves only inside costed steps."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def costs(self, fn, seconds):
        def step(*args, **kwargs):
            self.now += seconds
            return fn(*args, **kwargs)
        return step


RESCALED_Z6 = str(Path(__file__).parent / "golden" / "rescaled_z6.spec")


@pytest.mark.parametrize("argv, charged", [
    (["classify", "gallery:kfin_Z", "--window", "3"],
     {"extension multiplicativity": 4000.0, "counit synthesis": 1000.0,
      "T1 bijectivity": 2000.0}),
    (["check-hopf", "gallery:kfin_Z", "--window", "3"],
     {"extension multiplicativity": 4000.0, "T1 bijectivity": 8000.0}),
    (["check-hopf", RESCALED_Z6],
     {"extension multiplicativity": 4000.0, "counit synthesis": 1000.0,
      "T1 bijectivity": 8000.0, "antipode": 2000.0}),
], ids=["classify", "check-hopf", "check-hopf-synthesized"])
def test_timing_charges_each_step_once_to_its_first_verdict(capsys, monkeypatch,
                                                              argv, charged):
    # syntheses and the T1/T2 gate run inside their timed task, and a task
    # returning several verdicts (Delta's three certificates) is charged once
    clock = _StepClock()
    monkeypatch.setattr(cli, "time", clock)
    for name, seconds in (("synthesize_counit", 1.0), ("synthesize_antipode", 2.0),
                          ("check_hopf", 8.0)):
        monkeypatch.setattr(cli, name, clock.costs(getattr(cli, name), seconds))
    monkeypatch.setattr(Extension, "validate", clock.costs(Extension.validate, 4.0))
    rc, out, _ = run_cli(argv + ["--report", "json", "--timing"], capsys)
    assert rc == 0
    timings = [(e["axiom"], e["timing_ms"]) for e in json.loads(out)["entries"]]
    assert timings == [(axiom, charged.get(axiom, 0.0)) for axiom, _ in timings]
    assert sum(ms for _, ms in timings) == clock.now * 1000.0


@pytest.mark.parametrize("argv", [
    ["classify", "gallery:kfin_Z", "--window", "4"],
    ["check-comodule", "gallery:kfin_Z", "--window", "2"],
], ids=["classify", "check-comodule"])
def test_timings_add_up_to_the_wall_time(capsys, argv):
    # every check runs inside a timed task; parsing, the bundle build and
    # the report are all that is left outside
    t0 = time.perf_counter()
    rc, out, _ = run_cli(argv + ["--report", "json", "--timing"], capsys)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert rc == 0
    total_ms = sum(e["timing_ms"] for e in json.loads(out)["entries"])
    assert 0.9 * wall_ms <= total_ms <= wall_ms


def test_jobs_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["classify", "gallery:zero1", "--jobs", "2"])
    assert exc.value.code == 2


def test_synthesize_counit_emits_table(capsys):
    rc, out, _ = run_cli(["synthesize-counit", "gallery:kfun_cyclic(3)",
                          "--report", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["tables"]["epsilon"] == {"d0": "1", "d1": "0", "d2": "0"}


def test_check_comodule_accepts_a_coaction_spec(tmp_path, capsys):
    coacting = GROUP_SPEC + "".join(
        line.replace("delta", "coaction")
        for line in GROUP_SPEC.splitlines(keepends=True)
        if line.startswith("delta"))
    rc, out, _ = run_cli(["check-comodule", write_spec(tmp_path, coacting)],
                         capsys)
    assert rc == 0
    assert "comodule counit: proven" in out


def test_declared_antipode_goes_through_both_characterizations(tmp_path, capsys):
    rc, out, _ = run_cli(["check-hopf", write_spec(tmp_path, GROUP_SPEC)], capsys)
    assert rc == 0
    assert "antipode: proven" in out
    assert "convolution inverse: proven" in out


# functions on Z/2 over F_5, Delta dual to addition, no epsilon lines
FUN2_SPEC = """\
field Fp 5
basis d0 d1
mul d0 d0 = 1*d0
mul d1 d1 = 1*d1
unit = 1*d0 + 1*d1
delta d0 (d0,d0) = 1*(d0,d0)
delta d0 (d1,d1) = 1*(d1,d1)
delta d1 (d0,d1) = 1*(d0,d1)
delta d1 (d1,d0) = 1*(d1,d0)
"""


def test_check_comodule_synthesizes_a_missing_counit(tmp_path, capsys):
    rc, out, err = run_cli(["check-comodule", write_spec(tmp_path, FUN2_SPEC),
                            "--report", "json"], capsys)
    assert rc == 0
    assert err == ""
    doc = json.loads(out)
    status = {e["axiom"]: e["status"] for e in doc["entries"]}
    assert status["counit synthesis"] == status["comodule counit"] == "proven"
    assert doc["tables"]["epsilon"] == {"d0": "1", "d1": "0"}


def test_check_comodule_without_any_counit_fails_cleanly(tmp_path, capsys):
    # Delta(d_k) is the indicator of NAND(i, j) = k: no counit solves it
    nand = FUN2_SPEC.replace("unit = 1*d0 + 1*d1\n", "").split("delta")[0] + (
        "delta d0 (d1,d1) = 1*(d1,d1)\n"
        "delta d1 (d0,d0) = 1*(d0,d0)\n"
        "delta d1 (d0,d1) = 1*(d0,d1)\n"
        "delta d1 (d1,d0) = 1*(d1,d0)\n")
    rc, out, err = run_cli(["check-comodule", write_spec(tmp_path, nand)], capsys)
    assert rc == 1
    assert "counit synthesis: failed" in out
    line = next(l for l in out.splitlines() if "comodule counit" in l)
    assert "failed" in line and "no counit" in line
    assert err == ""


def test_check_hopf_runs_the_canonical_map_gate_once(tmp_path, capsys, monkeypatch):
    from mulhopf import cli, hopf
    spec = write_spec(tmp_path, "".join(
        l for l in GROUP_SPEC.splitlines(keepends=True)
        if not l.startswith("antipode")))
    calls = []
    real_bijective = hopf.check_bijective
    monkeypatch.setattr(hopf, "check_bijective",
                        lambda *a, **k: calls.append(a) or real_bijective(*a, **k))
    rc, once, _ = run_cli(["check-hopf", spec, "--report", "json"], capsys)
    assert rc == 0
    assert len(calls) == 2  # T1 and T2, shared with antipode synthesis
    real_synth = hopf.synthesize_antipode
    monkeypatch.setattr(cli, "synthesize_antipode",
                        lambda *a, gate=None, **k: real_synth(*a, **k))
    rc, twice, _ = run_cli(["check-hopf", spec, "--report", "json"], capsys)
    assert len(calls) == 6  # the gate recomputed inside synthesis
    assert once == twice
    assert json.loads(once)["tables"]["antipode"] == {"e": "1*e", "g": "1*g"}


def slice_routes(tmp_path, capsys, monkeypatch, spec_text):
    """classify a spec; the run's bundle, its slicers, and the slices each
    route computed: products in A (x) A (certified Delta) and iota solves."""
    from mulhopf import bialgebra, cli
    entries, built, current = [], [], []
    routes = {"product": [], "solve": []}
    real_resolve = cli.resolve_input
    monkeypatch.setattr(cli, "resolve_input",
                        lambda text: entries.append(real_resolve(text)) or entries[-1])
    real_init = bialgebra.Slicer.__init__
    monkeypatch.setattr(bialgebra.Slicer, "__init__",
                        lambda self, *a, **k: built.append(self) or real_init(self, *a, **k))
    real_slice = bialgebra.Slicer.slice

    def slice_(self, side, a_id, b_id, verify=False):
        current.append((side, a_id, b_id))
        try:
            return real_slice(self, side, a_id, b_id, verify)
        finally:
            current.pop()

    monkeypatch.setattr(bialgebra.Slicer, "slice", slice_)
    real_product = bialgebra.Slicer._product

    def product(self, side, a_id, b_id):
        u = real_product(self, side, a_id, b_id)
        if u is not None:
            routes["product"].append(current[-1])
        return u

    monkeypatch.setattr(bialgebra.Slicer, "_product", product)
    real_preimage = bialgebra.iota_preimage
    monkeypatch.setattr(bialgebra, "iota_preimage", lambda *a, **k: routes["solve"].append(
        current[-1]) or real_preimage(*a, **k))
    rc, out, _ = run_cli(["classify", write_spec(tmp_path, spec_text)], capsys)
    assert rc == 0
    assert "classification: multiplier Hopf algebra (" in out
    return entries[0][0].bialgebra, built, routes, out


def test_classify_solves_each_slice_once_on_one_slicer(tmp_path, capsys, monkeypatch):
    # the declared unit verifies, so every slice is a product in A (x) A
    bundle, built, routes, out = slice_routes(tmp_path, capsys, monkeypatch, FUN2_SPEC)
    assert "classification: multiplier Hopf algebra (proven; finite)" in out
    assert len(built) == 1 and list(bundle._slicers.values()) == built
    done = routes["product"] + routes["solve"]
    assert routes["solve"] == []
    assert len(done) == len(set(done)) == len(built[0]._cache) == 8


def test_classify_without_a_unit_line_solves_each_slice_once(tmp_path, capsys, monkeypatch):
    # the unit d0 + d1 is solved, so Delta is certified and no slice is an iota solve
    spec = FUN2_SPEC.replace("unit = 1*d0 + 1*d1\n", "")
    bundle, built, routes, _ = slice_routes(tmp_path, capsys, monkeypatch, spec)
    assert bundle.algebra.unit is None
    assert bundle.algebra.verified_unit.coeffs == {"d0": 1, "d1": 1}
    assert len(built) == 1 and list(bundle._slicers.values()) == built
    assert routes["solve"] == []
    assert len(routes["product"]) == len(set(routes["product"])) == len(built[0]._cache) == 8


def test_check_comodule_over_itself_shares_the_bundle_slicer(capsys, monkeypatch):
    from mulhopf import bialgebra
    built = []
    real_init = bialgebra.Slicer.__init__
    monkeypatch.setattr(bialgebra.Slicer, "__init__",
                        lambda self, *a, **k: built.append(self) or real_init(self, *a, **k))
    rc, out, _ = run_cli(["check-comodule", "gallery:kfin_Z", "--window", "3"], capsys)
    assert rc == 0
    assert "comodule coassociativity (element): holds_on_window" in out
    assert len(built) == 1


def test_check_comodule_reads_the_run_slicers_and_no_other(tmp_path, capsys, monkeypatch):
    # Delta's Slicer carries the run's window and expansion; a declared
    # coaction gets one more Slicer on the same pair, and every comodule
    # line is handed these and nothing else
    from mulhopf import bialgebra
    built, handed = [], []
    real_init = bialgebra.Slicer.__init__
    monkeypatch.setattr(bialgebra.Slicer, "__init__",
                        lambda self, *a, **k: built.append(self) or real_init(self, *a, **k))
    for name in ("check_comodule_coassoc", "check_comodule_coassoc_framed",
                 "check_comodule_coassoc_element", "check_comodule_counit"):
        monkeypatch.setattr(cli, name, lambda *a, _real=getattr(cli, name): (
            handed.append(a) or _real(*a)))
    spec = write_spec(tmp_path, "field Q\noracle kfin_Z\nwindow 2\nexpansion 3\n")
    rc, out, _ = run_cli(["check-comodule", spec], capsys)
    assert rc == 0 and "comodule counit: holds_on_window" in out
    [sl] = built
    assert (sl.window, sl.expansion) == (2, 3)
    assert len(handed) == 4 and all(h[0] is sl for h in handed)
    assert all(h[1] is sl for h in handed[:3])

    built.clear(), handed.clear()
    rc, _, _ = run_cli(["check-comodule", str(Path(__file__).parent / "golden" /
                                               "rescaled_z4_f7_trivial_coaction.spec")], capsys)
    assert rc == 0
    dsl, gamma = built
    assert gamma.delta.name == "rho" and dsl.delta.name == "Delta"
    assert (gamma.window, gamma.expansion) == (dsl.window, dsl.expansion)
    assert len(handed) == 4 and all(h[0] is gamma for h in handed)
    assert all(h[1] is dsl for h in handed[:3])


def test_check_comodule_decomposes_each_target_id_once(tmp_path, capsys, monkeypatch):
    # every lifted multiplier shares its extension's B.A / A.B decompositions
    from mulhopf import extension
    solved = []
    real = extension.Extension.decompose
    monkeypatch.setattr(extension.Extension, "decompose",
                        lambda self, a, side: solved.append(
                            (id(self), side, tuple(sorted(a.coeffs)))) or real(self, a, side))
    spec = write_spec(tmp_path, "field Q\noracle kfin_Z\nwindow 2\n")
    rc, _, _ = run_cli(["check-comodule", spec], capsys)
    assert rc == 0
    assert solved and len(solved) == len(set(solved))


@pytest.mark.parametrize("name, window, label", [
    ("kfin_Z", 2, "5 ids of K(Z) -> 25 ids of K(Z)(x)K(Z)"),
    ("kfin_N", 3, "4 ids of K(N) -> 16 ids of K(N)(x)K(N)"),
])
def test_gallery_input_certifies_delta_on_the_run_window(capsys, name, window, label):
    rc, out, _ = run_cli(["check-bialgebra", f"gallery:{name}", "--window", str(window),
                          "--report", "json"], capsys)
    assert rc == 0
    entries = {e["axiom"]: e for e in json.loads(out)["entries"]}
    for axiom in ("extension multiplicativity", "extension idempotency",
                  "extension non-degeneracy"):
        assert entries[axiom]["window"] == label


@pytest.mark.parametrize("spec_text, expansion", [
    ("field Q\noracle kfin_Z\nwindow 3\n", 2),
    ("field Q\noracle kfin_Z\nexpansion 3\n", 3),
], ids=["window-line", "default-window"])
def test_oracle_spec_certifies_delta_on_the_run_window(tmp_path, capsys, spec_text, expansion):
    # the spec's own window (or the builder default) must not reach Delta's
    # certificates when --window differs; the spec's expansion survives
    spec = write_spec(tmp_path, spec_text)
    rc, out, _ = run_cli(["check-bialgebra", spec, "--window", "2", "--report", "json"],
                         capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["input"]["expansion"] == expansion
    entries = {e["axiom"]: e for e in report["entries"]}
    for axiom in ("extension multiplicativity", "extension idempotency",
                  "extension non-degeneracy"):
        assert entries[axiom]["window"] == "5 ids of K(Z) -> 25 ids of K(Z)(x)K(Z)"
    assert {e["window"] for e in report["entries"]} == {
        "5 ids of K(Z)", "5 ids of K(Z) -> 25 ids of K(Z)(x)K(Z)"}


# at expansion 1 Delta's certificates stop the run (exit 2) before any
# slice; test_bialgebra slices at expansion 1 through the library
@pytest.mark.parametrize("command", ["classify", "check-comodule"])
def test_kz_at_expansion_one_reads_no_false_failure(capsys, command):
    rc, out, _ = run_cli([command, "gallery:kfin_Z", "--window", "2", "--expansion", "1",
                          "--report", "json"], capsys)
    assert rc != 1
    assert [e for e in json.loads(out)["entries"] if e["status"] == "failed"] == []


def test_delta_certificates_search_at_the_run_expansion(capsys):
    # (d-2,d-2) needs Delta(d-4), outside window 2 at expansion 1: the run
    # cannot certify idempotency and must say so, not read holds_on_window
    rc, out, err = run_cli(["check-bialgebra", "gallery:kfin_Z", "--window", "2",
                            "--expansion", "1", "--report", "json"], capsys)
    assert rc == 2
    assert "1*(d-2,d-2) of kfin_Z(x)kfin_Z has no B.A decomposition" in err
    axioms = [e["axiom"] for e in json.loads(out)["entries"]]
    assert "extension idempotency" not in axioms
    # at the default expansion the same window certifies it
    rc, out, _ = run_cli(["check-bialgebra", "gallery:kfin_Z", "--window", "2",
                          "--report", "json"], capsys)
    assert rc == 0
    entries = {e["axiom"]: e["status"] for e in json.loads(out)["entries"]}
    assert entries["extension idempotency"] == "holds_on_window"


def test_classify_contracts_each_leaf_against_a_local_unit_once_per_side(capsys, monkeypatch):
    # a slice's inner factor (a frame, or Delta(e_a)) meets each local unit
    # once per side; every further slice reuses the memoised contraction
    from mulhopf import multiplier
    from mulhopf.algebra import Algebra
    units, counts = {}, {}
    real_unit, real_contract = Algebra.local_unit, multiplier._contract_leaf

    def local_unit(self, ids):
        e = real_unit(self, ids)
        units[id(e)] = e
        return e

    def counted(z, side, e, *kept):
        if units.get(id(e)) is e:
            counts.setdefault((id(z), side, id(e)), [z, 0])[1] += 1
        return real_contract(z, side, e, *kept)

    monkeypatch.setattr(Algebra, "local_unit", local_unit)
    monkeypatch.setattr(multiplier, "_contract_leaf", counted)
    rc, _, _ = run_cli(["classify", "gallery:kfin_Z", "--window", "4"], capsys)
    assert rc == 0
    assert counts and max(n for _, n in counts.values()) == 1


def test_a_leaf_contracted_against_a_scaled_local_unit_keeps_no_per_id_image():
    # Delta(d0) contracted against the local unit of the 289 ids of window 8
    # of A (x) A, once per side: the contraction is memoised, the 289 basis
    # images it read are not
    from mulhopf.algebra import resolve_window
    from mulhopf.multiplier import _unit_contraction
    delta = kfin_Z(window=4).bialgebra.delta
    leaf = delta._rule(0)  # a fresh leaf, not the extension's cached one
    ids = resolve_window(delta.target, 8)
    assert len(ids) == 289
    left, right = (_unit_contraction(leaf, side, 8, ids) for side in ("left", "right"))
    assert left == right and len(left.coeffs) == 17
    assert leaf._memo == {"left": {}, "right": {}}
    assert _unit_contraction(leaf, "left", 8, ids) is left


def test_check_comodule_caches_nothing_on_the_coaction_sums_it_sweeps(capsys, monkeypatch):
    # each (b, a) applies rho (x) id to a slice, a fresh sum that the probe
    # sweep walks term by term instead of memoising its probe images
    sums, real_apply = [], Extension.apply

    def apply(self, b):
        out = real_apply(self, b)
        factors = getattr(self, "factors", None)
        if factors is not None and factors[1].name == "iota":  # rho (x) id
            sums.append(out)
        return out

    monkeypatch.setattr(Extension, "apply", apply)
    rc, _, _ = run_cli(["check-comodule", str(Path(__file__).parent / "golden" / "kfin_Z_w2.spec")],
                       capsys)
    assert rc == 0
    assert sums and all(z._memo is None for z in sums)


@pytest.mark.parametrize("argv", [["classify", "kfin_Z_w3.spec"],
                                  ["check-comodule", "kfin_Z_w2.spec"]])
def test_swept_psi_leaves_keep_empty_caches(capsys, monkeypatch, argv):
    # multiplier_eq, agrees_on_probes and the comodule differs reach a Psi
    # leaf through support; its images are tensors of its factors' images
    from mulhopf import multiplier
    swept, real = {}, multiplier.support

    def support(z, side, probes):
        if z._psi is not None:
            swept[id(z)] = z
        return real(z, side, probes)

    monkeypatch.setattr(multiplier, "support", support)
    monkeypatch.chdir(Path(__file__).parent / "golden")
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    assert swept and all(z._memo is None for z in swept.values())


def test_classify_evaluates_each_delta_rule_once_per_side_and_id(capsys, monkeypatch):
    # a leaf's unit contraction keeps the nonzero images it evaluates, and
    # every later image of that leaf inside the unit's ids is read from them:
    # 120,050 calls for as many (leaf, side, id), where re-evaluating the
    # rule made 176,594, up to 3 per (leaf, side, id); wrapped in a closure
    # per side, the two sides cannot share (see the test below)
    from mulhopf.multiplier import Multiplier
    calls, real = Counter(), Multiplier.__init__

    def counted(leaf, side, rule):
        def count(bid):
            calls[(id(leaf), side, bid)] += 1
            return rule(bid)
        return count

    def init(self, alg, lam, rho, name=None):
        if name is not None and name.startswith("Delta(d"):
            lam, rho = counted(self, "left", lam), counted(self, "right", rho)
        real(self, alg, lam, rho, name)

    monkeypatch.setattr(Multiplier, "__init__", init)
    rc, _, _ = run_cli(["classify", str(Path(__file__).parent / "golden" / "kfin_Z_w6.spec")],
                       capsys)
    assert rc == 0
    assert calls and max(calls.values()) == 1


def test_classify_evaluates_a_two_sided_delta_rule_once_per_id(capsys, monkeypatch):
    # K(Z)'s Delta(d_k) is one rule for both sides, and such a leaf keeps one
    # memo, one unit contraction and one support for both: 60,025 calls for
    # as many (leaf, id), where a memo per side made 120,050, 2 per id
    from mulhopf.multiplier import Multiplier
    calls, real = Counter(), Multiplier.__init__

    def init(self, alg, lam, rho, name=None):
        if name is not None and name.startswith("Delta(d") and lam is rho:
            def count(bid, rule=lam):
                calls[(id(self), bid)] += 1
                return rule(bid)
            lam = rho = count
        real(self, alg, lam, rho, name)

    monkeypatch.setattr(Multiplier, "__init__", init)
    rc, _, _ = run_cli(["classify", str(Path(__file__).parent / "golden" / "kfin_Z_w6.spec")],
                       capsys)
    assert rc == 0
    assert calls and max(calls.values()) == 1


def test_classify_at_window_6_memoises_few_basis_images(capsys, monkeypatch):
    # leaf applications and Psi leaves memoise nothing per id: about 12,000
    # images stay memoised, where storing every image read took 106,770
    from mulhopf.multiplier import Multiplier
    made, real = [], Multiplier.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Multiplier, "__init__", init)
    rc, _, _ = run_cli(["classify", str(Path(__file__).parent / "golden" / "kfin_Z_w6.spec")],
                       capsys)
    assert rc == 0
    assert sum(len(images) for z in made if z._memo for images in z._memo.values()) <= 15_000


# --- reports read back -----------------------------------------------------


@pytest.mark.parametrize("unit_line", ["unit = 1*e\n", ""], ids=["unital", "no-unit"])
def test_synthesized_tables_parse_back_as_spec_lines_and_verify(tmp_path, capsys, unit_line):
    # the epsilon and antipode tables print as spec statements; without a
    # unit line the antipode is solved over all of M(A)
    bare = "".join(line for line in GROUP_SPEC.splitlines(keepends=True)
                   if not line.startswith(("unit", "epsilon", "antipode")))
    bare = bare.replace("basis e g\n", "basis e g\n" + unit_line)
    rc, out, _ = run_cli(["synthesize-antipode", write_spec(tmp_path, bare),
                          "--report", "json"], capsys)
    assert rc == 0
    tables = json.loads(out)["tables"]
    lines = [f"{name} {i} = {value}\n" for name in ("epsilon", "antipode")
             for i, value in tables[name].items()]
    spec = parse_spec(bare + "".join(lines))
    assert set(spec.epsilon) == set(spec.antipode) == {"e", "g"}
    rc, out, _ = run_cli(["check-hopf", write_spec(tmp_path, bare + "".join(lines), "back.spec"),
                          "--report", "json"], capsys)
    assert rc == 0
    statuses = {e["axiom"]: e["status"] for e in json.loads(out)["entries"]}
    assert [statuses[axiom] for axiom in ("counit", "antipode", "convolution inverse")] \
        == ["proven"] * 3


def coerced_table_value(text, field):
    """A Q table value (scalar or element) written over the prime ``field``."""
    def scalar(q):
        q = Fraction(q)
        return field.format(field.mul(field.coerce(q.numerator),
                                      field.inv(field.coerce(q.denominator))))
    if "*" not in text:
        return scalar(text)
    terms = (t.split("*", 1) for t in text.split(" + "))
    return " + ".join(f"{scalar(c)}*{bid}" for c, bid in terms)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_classify_of_cyclic_functions_agrees_over_q_f5_and_f7(tmp_path, capsys, n):
    reports = {}
    for field_line in ("Q", "Fp 5", "Fp 7"):
        path = write_spec(tmp_path, f"field {field_line}\noracle kfun_cyclic {n}\n")
        rc, out, _ = run_cli(["classify", path, "--report", "json"], capsys)
        assert rc == 0
        reports[field_line] = json.loads(out)
    q = reports["Q"]
    assert q["classification"] == "multiplier Hopf algebra (proven; finite)"
    for p in (5, 7):
        fp = reports[f"Fp {p}"]
        assert fp["classification"] == q["classification"]
        assert [(e["axiom"], e["status"]) for e in fp["entries"]] == \
            [(e["axiom"], e["status"]) for e in q["entries"]]
        assert fp["tables"] == {
            name: {k: coerced_table_value(v, GF(p)) for k, v in table.items()}
            for name, table in q["tables"].items()}
