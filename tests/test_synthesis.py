"""Every exit of counit and antipode synthesis, each on the smallest input
that reaches it.

Both synthesizers solve the sliced identities for an unknown table: a
touched unknown left free raises WindowInsufficiency (over a whole finite
basis only when the system is consistent), an inconsistent system is no
table, and otherwise the table is unique on the touched unknowns.  The command line reaches few of these exits, because the
T1/T2 gate stops a non-Hopf input before antipode synthesis and a finite
run slices the whole basis.  So most tests here call the library: on an
explicit id-tuple window of a finite algebra, or with an explicit
``gate=`` that declares both canonical maps bijective.

The monoid ({0,1}, .) is the spec ``golden/monoid01.spec``: functions on
it, d0 and d1 idempotent, Delta(d_k) the sum of d_i (x) d_j over i.j = k,
eps(d_k) = [k = 1].  It is a finite multiplier bialgebra whose canonical
maps are not bijective.

No input reaches the "fails re-verification" exit of antipode synthesis,
and its guard stays.  ``check_antipode`` evaluates the very rows that
synthesis solves: the same slices, the same action of S(e_t) on the
other leg, the same eps value, in exact arithmetic.  S(e_t) is
iota(sum_k x_(t,k) e_k), or on a finite algebra without a verified unit
the combination of the M(A) basis, re-expressed as iota of its exact
iota-preimage when it has one.  So a solution satisfies every identity
the check reads.  The test below plants a failing check to pin what the
exit returns.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from mulhopf import cli, hopf, specfile
from mulhopf.algebra import Element, Verdict, WindowInsufficiency, tensor_algebra
from mulhopf.bialgebra import Counit, Slicer, check_counit, synthesize_counit
from mulhopf.extension import Extension
from mulhopf.gallery import kfun_cyclic
from mulhopf.hopf import check_hopf, synthesize_antipode
from mulhopf.multiplier import iota
from mulhopf.report import Report

GOLDEN = Path(__file__).parent / "golden"

# k[Z/2], the README's spec: Delta(g) = g (x) g, so Delta(g)(x (x) y) = gx (x) gy
KZ2 = """field Q
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
"""

# the one-dimensional algebra with twice its Hopf coproduct, Delta(e) = 2 e (x) e
DOUBLED = "field Q\nbasis e\nmul e e = 1*e\nunit = 1*e\ndelta e (e,e) = 2*(e,e)\n"


def bundle(text):
    return specfile.build_bundle(specfile.parse_spec(text), name="spec").bialgebra


def monoid():
    return bundle((GOLDEN / "monoid01.spec").read_text(encoding="utf-8"))


def bijective_gate():
    """A ``check_hopf`` result that declares T1 and T2 bijective."""
    ok = Verdict("canonical maps bijective", "proven", "declared")
    return {"T1": {"bijectivity": ok}, "T2": {"bijectivity": ok}, "hopf": ok}


def embedding_z2():
    """kfun_cyclic(2) with Delta(d_k) = iota(d_k (x) 1), which has no antipode."""
    entry = kfun_cyclic(2)
    A = entry.algebra
    AA = tensor_algebra(A, A)
    delta = Extension(A, AA, lambda k: iota(AA, Element(AA, {(k, 0): 1, (k, 1): 1})),
                      name="Delta")
    return Slicer(delta), entry.bialgebra.epsilon


# --- counit ---------------------------------------------------------------


def test_a_counit_unknown_the_window_leaves_free_is_window_insufficient():
    # on the window (d0,) both counit identities read eps(d0) + eps(d1) = 1
    with pytest.raises(WindowInsufficiency, match="counit underdetermined on 1 "):
        synthesize_counit(monoid().slicer(window=("d0",)))


def test_a_product_that_leaves_the_synthesized_counit_window_is_insufficient():
    b = bundle(KZ2)
    assert synthesize_counit(b.slicer()).table == {"e": 1, "g": 1}
    # the window (g,) pins eps(g) = 1, but g*g = e was never solved for
    with pytest.raises(WindowInsufficiency, match="product g\\*g leaves the synthesized"):
        synthesize_counit(b.slicer(window=("g",)))


def test_a_counit_solution_that_is_not_multiplicative_is_no_counit():
    b = bundle(DOUBLED)
    # the identities alone are solved by eps(e) = 1/2, and eps(e e) != eps(e)^2
    half = Counit(b.algebra, {"e": Fraction(1, 2)})
    assert check_counit(b.slicer(), half).status == "proven"
    assert synthesize_counit(b.slicer()) is None


def test_inconsistent_counit_identities_over_a_whole_finite_basis_are_no_counit(
        capsys, monkeypatch):
    # functions on the null semigroup xy = 0 on {0, 1} (golden/null2.spec):
    # Delta(d1) = 0 makes d1's identity read 0 = d1, and only eps(d0) +
    # eps(d1) is pinned; no window is larger than the whole basis, so that
    # is a failed synthesis, not a window insufficiency (exit 2)
    why = []
    assert synthesize_counit(bundle((GOLDEN / "null2.spec").read_text(encoding="utf-8"))
                             .slicer(), why) is None
    assert why == ["the counit identities have no solution"]
    monkeypatch.chdir(GOLDEN)
    for command in ("classify", "check-bialgebra", "check-hopf", "synthesize-counit"):
        assert cli.main([command, "null2.spec"]) == 1
        assert ("counit synthesis: failed [full basis(2)] (the counit identities have "
                "no solution)") in capsys.readouterr().out


@pytest.mark.parametrize("make, cause", [
    (lambda: bundle((GOLDEN / "left_zero2.spec").read_text(encoding="utf-8")).slicer(),
     "the counit identities have no solution"),
    (lambda: bundle(DOUBLED).slicer(),
     "the solution of the counit identities is not multiplicative: eps(e*e) != eps(e)eps(e)"),
    # on the window (d1,) of Z/3 the identities pin eps(d0) = 1 alone
    (lambda: kfun_cyclic(3).bialgebra.slicer(window=(1,)),
     "the solution of the counit identities vanishes on the window"),
], ids=["inconsistent", "not-multiplicative", "vanishing"])
def test_a_failed_counit_synthesis_names_its_cause(make, cause):
    why = []
    assert synthesize_counit(make(), why) is None
    assert why == [cause]


def test_the_counit_synthesis_row_reads_the_cause(tmp_path, capsys):
    spec = tmp_path / "doubled.spec"
    spec.write_text(DOUBLED, encoding="utf-8")
    assert cli.main(["synthesize-counit", str(spec)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  counit synthesis: failed [full basis(1)] (the solution of the counit identities "
        "is not multiplicative: eps(e*e) != eps(e)eps(e))")


# --- antipode -------------------------------------------------------------


def test_an_antipode_coordinate_the_equations_leave_free_is_window_insufficient():
    # past the gate, the pairs (d0, d0) pin only S(d0) d0 + S(d1) d0 = 0
    sl = monoid().slicer()
    eps = synthesize_counit(sl)
    with pytest.raises(WindowInsufficiency, match="antipode underdetermined on 1 touched"):
        synthesize_antipode(sl, eps, gate=bijective_gate())


def test_inconsistent_antipode_equations_are_a_failed_synthesis():
    sl, eps = embedding_z2()
    assert not check_hopf(sl)["hopf"].ok
    syn = synthesize_antipode(sl, eps, gate=bijective_gate())
    assert (syn.status, syn.map, syn.table) == ("failed", None, None)
    assert syn.detail == "antipode equations are inconsistent"


def test_a_failed_synthesis_past_a_passing_gate_gets_its_own_report_row():
    sl, eps = embedding_z2()
    report = Report("check-hopf", "test", "sha256:0")
    syn = cli.stage_antipode(cli.Runner(report), sl, eps, report, gate=bijective_gate())
    assert not syn.ok
    assert [(e["axiom"], e["status"], e["detail"]) for e in report.data["entries"]] == [
        ("antipode synthesis", "failed", "antipode equations are inconsistent")]
    assert report.data["tables"] == {}


def test_a_solution_that_fails_its_check_is_a_failed_synthesis(monkeypatch):
    sl = kfun_cyclic(3).bialgebra.slicer()
    eps = synthesize_counit(sl)
    planted = Verdict("antipode", "failed", "planted", detail="planted miss")
    monkeypatch.setattr(hopf, "check_antipode", lambda *args: planted)
    syn = synthesize_antipode(sl, eps)
    assert syn.status == "failed" and syn.verdicts[-1] is planted
    assert syn.detail == "solution fails re-verification: planted miss"
    assert syn.map is not None and {t: str(v) for t, v in syn.table.items()} == {
        0: "1*d0", 1: "1*d2", 2: "1*d1"}
