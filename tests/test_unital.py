"""The unital finite path against the solve path it stands in for.

When A (x) A is finite with a verified unit, each Delta(e_i) records the
c_i it is iota of (``multiplier.iota_element``), and slices, extension
multiplicativity and ``specfile.derive_rho`` become products in A (x) A.
Each test below computes both routes on one input and compares values,
key order and verdicts.  An input without a verified unit, or whose
certificate fails, must stay on the solve path.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from mulhopf import bialgebra, cli, extension, multiplier, specfile
from mulhopf.algebra import (
    Element, InputError, TensorAlgebra, check_local_units, finite_algebra, tensor_algebra,
    tensor_elem,
)
from mulhopf.bialgebra import Slicer, check_coassociative, check_counit, check_fons
from mulhopf.cli import main
from mulhopf.extension import Extension
from mulhopf.fields import GF, QQ
from mulhopf.gallery import kfun_cyclic, nand_delta
from mulhopf.multiplier import Multiplier, basis_image, iota, iota_element, iota_preimage

from fixtures import random_algebra

GOLDEN = Path(__file__).parent / "golden"


def spec_entry(name):
    spec = specfile.parse_spec((GOLDEN / name).read_text(encoding="utf-8"))
    return specfile.build_bundle(spec, name=name)


def random_delta(seed, kind):
    """Delta(a) = iota(a (x) 1), an algebra map, or the primitive
    iota(a (x) 1 + 1 (x) a), which is not multiplicative."""
    A = random_algebra(seed, field=GF(7))  # no unit declared: it is solved
    T = tensor_algebra(A, A)
    u = A.verified_unit

    def rule(i):
        e = A.basis_element(i)
        c = tensor_elem(e, u, into=T)
        return iota(T, c if kind == "embed" else c + tensor_elem(u, e, into=T))

    return Extension(A, T, rule, name=f"Delta[{kind}]")


def translation_coaction():
    """K(Z/2) over K(Z/4), rho(d_k) = sum over x + g = k mod 2 of d_x (x) d_g."""
    B = kfun_cyclic(2).algebra
    BA = tensor_algebra(B, kfun_cyclic(4).algebra)
    one = B.field.one

    def rule(k):
        return iota(BA, Element(BA, {(x, g): one for x in range(2) for g in range(4)
                                     if (x + g) % 2 == k}))

    return Extension(B, BA, rule, name="rho")


CASES = {
    **{f"kfun_cyclic({n})/{f.name}": (lambda n=n, f=f: kfun_cyclic(n, field=f).bialgebra.delta)
       for n in (1, 2, 3, 5) for f in (QQ, GF(7))},
    "nand_delta": lambda: nand_delta().bialgebra.delta,
    "rescaled_z6": lambda: spec_entry("rescaled_z6.spec").bialgebra.delta,
    "rescaled_z4_f7": lambda: spec_entry("rescaled_z4_f7.spec").bialgebra.delta,
    "trivial_coaction_z4_f7": lambda: spec_entry(
        "rescaled_z4_f7_trivial_coaction.spec").coaction,
    **{f"random{seed}/{kind}": (lambda seed=seed, kind=kind: random_delta(seed, kind))
       for seed in range(5) for kind in ("embed", "primitive")},
    "coaction K(Z/2) over K(Z/4)": translation_coaction,
}


def solve_path(monkeypatch):
    """Switch the unital path off: every caller takes its solve again."""
    for mod in (bialgebra, extension):
        monkeypatch.setattr(mod, "iota_element", lambda z: None)
    monkeypatch.setattr(specfile, "unital_certificate", lambda *a, **k: None)


def all_slices(sl):
    """(side, a, b) over every framing of a finite slicer's Delta."""
    src, (lfac, rfac) = sl.ids, sl.txt.factors
    return ([("right", a, b) for a in src for b in rfac.basis.ids]
            + [("left", a, b) for a in lfac.basis.ids for b in src])


def items(elem):
    return list(elem.coeffs.items())


def rho_tables(ext):
    T = ext.target
    tables = [{y: basis_image(z, "left", y) for y in T.basis.ids if basis_image(z, "left", y)}
              for z in map(ext.basis_multiplier, ext.source.basis.ids)]
    return [{p: basis_image(m, "right", p) for p in T.basis.ids}
            for m in (specfile.derive_rho(T, t) for t in tables)]


def verdicts(ext):
    return [str(v) for v in ext.validate()] + [str(check_fons(Slicer(ext)))]


@pytest.mark.parametrize("case", list(CASES))
def test_certified_products_are_what_the_solves_return(case, monkeypatch):
    ext = CASES[case]()
    assert all(iota_element(ext.basis_multiplier(i)) is not None for i in ext.source_ids)
    sl = Slicer(ext)
    for side, a, b in all_slices(sl):
        got = sl.slice(side, a, b).coeffs
        assert got == sl._product(side, a, b).coeffs
        assert got == iota_preimage(sl.txt, sl._framed(side, a, b)[0]).coeffs
    got = (rho_tables(ext), verdicts(ext))
    if case.endswith("primitive"):  # the failing pair's witness comes from the probes
        assert got[1][0].startswith("extension multiplicativity: failed")
    solve_path(monkeypatch)
    assert (rho_tables(ext), verdicts(ext)) == got


def test_a_planted_delta_falls_back_to_the_parent_verdicts(monkeypatch):
    # Delta(d1) acts on the left as c_1 = Delta(d1) and on the right as
    # c_1 + d0 (x) d0: no certificate, so d1's slices and pairs are solved
    b = kfun_cyclic(3).bialgebra
    A, T = b.algebra, b.delta.target
    true = b.delta.basis_multiplier(1)
    c = iota_element(true)
    wrong = c + T.basis_element((0, 0))
    planted = Multiplier(T, lambda y: Element(T, basis_image(true, "left", y)),
                         lambda y: T.basis_element(y) * wrong)

    def fresh():
        delta = Extension(A, T, lambda i: planted if i == 1 else
                          iota(T, iota_element(b.delta.basis_multiplier(i))), name="Delta")
        return delta, Slicer(delta)

    def run():
        delta, sl = fresh()
        return [str(v) for v in delta.validate()] + [
            str(check_fons(sl)), str(check_coassociative(sl)),
            str(check_counit(Slicer(delta), b.epsilon))]

    got = run()
    assert iota_element(planted) is None
    assert any("failed" in v for v in got)
    solve_path(monkeypatch)
    assert run() == got


def test_a_false_declared_unit_stays_on_the_solve_path(tmp_path, capsys, monkeypatch):
    # rowalg2 with its left unit E11 declared as the unit
    text = ("field Q\nbasis E11 E12\nmul E11 E11 = 1*E11\nmul E11 E12 = 1*E12\n"
            "unit = 1*E11\n")
    A = specfile.build_bundle(specfile.parse_spec(text)).algebra
    T = tensor_algebra(A, A)
    assert A.unit is not None and A.verified_unit is None
    assert T.unit is None and T.verified_unit is None  # a tensor algebra declares none
    assert iota_element(iota(T, T.basis_element(("E11", "E11")))) is None
    assert str(check_local_units(A)) == ("local units: failed [full basis(2)] witness=1*E12 "
                                         "(declared unit does not act as a unit)")
    path = tmp_path / "rowfalse.spec"
    path.write_text(text + "delta E11 (E11,E11) = 1*(E11,E11)\n")
    certs = []
    real = specfile.unital_certificate
    monkeypatch.setattr(specfile, "unital_certificate",
                        lambda *a, **k: certs.append(real(*a, **k)) or certs[-1])
    with pytest.raises(InputError, match="right annihilators"):
        specfile.build_bundle(specfile.parse_spec(path.read_text()))
    assert certs == [None]
    path.write_text(text)
    assert main(["check-algebra", str(path)]) == 1
    assert ("  non-degeneracy: proven [full basis(2)] (unit or complete local units "
            "certified)\n  local units: failed [full basis(2)] witness=1*E12 "
            "(declared unit does not act as a unit)\n") in capsys.readouterr().out


# --- the factor-wise tensor product ------------------------------------------


def pair_id_algebra(T):
    """T as a plain algebra on pair ids whose table is the former tensor rule,
    e_(i,j) e_(k,l) = e_i e_k (x) e_j e_l from the factors' tables."""
    left, right = (pair_id_algebra(f) if hasattr(f, "factors") else f for f in T.factors)
    mul, ids = T.field.mul, T.basis.ids
    table = {((i1, j1), (i2, j2)): {
        (u, v): mul(cu, cv) for u, cu in left.mul_basis(i1, i2).coeffs.items()
        for v, cv in right.mul_basis(j1, j2).coeffs.items()}
        for i1, j1 in ids for i2, j2 in ids}
    return finite_algebra(T.field, ids, table, name="pairs")


def element_of(alg, data):
    ids = alg.basis.ids
    return alg.element({ids[k % len(ids)]: c for k, c in data})


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=lambda f: f.name)
@settings(max_examples=40, deadline=None)
@given(x=strat.lists(strat.tuples(strat.integers(0, 63), strat.integers(-3, 3)), max_size=6),
       y=strat.lists(strat.tuples(strat.integers(0, 63), strat.integers(-3, 3)), max_size=6))
def test_factorwise_products_are_the_pair_id_products(field, x, y):
    A = kfun_cyclic(2, field=field).algebra
    B = random_algebra(1, field=field)
    BA = tensor_algebra(B, A)
    for T in (tensor_algebra(A, A), tensor_algebra(BA, A)):
        ref = pair_id_algebra(T)
        got = element_of(T, x) * element_of(T, y)
        want = element_of(ref, x) * element_of(ref, y)
        assert items(got) == items(want)
        assert T._mul_cache == {}  # nothing cached per pair of pair ids
    assert BA._mul_cache == {}


# --- what the unital path saves ---------------------------------------------


def test_classify_of_a_unital_spec_solves_nothing_and_certifies_once(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    solves, certs, entries = [], [], []
    for mod in (bialgebra, multiplier):
        real_pre = mod.iota_preimage
        monkeypatch.setattr(mod, "iota_preimage",
                            lambda *a, _r=real_pre, **k: solves.append(a) or _r(*a, **k))
    real_cert = multiplier.unital_certificate
    for mod in (multiplier, specfile):
        monkeypatch.setattr(mod, "unital_certificate",
                            lambda alg, *a: certs.append(alg) or real_cert(alg, *a))
    real_resolve = cli.resolve_input
    monkeypatch.setattr(cli, "resolve_input",
                        lambda text: entries.append(real_resolve(text)) or entries[-1])
    assert main(["classify", "rescaled_z6.spec"]) == 0
    assert "multiplier Hopf algebra (proven; finite)" in capsys.readouterr().out
    delta = entries[0][0].bialgebra.delta
    T = delta.target
    assert solves == []
    # one certificate per generator, all in derive_rho's build-time pass,
    # reused by the Slicer and validate through the memo
    assert certs == [T] * 6
    assert all(delta.basis_multiplier(i)._iota for i in delta.source.basis.ids)
    assert T._mul_cache == {}


def test_building_a_unital_spec_keeps_derive_rhos_certificate(monkeypatch):
    """Each Delta(e_i) keeps the c = m(1) that ``derive_rho`` certified; no
    second pass m |> 1 recomputes it."""
    applied = []
    real = Multiplier.apply
    monkeypatch.setattr(Multiplier, "apply",
                        lambda self, side, a: applied.append(self) or real(self, side, a))
    delta = spec_entry("rescaled_z6.spec").bialgebra.delta
    assert applied == []
    for i in delta.source.basis.ids:
        m = delta.basis_multiplier(i)
        assert items(m._iota) == items(real(m, "left", delta.target.verified_unit))


def test_building_a_unital_spec_multiplies_no_elements(monkeypatch):
    """``derive_rho``'s certificate comes from one pass over the partner
    table: no element product, nothing cached per pair of pair ids."""
    products = []
    real = TensorAlgebra.element_mul
    monkeypatch.setattr(TensorAlgebra, "element_mul",
                        lambda self, x, y: products.append(self) or real(self, x, y))
    delta = spec_entry("rescaled_z6.spec").bialgebra.delta
    assert all(delta.basis_multiplier(i)._iota for i in delta.source.basis.ids)
    assert products == []
    assert delta.target._mul_cache == {}
