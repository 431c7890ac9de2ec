"""Morphisms B -> M(A) and their lifts to M(B) -> M(A)."""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from mulhopf import extension, multiplier
from mulhopf.algebra import InvariantViolation, regular_module, tensor_algebra, tensor_elem
from mulhopf.cli import main
from mulhopf.extension import (Extension, TensorExtension, _join_windows,
                               compose_extensions, identity_extension, restrict_module)
from mulhopf.fields import GF, QQ
from mulhopf.gallery import kfin_Z, kfun_cyclic, nand_delta_bundle
from mulhopf.multiplier import Multiplier, basis_image, iota, multiplier_eq, one, psi_embed
from mulhopf.specfile import build_bundle, parse_spec

from fixtures import random_coproduct_bundle, random_extension


def fiber_map_z2_to_z4():
    """Pullback of functions along Z/4 ->> Z/2: d_k goes to its fiber
    indicator d_k + d_{k+2}, a non-degenerate algebra map into M(K(Z/4))."""
    B = kfun_cyclic(2).algebra
    A = kfun_cyclic(4).algebra

    def rule(i):
        return iota(A, A.basis_element(i) + A.basis_element(i + 2))

    return Extension.from_map(B, A, rule, name="pullback")


def test_validate_passes_for_structure_maps():
    for ext in (identity_extension(kfun_cyclic(3).algebra), fiber_map_z2_to_z4()):
        assert all(v.ok for v in ext.validate())


def test_apply_collects_terms():
    ext = fiber_map_z2_to_z4()
    B, A = ext.source, ext.target
    # the fibers partition Z/4, so the image of 1_B is 1_A
    x = B.basis_element(0) + B.basis_element(1)
    assert multiplier_eq(ext.apply(x), one(A), range(4)).ok


def test_lift_extends_along_iota():
    # fbar(iota_B(b)) = f(b) for every basis id
    ext = fiber_map_z2_to_z4()
    B, A = ext.source, ext.target
    for i in range(2):
        lifted = ext.lift(iota(B, B.basis_element(i)))
        assert multiplier_eq(lifted, ext.basis_multiplier(i), range(4)).ok


def test_lift_is_unital():
    ext = fiber_map_z2_to_z4()
    assert multiplier_eq(ext.lift(one(ext.source)), one(ext.target), range(4)).ok


def test_lift_is_multiplicative_on_iota_products():
    ext = fiber_map_z2_to_z4()
    B, A = ext.source, ext.target
    x = iota(B, B.basis_element(0))
    y = iota(B, B.basis_element(1))
    assert multiplier_eq(ext.lift(x * y), ext.lift(x) * ext.lift(y), range(4)).ok


def test_identity_extension_lifts_to_the_identity():
    ext = identity_extension(kfun_cyclic(2).algebra)
    m = iota(ext.source, ext.source.basis_element(1))
    assert multiplier_eq(ext.lift(m), m, range(2)).ok


@pytest.mark.parametrize("case", ["finite", "oracle"])
def test_a_lift_builds_no_combined_multiplier(case, monkeypatch):
    # fbar(x) |> e_j is summed from the basis multipliers f(e_k), term by
    # term over x |> e_i = sum d e_k, with no f(x |> e_i) built per term
    if case == "finite":
        ext, probes = fiber_map_z2_to_z4(), range(4)
    else:
        ext, probes = identity_extension(kfin_Z().algebra, window=2), (-1, 0, 2)
    B = ext.source
    b = B.basis_element(0) + B.basis_element(1).scale(QQ.coerce(3))
    applied = []
    real = Extension.apply
    monkeypatch.setattr(Extension, "apply",
                        lambda self, x: applied.append(x) or real(self, x))
    lifted = ext.lift(iota(B, b))
    images = [basis_image(lifted, side, j) for j in probes for side in ("left", "right")]
    assert applied == [] and any(images)
    assert multiplier_eq(lifted, ext.apply(b), probes).ok


def test_bimodule_roundtrip():
    # tabulate an extension's two actions, rebuild from the tables, compare
    ext = fiber_map_z2_to_z4()
    B, A = ext.source, ext.target

    def left_rule(b_id, a_id):
        return ext.basis_multiplier(b_id).apply("left", A.basis_element(a_id)).coeffs

    def right_rule(a_id, b_id):
        return ext.basis_multiplier(b_id).apply("right", A.basis_element(a_id)).coeffs

    rebuilt = Extension.from_bimodule(B, A, left_rule, right_rule,
                                      name="pullback'")
    for i in range(2):
        assert multiplier_eq(rebuilt.basis_multiplier(i),
                             ext.basis_multiplier(i), range(4)).ok


def test_from_map_rejects_non_multiplicative_rule():
    B = kfun_cyclic(2).algebra
    A = kfun_cyclic(2).algebra
    # swaps the idempotents: d0 -> d1 is not multiplicative (d0*d0 = d0
    # but d1*d1 = d1 means images must match indices)
    bad = {0: 1, 1: 1}
    with pytest.raises(InvariantViolation):
        Extension.from_map(B, A, lambda i: iota(A, A.basis_element(bad[i])),
                           name="bad")


def test_compose_extensions():
    ext = fiber_map_z2_to_z4()
    idA = identity_extension(ext.target)
    comp = compose_extensions(ext, idA)
    for i in range(2):
        assert multiplier_eq(comp.basis_multiplier(i),
                             ext.basis_multiplier(i), range(4)).ok


def test_tensor_extensions_act_componentwise():
    ext = fiber_map_z2_to_z4()
    B, A = ext.source, ext.target
    tt = TensorExtension(ext, ext)
    BB, AA = tt.source, tt.target
    probe = tensor_elem(A.basis_element(1) + A.basis_element(2),
                        A.basis_element(2), into=AA)
    got = tt.basis_multiplier((1, 0)).apply("left", probe)
    want = tensor_elem(ext.basis_multiplier(1).apply(
                           "left", A.basis_element(1) + A.basis_element(2)),
                       ext.basis_multiplier(0).apply("left", A.basis_element(2)),
                       into=AA)
    assert got == want


def reference_columns(ext, side):
    """The generic span loop, kept verbatim as the reference: each basis
    multiplier applied to each target basis element, zero hits skipped."""
    cols = []
    for i in ext.source_search_ids:
        fi = ext.basis_multiplier(i)
        for j in ext.target_ids:
            ej = ext.target.basis_element(j)
            hit = fi.apply(side, ej)
            if not hit.is_zero():
                cols.append(((i, j), hit.coeffs))
    return cols


def delta_tensor_identity(bundle, window):
    """id (x) Delta and Delta (x) id, the two lifts of comodule coassociativity."""
    idA = identity_extension(bundle.algebra, window=window, expansion=2)
    return (TensorExtension(idA, bundle.delta), TensorExtension(bundle.delta, idA))


@pytest.mark.parametrize("bundle, window", [
    (kfin_Z(window=2).bialgebra, 2),
    (kfun_cyclic(3, field=GF(7)).bialgebra, None),
], ids=["kfin_Z-w2", "kfun_cyclic3-F7"])
def test_tensor_span_columns_equal_the_generic_loop(bundle, window):
    # same column keys, values and order, so the same solver and decompositions
    for ext in delta_tensor_identity(bundle, window):
        for side in ("left", "right"):
            got = [(key, list(col.items())) for key, col in ext._columns(side)]
            want = [(key, list(col.items())) for key, col in reference_columns(ext, side)]
            assert got and got == want, (ext.name, side)


def test_tensor_spans_never_apply_a_psi_multiplier(monkeypatch):
    # the z3-sized spans (169 source search ids x 343 target ids) are built
    # from the factors' hit tables, not by applying Psi(f(e_i) (x) g(e_j))
    calls = []
    exts = delta_tensor_identity(kfin_Z(window=3).bialgebra, 3)
    targets = {id(ext.target) for ext in exts}
    for owner, name in ((extension, "basis_image"), (multiplier, "basis_image"),
                        (Multiplier, "apply")):
        real = getattr(owner, name)

        def counted(z, side, a, real=real):
            if id(z.alg) in targets:
                calls.append(a)
            return real(z, side, a)

        monkeypatch.setattr(owner, name, counted)
    for ext in exts:
        assert (len(ext.source_search_ids), len(ext.target_ids)) == (169, 343)
        for side in ("left", "right"):
            assert ext._span(side).rank > 0
    assert calls == []


@pytest.mark.parametrize("w1", [3, None, (0, 1)], ids=["int", "None", "tuple"])
@pytest.mark.parametrize("w2", [2, None, (1,)], ids=["int", "None", "tuple"])
def test_joined_windows_are_the_smaller_int_else_none(w1, w2):
    want = {(3, 2): 2, (3, None): 3, (3, (1,)): 3, (None, 2): 2, ((0, 1), 2): 2}
    assert _join_windows(w1, w2) == want.get((w1, w2))  # every other pair: None


def test_psi_embed_componentwise():
    A = kfun_cyclic(2).algebra
    AA = tensor_algebra(A, A)
    x = iota(A, A.basis_element(0))
    y = iota(A, A.basis_element(1))
    m = psi_embed((x, y), into=AA)
    probe = tensor_elem(A.basis_element(0) + A.basis_element(1),
                        A.basis_element(1), into=AA)
    assert m.apply("left", probe) == tensor_elem(A.basis_element(0),
                                              A.basis_element(1), into=AA)


def test_restrict_module_pulls_the_action_back():
    ext = fiber_map_z2_to_z4()
    B, A = ext.source, ext.target
    m = restrict_module(ext, regular_module(A))
    # a . b = a * f(b) for the regular module
    got = m.act(A.basis_element(0), B.basis_element(0))
    assert got == A.basis_element(0)
    assert m.act(A.basis_element(0), B.basis_element(1)).is_zero()


def test_oracle_identity_extension_lifts():
    KZ = kfin_Z().algebra
    ext = identity_extension(KZ, window=3)
    x = iota(KZ, KZ.element({-1: QQ.one, 2: QQ.coerce(3)}))
    assert multiplier_eq(ext.lift(x), x, (-1, 0, 2)).ok


@settings(max_examples=20, deadline=None)
@given(strat.integers(min_value=0, max_value=10_000))
def test_random_extensions_validate_and_lift(seed):
    ext = random_extension(seed)
    assert all(v.ok for v in ext.validate())
    B = ext.source
    probe_ids = ext.target_ids
    for i in ext.source_ids[:2]:
        lifted = ext.lift(iota(B, B.basis_element(i)))
        assert multiplier_eq(lifted, ext.basis_multiplier(i), probe_ids).ok
    assert multiplier_eq(ext.lift(one(B)), one(ext.target), probe_ids).ok


def test_extension_multiplicativity_failure_names_pair_and_probe():
    # Delta with Delta(d0) doubled: f(d0 d0) = 2 Delta(d0), f(d0)^2 = 4 Delta(d0)
    kz = kfin_Z().bialgebra
    delta = kz.delta

    def rule(k):
        return delta.basis_multiplier(k).scale(2) if k == 0 else delta.basis_multiplier(k)

    ext = Extension(kz.algebra, delta.target, rule, name="Delta'",
                    source_window=2, target_window=2)
    v = ext.validate()[0]
    assert (v.axiom, v.status) == ("extension multiplicativity", "failed")
    assert v.window == "5 ids of K(Z) -> 25 ids of K(Z)(x)K(Z)"
    assert v.witness == (kz.algebra.basis_element(0), kz.algebra.basis_element(0))
    assert v.detail == "f(ei*ej) != f(ei)f(ej) at probe 1*(d-2,d2)"


# --- the unital certificate f(1) = 1 and its fallback ----------------------

GOLDEN = Path(__file__).parent / "golden"


def spec_extensions(spec):
    entry = build_bundle(parse_spec((GOLDEN / spec).read_text()))
    return {"Delta": entry.bialgebra.delta, "rho": entry.coaction}


EXTENSIONS = {
    **{f"kfun_cyclic({n})": (lambda n=n: kfun_cyclic(n).bialgebra.delta) for n in (2, 3, 5)},
    "nand_delta": lambda: nand_delta_bundle().delta,
    **{f"{spec[:-5]}/{which}": (lambda spec=spec, which=which: spec_extensions(spec)[which])
       for spec, which in [("monoid01.spec", "Delta"), ("left_zero2.spec", "Delta"),
                           ("rescaled_z4_f7.spec", "Delta"),
                           ("rescaled_z4_f7_trivial_coaction.spec", "rho"),
                           ("rescaled_z4_f7_d0_coaction.spec", "rho")]},
    **{f"random_coproduct_bundle({s}, unital={u})":
       (lambda s=s, u=u: random_coproduct_bundle(s, unital=u).delta)
       for s in range(5) for u in (False, True)},
    **{f"random_extension({s})": (lambda s=s: random_extension(s)) for s in range(6)},
}

# f(1) = 1 fails only where rho(1) = 1 (x) e0 (the d0 coaction) or Delta(1)
# is a seeded element of A (x) A, not 1 (x) 1 (random_coproduct_bundle
# without ``unital``).  A random algebra declares no unit, but its unit is
# solved, so the identity on one (random_extension(2)) certifies.
UNCERTIFIED = {"rescaled_z4_f7_d0_coaction/rho",
               *(f"random_coproduct_bundle({s}, unital=False)" for s in range(5))}


def test_the_certificate_applies_exactly_where_f_of_one_is_one():
    assert {name for name, make in EXTENSIONS.items()
            if not make()._maps_unit_to_unit()} == UNCERTIFIED


@pytest.mark.parametrize("name", EXTENSIONS)
def test_the_certificate_agrees_with_the_scans(name, monkeypatch):
    # status, witness and detail of every verdict, with and without it
    with_it = [str(v) for v in EXTENSIONS[name]().validate()]
    monkeypatch.setattr(Extension, "_maps_unit_to_unit", lambda self: False)
    assert [str(v) for v in EXTENSIONS[name]().validate()] == with_it


def test_a_coaction_with_rho_of_one_not_one_takes_the_scans():
    # rho(1) = 1 (x) e0 is not 1, so the kernel scan names the annihilated id
    rho = spec_extensions("rescaled_z4_f7_d0_coaction.spec")["rho"]
    assert not rho._maps_unit_to_unit()
    idem, nondeg = rho.validate()[1:]
    assert [(v.status, str(v.witness[0]), v.detail) for v in (idem, nondeg)] == [
        ("failed", "1*(e0,e1)", "no B.A decomposition"),
        ("failed", "1*(e0,e1)", "killed by every f(b) on the right")]


@pytest.mark.parametrize("certificate", [True, False])
def test_classify_of_a_unital_spec_validates_with_no_span_or_kernel(
        certificate, capsys, monkeypatch):
    counts, inside = Counter(), []
    real_validate, real_span, real_annihilated = (
        Extension.validate, extension.PairSpan, extension.annihilated)

    def validate(self):
        inside.append(self)
        try:
            return real_validate(self)
        finally:
            inside.pop()

    def counted(name, real):
        def call(*args):
            if inside:
                counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(Extension, "validate", validate)
    monkeypatch.setattr(extension, "PairSpan", counted("PairSpan", real_span))
    monkeypatch.setattr(extension, "annihilated", counted("annihilated", real_annihilated))
    if not certificate:
        monkeypatch.setattr(Extension, "_maps_unit_to_unit", lambda self: False)
    assert main(["classify", str(GOLDEN / "rescaled_z6.spec")]) == 0
    capsys.readouterr()
    # Delta's validate is the only one: both spans and both side scans without
    assert counts == ({} if certificate else {"PairSpan": 2, "annihilated": 2})
