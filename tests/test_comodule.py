"""Coactions B -> M(B (x) A): coassociativity both ways, counits, module algebras."""

import random

import pytest

from mulhopf import bialgebra, comodule, multiplier
from mulhopf.algebra import (Element, InputError, WindowInsufficiency, regular_module,
                             scalar_algebra, tensor_algebra)
from mulhopf.bialgebra import Slicer, check_coassociative, check_fons
from mulhopf.comodule import (check_comodule_coassoc, check_comodule_coassoc_element,
                              check_comodule_coassoc_framed,
                              check_comodule_counit, check_module_algebra)
from mulhopf.extension import Extension, identity_extension
from mulhopf.fields import GF, QQ
from mulhopf.gallery import build_entry, gallery_names, kfin_Z, kfun_cyclic
from mulhopf.multiplier import Multiplier, basis_image, iota, one

from fixtures import (adjoint_module, ks3_bundle, random_algebra, self_comodule,
                      trivial_module_algebra)
from test_unital import CASES as UNITAL_CASES, spec_entry


def sweeps_only(monkeypatch):
    """Switch the certified element identity off: every coassociativity
    check decides by its triple, pair and probe sweeps again."""
    for mod in (bialgebra, comodule):
        monkeypatch.setattr(mod, "_certified_coassoc", lambda *args: False)


def shifted_coaction(bundle, offset=1):
    """rho(delta_n) = Delta(delta_{n+offset}): multiplicative but skewed."""
    delta = bundle.delta
    return Extension(bundle.algebra, delta.target,
                     lambda n: delta.basis_multiplier(n + offset),
                     name="rho-shift")


def test_self_comodule_passes_everything_finite():
    for n in (2, 3):
        b = kfun_cyclic(n).bialgebra
        gamma, dsl = self_comodule(b)
        for v in (check_comodule_coassoc(gamma, dsl), check_comodule_counit(gamma, b.epsilon)):
            assert v.status == "proven", v
        # the framed variant caps its probe scan; lift the cap so the
        # full enumeration earns a proven status
        v = check_comodule_coassoc_framed(gamma, dsl, max_probes=n ** 3)
        assert v.status == "proven", v
        v = check_comodule_coassoc_element(gamma, dsl)
        assert v.status == "proven", v


def on_window(bundle, window):
    """A over itself with rho = Delta, checked on ``window``: (gamma, dsl)."""
    sl = bundle.slicer(window)
    return sl, sl


def test_self_comodule_on_kz_window():
    b = kfin_Z().bialgebra
    gamma, dsl = on_window(b, 2)
    for v in (check_comodule_coassoc(gamma, dsl), check_comodule_coassoc_framed(gamma, dsl),
              check_comodule_counit(gamma, b.epsilon)):
        assert v.status == "holds_on_window", v


def test_both_coassociativity_paths_agree():
    # when the framed slices are honest elements, the multiplier-level
    # and element-level statements are the same check
    finite = self_comodule(kfun_cyclic(3).bialgebra)
    oracle = on_window(kfin_Z().bialgebra, 2)
    for gamma, dsl in (finite, oracle):
        a = check_comodule_coassoc(gamma, dsl)
        b = check_comodule_coassoc_element(gamma, dsl)
        assert a.ok and b.ok


def test_the_finite_passes_hold_on_the_sweeps_too(monkeypatch):
    # the two tests above take the element identity on their finite inputs
    sweeps_only(monkeypatch)
    test_self_comodule_passes_everything_finite()
    test_both_coassociativity_paths_agree()


def test_shifted_coaction_fails_coassociativity():
    kz = kfin_Z()
    gamma, dsl = Slicer(shifted_coaction(kz.bialgebra), window=2), kz.bialgebra.slicer(2)
    v = check_comodule_coassoc(gamma, dsl)
    assert v.status == "failed"
    assert v.witness is not None
    assert check_comodule_coassoc_element(gamma, dsl).status == "failed"
    assert check_comodule_coassoc_framed(gamma, dsl).status == "failed"


def doubled_coaction(bundle, sides):
    """rho(d_k) = Delta(d_k), except that rho(d0) doubles Delta(d0)'s ``sides``
    ("lam", "rho" or both): not coassociative."""
    delta = bundle.delta

    def rule(k):
        m = delta.basis_multiplier(k)
        if k != 0:
            return m
        lam, rho = (lambda bid, side=side, k=2 if rule in sides else 1:
                    Element(m.alg, basis_image(m, side, bid)).scale(k)
                    for side, rule in (("left", "lam"), ("right", "rho")))
        return Multiplier(m.alg, lam, rho)

    return Extension(bundle.algebra, delta.target, rule, name="rho")


@pytest.mark.parametrize("sides, named", [(("lam", "rho"), "left"), (("rho",), "right")])
def test_a_non_coassociative_coaction_pins_both_multiplier_witnesses(sides, named):
    kz = kfin_Z()
    A = kz.algebra
    gamma, dsl = Slicer(doubled_coaction(kz.bialgebra, sides), window=2), kz.bialgebra.slicer(2)
    d = A.basis_element(-2)
    probe = tensor_algebra(gamma.txt, A).basis_element(((-2, 2), -2))  # (B(x)A)(x)A
    v = check_comodule_coassoc(gamma, dsl)
    assert (v.status, v.window) == ("failed", "5 ids of K(Z) / 5 ids of K(Z), 125 probes")
    assert v.witness == (d, d, probe)
    assert v.detail == f"sides differ as {named} multipliers"
    v = check_comodule_coassoc_framed(gamma, dsl)
    assert (v.status, v.window) == ("failed", "5^2 x 5 framed triples, 24 probes")
    assert v.witness == (d, d, d, probe)
    assert v.detail == "framed sides differ on probe"


# -- the certified element identity against the sweeps it stands in for ------


def regular(delta):
    """A over itself with rho = Delta: (gamma, dsl) share one Slicer."""
    sl = Slicer(delta)
    return sl, sl


def random_unital_coproduct(seed):
    """Delta(e_k) = iota(t_k), t_k seeded in A (x) A, on a unital random A over
    F_7: certified, and coassociative only by accident."""
    A = random_algebra(seed, field=GF(7))  # its unit is solved
    AA = tensor_algebra(A, A)
    rng, ids = random.Random(seed), A.basis.ids
    t = {k: AA.element({(i, j): rng.randint(-1, 1) for i in ids for j in ids})
         for k in ids}
    return Extension(A, AA, lambda k: iota(AA, t[k]), name=f"Delta[{seed}]")


def spec_comodule(name):
    """(gamma, dsl) of a finite golden spec, as check-comodule builds them."""
    entry = spec_entry(name)
    dsl = entry.bialgebra.slicer()
    return (dsl if entry.coaction is None else Slicer(entry.coaction)), dsl


def finite_gallery():
    """Every finite gallery entry with a comultiplication, kfun_cyclic at n <= 5."""
    for name in gallery_names():
        for params in ([(n,) for n in (1, 2, 3, 5)] if name == "kfun_cyclic" else [()]):
            entry = build_entry(name, params)
            if entry.bialgebra is not None and entry.algebra.finite:
                yield name + "".join(f"({p})" for p in params), \
                    lambda e=entry: regular(e.bialgebra.delta)


# planted failures: nand_delta is a gallery entry, and the d0 coaction a golden
def doubled_cyclic3(sides):
    b = kfun_cyclic(3).bialgebra
    return Slicer(doubled_coaction(b, sides)), b.slicer()


EQUIVALENCE = {
    **{f"gallery {name}": build for name, build in finite_gallery()},
    **{f"golden {name}": (lambda name=name: spec_comodule(name)) for name in (
        "rescaled_z4_f7.spec", "rescaled_z4_f7_trivial_coaction.spec",
        "rescaled_z4_f7_d0_coaction.spec")},
    **{f"unital {case}": (lambda case=case: regular(UNITAL_CASES[case]()))
       for case in UNITAL_CASES if not case.startswith(("trivial_coaction", "coaction"))},
    "planted doubled rho(d0), both sides": lambda: doubled_cyclic3(("lam", "rho")),
    "planted doubled rho(d0), right side": lambda: doubled_cyclic3(("rho",)),
    **{f"planted random{seed}": (lambda seed=seed: regular(random_unital_coproduct(seed)))
       for seed in range(4)},
}


def coassoc_verdicts(gamma, dsl):
    """The four checks' verdicts as text, since a witness is an element of
    the spaces of one build and each route builds its input afresh.  A
    finite input never raises: a lift along a degenerate Delta fails."""
    return [str(check(gamma, dsl)) for check in (
        lambda _g, d: check_coassociative(d), check_comodule_coassoc,
        check_comodule_coassoc_framed, check_comodule_coassoc_element)]


@pytest.mark.parametrize("case", list(EQUIVALENCE))
def test_the_certified_identity_gives_the_sweeps_verdicts(case, monkeypatch):
    gamma, dsl = EQUIVALENCE[case]()
    got = coassoc_verdicts(gamma, dsl)
    # the identity decides exactly the passing comodules; failures fall back
    taken = bialgebra._certified_coassoc(gamma, dsl, gamma.ids)
    assert taken == all(": failed [" not in v for v in got[1:]), got
    sweeps_only(monkeypatch)
    assert coassoc_verdicts(*EQUIVALENCE[case]()) == got


def test_a_finite_lift_with_no_decomposition_fails_the_law():
    # Delta of this row is not idempotent: (f0,(f1,f1)) in B (x) (A (x) A)
    # has no A.B decomposition along id (x) Delta, and a finite window
    # cannot grow, so the multiplier form fails with it as witness
    gamma, dsl = EQUIVALENCE["planted random2"]()
    v = check_comodule_coassoc(gamma, dsl)
    assert (v.status, v.detail) == ("failed", "lift undefined: no A.B decomposition")
    assert [str(w) for w in v.witness] == ["1*f0", "1*f0", "1*(f0,(f1,f1))"]


def test_an_oracle_lift_with_no_decomposition_asks_for_a_larger_window():
    A = kfin_Z().algebra
    lifted = identity_extension(A, window=1).lift(iota(A, A.basis_element(0)))
    with pytest.raises(WindowInsufficiency, match="has no B.A decomposition"):
        basis_image(lifted, "left", 5)



def test_the_lifts_search_at_the_slicers_expansion():
    # as check-comodule gallery:kfin_Z --window 2 --expansion 1 exits 2: the
    # lifts along id (x) Delta search at expansion 1, not at Delta's own 2
    kz = kfin_Z().bialgebra
    with pytest.raises(WindowInsufficiency, match="decomposition"):
        check_comodule_coassoc(kz.slicer(2, 1), kz.slicer(2, 1))

def test_a_certified_finite_comodule_sweeps_no_probe_and_slices_nothing(monkeypatch):
    b = kfun_cyclic(5).bialgebra
    gamma, dsl = self_comodule(b)
    # each Delta(e_i) is built as iota(c_i), which records c_i
    assert all(multiplier.iota_element(b.delta.basis_multiplier(i)) for i in gamma.ids)
    images, real_image = [], multiplier.basis_image

    def basis_image(*args):
        images.append(args)
        return real_image(*args)

    for mod in (multiplier, comodule):
        monkeypatch.setattr(mod, "basis_image", basis_image)
    assert check_comodule_coassoc(gamma, dsl).status == "proven"
    assert check_comodule_coassoc_framed(gamma, dsl).status == "holds_on_window"
    assert images == []
    sl = Slicer(b.delta)
    assert check_fons(sl).ok
    slices, real_slice = [], Slicer.slice

    def slice_(self, *args, **kwargs):
        slices.append(args)
        return real_slice(self, *args, **kwargs)

    monkeypatch.setattr(Slicer, "slice", slice_)
    assert check_coassociative(sl).status == "proven"
    assert slices == []


def test_shifted_coaction_fails_counit_with_witness():
    kz = kfin_Z()
    v = check_comodule_counit(Slicer(shifted_coaction(kz.bialgebra), window=2),
                              kz.bialgebra.epsilon)
    assert v.status == "failed"
    # deterministic scan order: first bad pair is (delta_-2, delta_0)
    assert v.witness == (kz.algebra.basis_element(-2),
                         kz.algebra.basis_element(0))


def test_unit_comodule_over_the_base_field():
    b = kfun_cyclic(2).bialgebra
    K = scalar_algebra(QQ)
    T = tensor_algebra(K, b.algebra)
    rho = Extension(K, T, lambda bid: one(T), name="unit-coaction")
    gamma = Slicer(rho)
    assert check_comodule_coassoc(gamma, b.slicer()).ok
    assert check_comodule_counit(gamma, b.epsilon).ok


def test_comodule_requires_matching_tensor_factors():
    # each check takes a coaction B --> M(B (x) A).  Delta of K(Z/2) lands
    # in M(A (x) A), not over A' = K(Z/3); a map from A into M(k (x) A)
    # has the wrong left leg.  Without a counit, A is not stated, so only
    # the left leg is checked.
    b, other = kfun_cyclic(2).bialgebra, kfun_cyclic(3).bialgebra
    KA = tensor_algebra(scalar_algebra(QQ), b.algebra)
    wrong_left = Slicer(Extension(b.algebra, KA, lambda bid: one(KA), name="rho-off"))
    wrong_right = Slicer(b.delta)
    checks = [
        (lambda gamma, a: check_comodule_coassoc(gamma, a.slicer()), True),
        (lambda gamma, a: check_comodule_coassoc_framed(gamma, a.slicer()), True),
        (lambda gamma, a: check_comodule_coassoc_element(gamma, a.slicer()), True),
        (lambda gamma, a: check_comodule_counit(gamma, a.epsilon), True),
        (lambda gamma, a: check_comodule_counit(gamma, None), False),
    ]
    for check, states_a in checks:
        cases = [(wrong_left, b)] + ([(wrong_right, other)] if states_a else [])
        for gamma, over in cases:
            with pytest.raises(InputError, match=r"coaction must land in M\(B \(x\) A\)"):
                check(gamma, over)


def test_trivial_module_algebra_passes():
    b = kfun_cyclic(3).bialgebra
    tm = trivial_module_algebra(b)
    assert check_module_algebra(tm, b.slicer()).status == "proven"


def test_trivial_module_algebra_on_oracle_window():
    kz = kfin_Z().bialgebra
    tm = trivial_module_algebra(kz)
    v = check_module_algebra(tm, kz.slicer(2))
    assert v.status == "holds_on_window"


def test_regular_action_is_not_a_module_algebra_here():
    # the multiplication of K(Z/n) is not linear over the addition-dual
    # coproduct when A acts by right multiplication: (d1 d1) <| d2 picks
    # up the (1,1) slice of Delta(d2) while (d1*d1) <| d2 is zero
    b = kfun_cyclic(3).bialgebra
    v = check_module_algebra(regular_module(b.algebra), b.slicer())
    assert v.status == "failed"
    assert v.witness is not None


@pytest.mark.parametrize("side", ["left", "right"])
def test_module_algebras_over_ks3_on_either_side(side):
    # conjugation is a module algebra on kS3, multiplication is not: a . (b b')
    # and (a . b)(a . b') differ once a is not central (a = p021, b = b' = 1)
    b = ks3_bundle()
    v = check_module_algebra(adjoint_module(b.algebra, side), b.slicer())
    assert v.status == "proven"
    v = check_module_algebra(regular_module(b.algebra, side), b.slicer())
    formula = ("mu(Delta(a)|>(b(x)b')) = 1*p012, a|>(bb') = 1*p021" if side == "left" else
               "mu((b(x)b')<|Delta(a)) = 1*p012, (bb')<|a = 1*p021")
    assert (v.status, [str(w) for w in v.witness], v.detail) == (
        "failed", ["1*p012", "1*p012", "1*p021"], formula)
