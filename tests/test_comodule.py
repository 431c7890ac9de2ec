"""Coactions B -> M(B (x) A): coassociativity both ways, counits, module algebras."""

import pytest

from mulhopf.algebra import (InputError, regular_module, scalar_algebra,
                             tensor_algebra)
from mulhopf.bialgebra import Slicer
from mulhopf.comodule import (check_comodule_coassoc, check_comodule_coassoc_element,
                              check_comodule_coassoc_framed,
                              check_comodule_counit, check_module_algebra)
from mulhopf.extension import Extension
from mulhopf.fields import QQ
from mulhopf.gallery import kfin_Z, kfun_cyclic
from mulhopf.multiplier import Multiplier, one

from fixtures import self_comodule, trivial_module_algebra


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
        lam = (lambda bid: m.lam_basis(bid).scale(2)) if "lam" in sides else m.lam_basis
        rho = (lambda bid: m.rho_basis(bid).scale(2)) if "rho" in sides else m.rho_basis
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
