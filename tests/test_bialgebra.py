"""Coproducts as extensions into M(A(x)A): slices, coassociativity, counits."""

import inspect
from collections import Counter

import pytest

from mulhopf import bialgebra, comodule, hopf, multiplier
from mulhopf.algebra import (Element, InputError, InvariantViolation, ModuleStructure,
                             WindowInsufficiency,
                             regular_module, check_module, finite_algebra, tensor_algebra,
                             tensor_elem)
from mulhopf.bialgebra import (Counit, MultiplierBialgebra, SliceUndefined, Slicer,
                               check_coassociative, check_counit, check_fons,
                               check_monoidal_instance, epsilon_module,
                               synthesize_counit, tensor_module_action)
from mulhopf.cli import main
from mulhopf.comodule import check_comodule_coassoc_element, check_module_algebra
from mulhopf.extension import Extension, identity_extension, restrict_module
from mulhopf.fields import QQ
from mulhopf.gallery import kfin_N, kfin_Z, kfun_cyclic, nand_delta_bundle
from mulhopf.hopf import check_bijective, check_hopf
from mulhopf.linalg import vec_axpy
from mulhopf.multiplier import Multiplier, basis_image, iota, iota_element, iota_preimage

from fixtures import ks3_bundle, ks3_spec, random_coproduct_bundle


def right_projection_delta(n=3):
    """Delta(d_k) = 1 (x) d_k on K(Z/n), the coproduct dual to (x, y) -> y.

    Coassociative, but the counit equations only pin the sum of the
    eps values, so synthesis must report the window as insufficient.
    """
    A = kfun_cyclic(n).algebra
    AA = tensor_algebra(A, A)
    unit = A.element({i: QQ.one for i in range(n)})

    def rule(k):
        return iota(AA, tensor_elem(unit, A.basis_element(k), into=AA))

    return Extension(A, AA, rule, name="proj2")


# --- slices ---------------------------------------------------------------


def test_slices_of_cyclic_function_algebra_follow_the_group_law():
    # Delta dual to addition on Z/3: Delta(d_k) = sum_{i+j=k} d_i (x) d_j,
    # so the framed slices are single terms read off by subtraction
    n = 3
    b = kfun_cyclic(n)
    sl = b.bialgebra.slicer()
    for a in range(n):
        for c in range(n):
            assert sl.slice("right", a, c).coeffs == {((a - c) % n, c): QQ.one}
            assert sl.slice("left", a, c).coeffs == {(a, (c - a) % n): QQ.one}


def test_slices_on_kz_window():
    sl = Slicer(kfin_Z().bialgebra.delta, window=4)
    assert sl.slice("right", 3, 1).coeffs == {(2, 1): QQ.one}
    assert sl.slice("left", -1, 2).coeffs == {(-1, 3): QQ.one}
    # arguments beyond the base window are re-sliced on a doubled one
    assert sl.slice("right", 6, 1).coeffs == {(5, 1): QQ.one}


def test_slice_beyond_every_retry_raises():
    sl = Slicer(kfin_Z().bialgebra.delta, window=4)
    with pytest.raises(WindowInsufficiency):
        sl.slice("right", 10 ** 9, 0)


def test_sweedler_slice_is_bilinear():
    b = kfun_cyclic(3)
    A = b.algebra
    sl = Slicer(b.bialgebra.delta)
    x = A.basis_element(0) + A.basis_element(1)
    y = A.basis_element(2).scale(QQ.coerce(3))
    for side in ("right", "left"):
        got = sl.slice_elem(side, x, y)
        want = (sl.slice_elem(side, A.basis_element(0), y)
                + sl.slice_elem(side, A.basis_element(1), y))
        assert got == want
        assert got == sl.slice_elem(side, x, A.basis_element(2)).scale(QQ.coerce(3))
        assert not got.is_zero()


def parity_split_delta(kz):
    """A "coproduct" on K(Z) whose left and right contractions never agree."""
    KZ = kz.algebra
    AA = tensor_algebra(KZ, KZ)

    def keep(parity, n):
        def act(pair):
            u, v = pair
            if u % 2 != parity:
                return AA.zero()
            w = KZ.basis_element(n) * KZ.basis_element(v)
            return tensor_elem(KZ.basis_element(u), w, into=AA)

        return act

    return Extension(KZ, AA,
                     lambda n: Multiplier(AA, keep(0, n), keep(1, n)),
                     name="bad")


def test_undefined_slice_is_detected():
    # left and right contractions of this "coproduct" never agree, so
    # the slicer must refuse to call the framed product an element
    sl = Slicer(parity_split_delta(kfin_Z()), window=2)
    with pytest.raises(SliceUndefined):
        sl.slice("right", 0, 0)


def test_undefined_slices_read_failed_with_the_pair_as_witness():
    kz = kfin_Z()
    bad = parity_split_delta(kz)
    pair = (kz.algebra.basis_element(-2), kz.algebra.basis_element(-2))
    assert check_fons(Slicer(bad, window=2)).witness == pair
    for v in (check_coassociative(Slicer(bad, window=2)),
              check_counit(Slicer(bad, window=2), kz.bialgebra.epsilon)):
        assert v.status == "failed", v
        assert v.witness == pair, v


# --- the coproduct axioms -------------------------------------------------


def test_fons_and_coassociativity_finite():
    b = kfun_cyclic(4).bialgebra
    assert check_fons(Slicer(b.delta)).ok
    v = check_coassociative(Slicer(b.delta))
    assert v.status == "proven"


def test_fons_and_coassociativity_oracle():
    b = kfin_Z().bialgebra
    sl = b.slicer()
    assert check_fons(Slicer(b.delta, window=4)).ok
    v = check_coassociative(sl)
    assert v.status == "holds_on_window"


def test_strict_fons_rechecks_a_planted_slice_against_the_probes(monkeypatch):
    b = kfin_Z().bialgebra
    sl = b.slicer(4)
    good = sl.slice("right", 1, 2)
    sl._cache[("right", 1, 2)] = good.scale(2)  # wrong, as if truncated
    assert sl.slice("right", 1, 2) == good.scale(2)  # unverified requests trust the cache
    assert check_fons(sl).ok
    assert sl.slice("right", 1, 2) == good  # recomputed on the verified path
    assert b.slicer(4) is sl
    probes = []
    monkeypatch.setattr(bialgebra, "agrees_on_probes",
                        lambda *args: probes.append(args) or True)
    assert check_fons(sl).ok
    assert probes == []  # each cached slice is checked once


def test_strict_fons_fails_when_the_verified_path_finds_no_slice():
    b = kfin_Z().bialgebra
    sl = b.slicer(4)
    sl._cache[("right", 1, 2)] = sl.slice("right", 1, 2).scale(2)
    real = sl._preimage
    sl._preimage = lambda z, base=None, probe_ids=None: (  # no verified slice
        None if probe_ids is not None else real(z, base))
    v = check_fons(sl)
    assert v.status == "failed"
    assert "side=right, a=1, b=2" in v.detail


def test_an_oracle_slicer_rejects_an_id_tuple_window():
    # an id tuple cannot be scaled by the expansion, so slices would truncate
    with pytest.raises(InputError, match="integer window"):
        check_fons(Slicer(kfin_Z().bialgebra.delta, window=(0, 1, 2)))
    assert check_fons(Slicer(kfun_cyclic(3).bialgebra.delta, window=(0, 1))).ok


def test_a_slicer_is_freed_without_the_cycle_collector():
    import gc
    import weakref
    sl = Slicer(kfin_Z().bialgebra.delta, window=2)
    sl.slice("right", 0, 1)
    sl.slice("left", 1, 0)
    ref = weakref.ref(sl)
    gc.disable()
    try:
        del sl  # its frames must not refer back to it
        assert ref() is None
    finally:
        gc.enable()


def test_memoised_slice_contraction_matches_the_direct_one():
    # iota_preimage contracts each slice factor by factor, a Psi frame through
    # its own factors, and memoises the inner factor per (side, window); at
    # the slicer's window and at its doubling retry's, every slice key of a
    # run must read as the direct contraction of the whole product, with the
    # same key order
    for build in (kfin_Z, kfin_N):
        bundle = build(window=3).bialgebra
        sl = bundle.slicer(3)
        check_fons(sl)
        check_hopf(sl)  # T1/T2 columns reach the scaled domain
        txt = sl.txt
        keys = list(sl._cache)
        assert {side for side, _, _ in keys} == {"right", "left"}
        assert len(keys) > 2 * len(sl.ids) ** 2
        for key in keys:
            z, base = sl._framed(*key)
            for w in (2 * base * sl.expansion, base * sl.expansion):
                e = txt.local_unit(txt.window_ids(w))
                left, right = z.apply("left", e), z.apply("right", e)
                got = iota_preimage(txt, z, window=w)
                if left == right:
                    assert got == left, (build, key, w)
                    assert list(got.coeffs) == list(left.coeffs), (build, key, w)
                else:
                    assert got is None, (build, key, w)


def test_a_frame_is_contracted_through_its_factors(monkeypatch):
    # Psi(1 (x) e_b) |> (e_L (x) e_R) = e_L (x) (e_b e_R): at the doubling
    # window, a right frame's left action and a left frame's right action
    # (what a direct contraction of the frame would read) are never evaluated
    bundle = kfin_Z(window=3).bialgebra
    sl = bundle.slicer(3)
    frames, calls = {}, []
    for owner, name in ((multiplier, "basis_image"), (Multiplier, "apply")):
        real = getattr(owner, name)

        def counted(z, side, a, real=real):
            if frames.get(id(z), side) != side:
                calls.append((side, a))
            return real(z, side, a)

        monkeypatch.setattr(owner, name, counted)
    for a in sl.ids:
        for b in sl.ids:
            for side, key, frame_id in (("right", (a, b), b), ("left", (b, a), b)):
                z, base = sl._framed(side, *key)
                frames[id(sl._frame(side, frame_id))] = side
                assert iota_preimage(sl.txt, z, window=2 * base * sl.expansion) is not None
    assert len(frames) == 2 * len(sl.ids) and calls == []


def test_right_projection_delta_is_coassociative():
    assert check_coassociative(Slicer(right_projection_delta())).ok


def test_nand_delta_fails_coassociativity_with_witness():
    b = nand_delta_bundle()
    v = check_coassociative(Slicer(b.delta))
    assert v.status == "failed"
    A = b.algebra
    assert v.witness == (A.basis_element(0), A.basis_element(0),
                         A.basis_element(1))


def test_kz_slices_at_expansion_one_read_no_false_failure():
    # the slice Delta(d-2)(1(x)d1) = d-3(x)d1 lies outside window 2 x 1: its
    # contraction reads 0, so it takes the doubled retry
    sl = kfin_Z(window=2).bialgebra.slicer(2, 1)
    assert [v.status for v in (check_fons(sl), check_coassociative(sl))] == [
        "holds_on_window", "holds_on_window"]



def test_a_slicer_binds_delta_to_its_window_and_expansion_with_no_rule_evaluated_twice():
    b = kfin_Z().bialgebra  # Delta built on window 4 at expansion 2
    bound = b.slicer(6).delta
    assert (bound.source_window, bound.target_window, bound.expansion) == (6, 6, 2)
    assert bound.basis_multiplier(0) is b.delta.basis_multiplier(0)
    assert b.slicer(4, 2).delta is b.delta


def test_an_id_tuple_window_binds_delta_to_its_pairs():
    # the tuple names ids of A; Delta's target window is their pairs in A (x) A
    b = kfun_cyclic(3).bialgebra
    bound = b.slicer((0, 1)).delta
    assert bound.target_ids == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert bound.window_label() == "2 ids of basis(3) -> 4 ids of basis(9)"
    # only Delta(d2) reaches d1 (x) d1: the window is short, not Delta
    with pytest.raises(WindowInsufficiency, match=r"1\*\(d1,d1\) .* no B\.A decomposition "
                       r"over 2 ids of basis\(3\) -> 4 ids of basis\(9\); enlarge"):
        bound.validate()
    assert bound.at((0, 1), 2) is bound


def test_a_finite_window_short_of_its_basis_is_insufficient_not_failed():
    # an id tuple of a finite algebra can grow: a miss that a larger window
    # may mend raises, as on an oracle window
    sl = kfun_cyclic(3).bialgebra.slicer((0, 1))
    for which in ("T1", "T2"):  # injective on the window; d1 (x) d1 is hit only via d2
        with pytest.raises(WindowInsufficiency, match=rf"{which} surjectivity: \(d1,d1\) is "
                           "not hit over the window's own pairs; enlarge the window"):
            check_bijective(sl, which)
    # in M_2, E12 e_b = 0 for b in (E11, E12), but E12 E21 = E11
    ids = ["E11", "E12", "E21", "E22"]
    m2 = finite_algebra(QQ, ids, {(a, b): {f"E{a[1]}{b[2]}": 1}
                                  for a in ids for b in ids if a[2] == b[1]}, name="M2")
    with pytest.raises(WindowInsufficiency, match=r"1\*E12 is killed by every f\(b\) "
                       r"on the right over 2 ids of basis\(4\) -> 2 ids of basis\(4\)"):
        identity_extension(m2, window=("E11", "E12")).validate()
    # the full windows keep their verdicts
    assert [v.status for v in identity_extension(m2).validate()] == ["proven"] * 3
    full = kfun_cyclic(3).bialgebra.slicer()
    assert [v.status for v in full.delta.validate()] == ["proven"] * 3
    assert check_hopf(full)["hopf"].status == "proven"


def test_coassociativity_is_the_element_law_of_the_self_comodule():
    # A over itself with rho = Delta: both checks give the same verdict
    # and the same first witness
    cases = [(nand_delta_bundle(), None), (kfin_Z().bialgebra, 3)]
    cases += [(kfun_cyclic(n).bialgebra, None) for n in (2, 3, 4)]
    cases += [(random_coproduct_bundle(seed), None) for seed in range(5)]
    statuses = set()
    for b, window in cases:
        sl = Slicer(b.delta, window=window)
        v = check_coassociative(sl)
        w = check_comodule_coassoc_element(sl, sl)
        assert (v.status, v.witness) == (w.status, w.witness), (b.name, v, w)
        statuses.add(v.status)
    assert statuses == {"proven", "holds_on_window", "failed"}


# --- counits --------------------------------------------------------------


def test_counit_synthesis_on_cyclic(capsys):
    for n in (2, 3, 5):
        b = kfun_cyclic(n)
        syn = synthesize_counit(Slicer(b.bialgebra.delta))
        assert syn is not None
        assert syn.table == {k: (QQ.one if k == 0 else QQ.zero) for k in range(n)}
        assert syn.witness(range(n)) == b.algebra.basis_element(0)
        assert main(["synthesize-counit", f"gallery:kfun_cyclic({n})"]) == 0
        assert f"(solved on {n} ids)" in capsys.readouterr().out
        assert check_counit(Slicer(b.bialgebra.delta), syn).status == "proven"


def test_counit_synthesis_on_kz_pins_scaled_window():
    b = kfin_Z()
    syn = synthesize_counit(Slicer(b.bialgebra.delta, window=3))
    assert syn is not None
    # slices reach ids out to twice the window, and every one is pinned
    assert set(syn.table) == set(range(-6, 7))
    assert all(v == (QQ.one if n == 0 else QQ.zero)
               for n, v in syn.table.items())


def test_counit_synthesis_inconsistent_returns_none():
    assert synthesize_counit(Slicer(nand_delta_bundle().delta)) is None


def test_right_projection_delta_has_no_counit():
    # diagonal right slices want the eps values to sum to one, but the
    # left slices force each of them to zero: no counit exists
    assert synthesize_counit(Slicer(right_projection_delta())) is None


def test_wrong_counit_table_fails_with_witness():
    b = kfun_cyclic(3)
    eps_all_one = Counit(b.algebra, {k: QQ.one for k in range(3)})
    v = check_counit(Slicer(b.bialgebra.delta), eps_all_one)
    assert v.status == "failed"
    assert v.witness == (b.algebra.basis_element(0), b.algebra.basis_element(1))


def test_counit_extension_raises_outside_its_table():
    b = kfun_cyclic(2)
    eps = Counit(b.algebra, {0: QQ.one})
    with pytest.raises(WindowInsufficiency):
        eps(b.algebra.basis_element(1))


def test_eps_value_is_linear():
    b = kfun_cyclic(3).bialgebra
    A = b.algebra
    x = A.basis_element(0).scale(QQ.coerce(5)) + A.basis_element(1)
    assert b.epsilon(x) == QQ.coerce(5)


def test_counit_witness_is_the_first_id_off_its_kernel_scaled_to_eps_one():
    A = kfun_cyclic(3).algebra
    eps = Counit(A, {0: QQ.zero, 1: QQ.coerce(4), 2: QQ.one})
    g = eps.witness(range(3))
    assert g == A.basis_element(1).scale(QQ.inv(QQ.coerce(4)))
    assert eps(g) == QQ.one
    assert eps.witness([2, 1]) == A.basis_element(2)
    assert eps.witness([0]) is None
    assert Counit(A, lambda _bid: QQ.zero).witness(range(3)) is None


def test_synthesize_counit_returns_the_counit_of_its_solved_table():
    b = kfin_Z().bialgebra
    syn = synthesize_counit(Slicer(b.delta, window=2))
    assert isinstance(syn, Counit) and syn.alg is b.algebra
    assert syn.table == {n: (QQ.one if n == 0 else QQ.zero) for n in range(-4, 5)}
    assert [syn.value(n) for n in (-1, 0, 1)] == [QQ.zero, QQ.one, QQ.zero]
    with pytest.raises(WindowInsufficiency):
        syn.value(5)


@pytest.mark.parametrize("side", ["left", "right"])
def test_epsilon_module_is_a_module(side):
    b = kfun_cyclic(3).bialgebra
    m = epsilon_module(b.epsilon, side)
    assert m.side == side
    assert all(v.ok for v in check_module(m).values())


# --- the monoidal structure on modules ------------------------------------


def test_monoidal_instances_for_regular_and_tensor_square():
    b = kfun_cyclic(2).bialgebra
    reg = regular_module(b.algebra)
    sq = tensor_module_action(b.slicer(), reg, reg)
    verdicts = check_monoidal_instance(b.slicer(), b.epsilon, [reg, sq])
    assert [v.axiom for v in verdicts] == [
        "monoidal associator", "monoidal right unit", "monoidal left unit",
        "tensor extension instance"]
    assert all(v.status == "proven" for v in verdicts)


def test_scaled_counit_breaks_the_unit_constraints():
    b = kfun_cyclic(2).bialgebra
    reg = regular_module(b.algebra)
    doubled = Counit(b.algebra, {0: QQ.coerce(2), 1: QQ.zero})
    verdicts = check_monoidal_instance(b.slicer(), doubled, [reg])
    by_axiom = {v.axiom: v for v in verdicts}
    assert by_axiom["monoidal left unit"].status == "failed"
    assert by_axiom["monoidal left unit"].witness is not None
    assert by_axiom["monoidal right unit"].status == "failed"



def test_the_tensor_extension_instance_validates_on_the_slicers_window():
    b = kfin_Z().bialgebra  # Delta built on window 4
    v = check_monoidal_instance(b.slicer(1, 6), b.epsilon,
                                [regular_module(b.algebra)])[-1]
    assert (v.axiom, v.status, v.window) == (
        "tensor extension instance", "holds_on_window", "3 ids of K(Z) -> 9 ids of K(Z)(x)K(Z)")


def test_monoidal_instances_reject_an_id_tuple_window():
    # the window is resolved on M (x) (N (x) P) too, where ids of A name no ids
    b = kfun_cyclic(3).bialgebra
    with pytest.raises(InputError, match="integer window"):
        check_monoidal_instance(b.slicer((0, 1)), b.epsilon,
                                [regular_module(b.algebra)])

def test_a_programming_error_in_the_monoidal_check_is_not_a_verdict(monkeypatch):
    # only a rejected certificate (InvariantViolation) is a failed verdict
    b = kfun_cyclic(2).bialgebra

    def broken(*args, **kwargs):
        raise TypeError("broken extension certificate")

    monkeypatch.setattr(Extension, "validate", broken)
    with pytest.raises(TypeError, match="broken extension certificate"):
        check_monoidal_instance(b.slicer(), b.epsilon,
                                [regular_module(b.algebra)])


# --- kS3: a non-commutative Hopf input, and both module categories ---------


def test_ks3_classifies_as_a_finite_multiplier_hopf_algebra(tmp_path, capsys):
    path = tmp_path / "ks3.spec"
    path.write_text(ks3_spec())
    assert main(["classify", str(path)]) == 0
    assert "classification: multiplier Hopf algebra (proven; finite)\n" in capsys.readouterr().out


def swapped_product(self, side, a_id, b_id):
    """``Slicer._product`` with the framed leg multiplied on the wrong side."""
    c = iota_element(self.delta.basis_multiplier(a_id if side == "right" else b_id))
    if c is None:
        return None
    f, acc, right = self.txt.field, {}, side == "right"
    for (x, y), v in c.coeffs.items():
        hit = self.rfac.basis_product(b_id, y) if right else self.lfac.basis_product(x, a_id)
        vec_axpy(f, acc, {((x, k) if right else (k, y)): w for k, w in hit.items()}, v)
    return Element(self.txt, acc)


def test_ks3_catches_the_framed_leg_multiplied_on_the_wrong_side(tmp_path, capsys, monkeypatch):
    # on a commutative A both orders agree, so only a non-commutative input sees it
    path = tmp_path / "ks3.spec"
    path.write_text(ks3_spec())
    monkeypatch.setattr(Slicer, "_product", swapped_product)
    assert main(["classify", str(path)]) == 1
    assert ("classification: coassociative comultiplication without counit\n"
            in capsys.readouterr().out)


def ks3_counit(sl):
    """eps of kS3 synthesized, with the k_eps module laws on both sides."""
    eps = synthesize_counit(sl)
    assert all(v.status == "proven" for side in ("left", "right")
               for v in check_module(epsilon_module(eps, side)).values())
    return eps


@pytest.mark.parametrize("side", ["left", "right"])
def test_ks3_monoidal_instances_on_either_side(side):
    b = ks3_bundle()
    sl = b.slicer()
    eps = ks3_counit(sl)
    reg = regular_module(b.algebra, side)
    verdicts = check_monoidal_instance(sl, eps, [reg])
    assert [(v.axiom, v.status) for v in verdicts] == [
        ("monoidal associator", "proven"), ("monoidal right unit", "proven"),
        ("monoidal left unit", "proven"), ("tensor extension instance", "proven")]
    sq = tensor_module_action(sl, reg, reg)
    assert sq.side == side
    assert {law: v.status for law, v in check_module(sq).items()} == dict.fromkeys(
        ("associativity", "idempotency", "nondegeneracy"), "proven")


def opposite_side_slicer(sl):
    """A Slicer whose Delta(a) acts on the left as Delta(a) acts on the right,
    and the other way round: Delta(a) applied on the modules' opposite side."""
    D = sl.delta

    def rule(a):
        d = D.basis_multiplier(a)
        return Multiplier(D.target, lambda p: basis_image(d, "right", p),
                          lambda p: basis_image(d, "left", p))

    return Slicer(Extension(D.source, D.target, rule, name="Delta-opposite"))


@pytest.mark.parametrize("side", ["left", "right"])
def test_ks3_sees_delta_applied_on_the_opposite_side(side):
    b = ks3_bundle()
    sl = b.slicer()
    eps = ks3_counit(sl)
    bad = opposite_side_slicer(sl)
    reg = regular_module(b.algebra, side)
    sq = tensor_module_action(bad, reg, reg)
    assert check_module(sq, laws=["associativity"])["associativity"].status == "failed"
    statuses = [v.status for v in check_monoidal_instance(bad, eps, [reg])[:3]]
    # both sides of the associator use the same wrong action: it cannot see it
    assert statuses == ["proven", "failed", "failed"]


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_unitors_see_a_tensor_action_applied_on_the_opposite_side(side, monkeypatch):
    # only the tensor action is wrong, so Delta's certificate still holds
    sl = ks3_bundle().slicer()
    eps, bad, real = ks3_counit(sl), opposite_side_slicer(sl), bialgebra.tensor_module_action
    monkeypatch.setattr(bialgebra, "tensor_module_action", lambda _sl, m, n: real(bad, m, n))
    verdicts = check_monoidal_instance(sl, eps, [regular_module(sl.alg, side)])
    assert [v.status for v in verdicts] == ["proven", "failed", "failed", "proven"]
    assert all(v.witness for v in verdicts[1:3])
    if side == "left":
        assert verdicts[1].detail == "1*p201 vs 1*p120"


# --- the tensor-extension instance is Delta's certificate -----------------


def weak_delta_bundle():
    """K(Z/2) with Delta(d_k) = iota(d_k (x) d_k) and eps(d_k) = 1.

    Delta is multiplicative, but d0 (x) d1 is in neither B.A nor A.B, so it
    is no extension, and d0 (x) d1 is no element of (A (x) A).A either.
    """
    A = kfun_cyclic(2).algebra
    AA = tensor_algebra(A, A)
    delta = Extension(A, AA, lambda k: iota(AA, tensor_elem(
        A.basis_element(k), A.basis_element(k), into=AA)), name="weak Delta")
    eps = Counit(A, {0: QQ.one, 1: QQ.one})
    return MultiplierBialgebra(A, delta, eps, name="kfun_cyclic(2)+weak")


def bundle_row(b, window=None, expansion=None):
    return b.slicer(window, expansion), b.epsilon, [regular_module(b.algebra)]


def ks3_row(side):
    sl = ks3_bundle().slicer()
    return sl, ks3_counit(sl), [regular_module(sl.alg, side)]


INSTANCE_ROWS = {
    "kfun_cyclic(2)": lambda: bundle_row(kfun_cyclic(2).bialgebra),
    "kfun_cyclic(3)": lambda: bundle_row(kfun_cyclic(3).bialgebra),
    "nand_delta": lambda: bundle_row(nand_delta_bundle()),
    "kS3-left": lambda: ks3_row("left"),
    "kS3-right": lambda: ks3_row("right"),
    "kfin_Z": lambda: bundle_row(kfin_Z().bialgebra, 1, 6),
    "kfin_N": lambda: bundle_row(kfin_N().bialgebra, 1, 6),
    "weak-delta": lambda: bundle_row(weak_delta_bundle()),
}


@pytest.mark.parametrize("row", INSTANCE_ROWS)
def test_the_tensor_extension_instance_reads_deltas_certificate(row):
    # (iota (x) iota) o Delta = Delta: the instance is Delta's own validate
    sl, eps, modules = INSTANCE_ROWS[row]()
    instance = check_monoidal_instance(sl, eps, modules)[-1]
    certificate = sl.delta.validate()
    failed = next((v for v in certificate if not v.ok), None)
    assert (instance.axiom, instance.window) == ("tensor extension instance",
                                                 sl.delta.window_label())
    if failed is None:
        assert {v.status for v in certificate} == {instance.status, sl.alg.baseline(sl.ids)}
        assert instance.witness is None
    else:
        assert (instance.status, instance.witness) == ("failed", failed.witness)
        assert instance.detail == f"{failed.axiom}: {failed.detail}"
    assert (failed is None) == (row != "weak-delta")


def test_the_monoidal_check_builds_no_extension_and_validates_delta_once(monkeypatch):
    # one certificate route: a second one must not grow back
    b = kfun_cyclic(2).bialgebra
    sl = b.slicer()
    built, validated = [], []
    real_init, real_validate = Extension.__init__, Extension.validate
    monkeypatch.setattr(Extension, "__init__",
                        lambda self, *a, **k: built.append(self) or real_init(self, *a, **k))
    monkeypatch.setattr(Extension, "validate",
                        lambda self: validated.append(self) or real_validate(self))
    check_monoidal_instance(sl, b.epsilon, [regular_module(b.algebra)])
    assert built == []
    assert len(validated) == 1 and validated[0] is sl.delta


def test_the_monoidal_check_solves_each_ma_form_once(monkeypatch):
    # the tensor action and the unit constraints share each module's M.A forms
    b = kfun_cyclic(6).bialgebra
    solved = Counter()
    real = ModuleStructure.decompose

    def counted(self, m, m_ids, a_ids):
        solved[(id(self), tuple(m.coeffs), tuple(m_ids), tuple(a_ids))] += 1
        return real(self, m, m_ids, a_ids)

    monkeypatch.setattr(ModuleStructure, "decompose", counted)
    verdicts = check_monoidal_instance(b.slicer(), b.epsilon,
                                       [regular_module(b.algebra)])
    assert {v.status for v in verdicts} == {"proven"}
    assert solved and max(solved.values()) == 1


def test_a_finite_module_without_ma_form_fails_the_checks_that_meet_it():
    # the zero module: no m is in M.A, and on full finite windows no larger
    # window exists, so that is a failed verdict at m, not a window artefact
    b = kfun_cyclic(2).bialgebra
    A = b.algebra
    zero = ModuleStructure(A, A, "right", lambda m, a: {})
    verdicts = check_monoidal_instance(b.slicer(), b.epsilon, [zero])
    assert [(v.status, str(v.witness[0]) if v.witness else None) for v in verdicts] == [
        ("failed", "1*d0")] * 3 + [("proven", None)]
    assert verdicts[0].detail == "tensor action: 1*d0 has no M.A decomposition"
    # the unitors reach M's M.A forms through the tensor action too
    assert {v.detail for v in verdicts[:3]} == {"tensor action: 1*d0 has no M.A decomposition"}
    v = check_module_algebra(zero, b.slicer())
    assert (v.axiom, v.status, v.witness) == ("module algebra", "failed", (A.basis_element(0),))
    # an id tuple short of the basis, or an oracle window, may just be too small
    with pytest.raises(WindowInsufficiency, match="lacks M.A form"):
        tensor_module_action(b.slicer((0,)), zero, zero).act_basis((0, 0), 0)
    # pulled back along a morphism, the same rule: act_on_module reads ma_form
    with pytest.raises(InvariantViolation, match="has no M.A decomposition") as exc:
        restrict_module(identity_extension(A), zero).act_basis(0, 0)
    assert [str(w) for w in exc.value.verdict.witness] == ["1*d0"]
    K = kfin_Z().bialgebra
    zero_k = ModuleStructure(K.algebra, K.algebra, "right", lambda m, a: {})
    with pytest.raises(WindowInsufficiency, match="lacks M.A form"):
        check_monoidal_instance(K.slicer(1, 6), K.epsilon, [zero_k])
    with pytest.raises(WindowInsufficiency, match="lacks M.A form"):
        restrict_module(identity_extension(K.algebra, window=2), zero_k).act_basis(0, 0)


def test_a_weak_coproduct_fails_at_its_undecomposable_pair():
    b = weak_delta_bundle()
    verdicts = {v.axiom: v for v in check_monoidal_instance(
        b.slicer(), b.epsilon, [regular_module(b.algebra)])}
    for axiom, detail in (("monoidal associator", "tensor action: 1*(d0,d1) has no M.A "
                           "decomposition"),
                          ("tensor extension instance", "extension idempotency: no B.A "
                           "decomposition")):
        v = verdicts[axiom]
        assert (v.status, [str(w) for w in v.witness], v.detail) == (
            "failed", ["1*(d0,d1)"], detail)


FIXED_BY_THE_HANDLE = {"delta", "window", "window_a", "expansion", "com", "strict"}


@pytest.mark.parametrize("check, handle", [
    (bialgebra.check_fons, "slicer"), (bialgebra.check_coassociative, "slicer"),
    (bialgebra.synthesize_counit, "slicer"), (bialgebra.check_counit, "slicer"),
    (hopf.check_bijective, "slicer"), (hopf.check_hopf, "slicer"),
    (hopf.check_antipode, "slicer"), (hopf.synthesize_antipode, "slicer"),
    (hopf.check_convolution_inverse, "slicer"),
    (comodule.check_comodule_coassoc, "gamma"),
    (comodule.check_comodule_coassoc_framed, "gamma"),
    (comodule.check_comodule_coassoc_element, "gamma"),
    (comodule.check_comodule_counit, "gamma"),
    (bialgebra.tensor_module_action, "slicer"),
    (bialgebra.check_monoidal_instance, "slicer"),
], ids=lambda x: getattr(x, "__name__", x))
def test_a_check_takes_its_handle_and_nothing_the_handle_fixes(check, handle):
    # a Slicer fixes its map, window and expansion, so no second statement
    # of them can disagree with the slices a check reads
    params = list(inspect.signature(check).parameters.values())
    assert params[0].name == handle
    assert params[0].default is inspect.Parameter.empty
    assert not FIXED_BY_THE_HANDLE & {p.name for p in params}
    assert "slicer" not in {p.name for p in params[1:]}


def test_no_public_check_restates_what_a_slicer_fixes():
    # every check_*/synthesize_* of the bialgebra, Hopf and comodule layers,
    # check_module_algebra included (its handle follows the module it checks)
    checks = [f for mod in (bialgebra, comodule, hopf) for name, f in vars(mod).items()
              if name.startswith(("check_", "synthesize_")) and f.__module__ == mod.__name__]
    assert comodule.check_module_algebra in checks
    for check in checks:
        params = set(inspect.signature(check).parameters)
        assert not FIXED_BY_THE_HANDLE & params, check.__name__
    assert list(inspect.signature(comodule.check_module_algebra).parameters) == [
        "module", "slicer"]


def test_the_unit_constraints_check_that_k_over_eps_is_a_module():
    # eps' = 2 eps scales g' = eps'.witness to d0 / 2, so the unitors alone
    # could not see it; k over eps' is no module: eps'(d0 d0) = 2 != 4
    b = kfun_cyclic(2).bialgebra
    reg = regular_module(b.algebra)
    doubled = Counit(b.algebra, {0: QQ.coerce(2), 1: QQ.zero})
    verdicts = check_monoidal_instance(b.slicer(), doubled, [reg])
    for v in verdicts[1:3]:
        assert (v.status, [str(w) for w in v.witness]) == ("failed", ["1*d0", "1*d0"])
        assert v.detail.startswith("k over eps is no module: ")
    assert doubled.witness(b.slicer().ids) == b.algebra.basis_element(0).scale(QQ.inv(QQ.coerce(2)))
    assert verdicts[1].window == "full basis(2)"
    # an eps that is zero on the window leaves k over eps degenerate
    zero = Counit(b.algebra, {0: QQ.zero, 1: QQ.zero})
    for v in check_monoidal_instance(b.slicer(), zero, [reg])[1:3]:
        assert (v.status, v.witness) == ("failed", None)
        assert v.detail == "k over eps is no module: eps vanishes on the window"


def test_bundle_slicer_is_cached_per_window():
    b = kfun_cyclic(3).bialgebra
    assert b.slicer() is b.slicer()
    assert b.slicer(window=None) is b.slicer()
