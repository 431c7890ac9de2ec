from pathlib import Path

import pytest

from mulhopf import linalg, multiplier
from mulhopf.algebra import Element, InputError, regular_module, resolve_window, tensor_elem
from mulhopf.extension import psi_embed
from mulhopf.fields import GF, QQ
from mulhopf.gallery import kfin_Z, kfun_cyclic, rowalg2
from mulhopf.multiplier import (Multiplier, MultiplierSpace, act_on_module,
                                agrees_on_probes, basis_image, combine, iota,
                                iota_preimage, multiplier_eq, one)
from mulhopf.specfile import build_bundle, parse_spec

from fixtures import random_algebra


def test_multiplier_space_of_function_algebra_has_dimension_n():
    # K(Z/n) is unital, so M(A) = A: dimension n, all of it reached by iota
    for n in (2, 3, 4):
        MS = MultiplierSpace(kfun_cyclic(n).algebra)
        assert MS.dim == n
        assert MS.alg.regular_solver().rank == n


def test_a_multiplier_space_build_factors_one_solver(monkeypatch):
    A = kfun_cyclic(4).algebra
    built = []
    real = linalg.GaussianSolver.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(linalg.GaussianSolver, "__init__", counted)
    assert MultiplierSpace(A).dim == 4
    assert len(built) == 1


def test_iota_is_multiplicative():
    A = kfun_cyclic(3).algebra
    for i in range(3):
        for j in range(3):
            x = iota(A, A.basis_element(i)) * iota(A, A.basis_element(j))
            y = iota(A, A.basis_element(i) * A.basis_element(j))
            assert multiplier_eq(x, y, range(3)).ok


def test_iota_preimage_roundtrip_finite():
    A = kfun_cyclic(3).algebra
    x = A.basis_element(0) + A.basis_element(2).scale(QQ.coerce(5))
    assert iota_preimage(A, iota(A, x)) == x


def test_identity_multiplier_of_unital_algebra():
    A = kfun_cyclic(2).algebra
    u = iota_preimage(A, one(A))
    assert u == A.basis_element(0) + A.basis_element(1)


def test_identity_multiplier_outside_iota_for_rowalg2():
    # rowalg2 has no unit, so 1 in M(A) has no preimage; the solve proves it
    A = rowalg2().algebra
    assert iota_preimage(A, one(A)) is None


def test_a_nondegenerate_idempotent_finite_algebra_need_not_have_a_unit():
    # the path algebra of nonunital_path8.spec passes associativity,
    # idempotency and non-degeneracy (its golden report), yet no u has
    # iota(u) = 1: M(A) is 9-dimensional while iota(A) has rank 8
    spec = Path(__file__).parent / "golden" / "nonunital_path8.spec"
    A = build_bundle(parse_spec(spec.read_text(encoding="utf-8"))).algebra
    ids = A.basis.ids
    assert len(ids) == 8 and A.unit is None
    unit_rhs = {(tag, w, w): QQ.one for tag in ("L", "R") for w in ids}
    assert A.regular_solver().solve(unit_rhs) is None
    assert MultiplierSpace(A).dim == 9
    assert A.regular_solver().rank == 8
    assert iota_preimage(A, one(A)) is None


def test_even_indicator_multiplier_on_kz():
    KZ = kfin_Z().algebra

    def keep_even(n):
        return KZ.basis_element(n) if n % 2 == 0 else KZ.zero()

    ind = Multiplier(KZ, keep_even, keep_even, name="even")
    # window-relative contraction sees only the truncation
    local = iota_preimage(KZ, ind, window=3)
    assert local == KZ.element({-2: QQ.one, 0: QQ.one, 2: QQ.one})
    # a probe outside the window exposes the mismatch
    assert iota_preimage(KZ, ind, window=3, probe_ids=(4,)) is None


def test_unit_contraction_memo_is_keyed_by_window():
    # the truncating factor's contraction differs per window, so a memo
    # that ignored the window would leak one window's answer into another
    KZ = kfin_Z().algebra

    def keep_even(n):
        return KZ.basis_element(n) if n % 2 == 0 else KZ.zero()

    ind = Multiplier(KZ, keep_even, keep_even, name="even")
    for z in (ind * one(KZ), one(KZ) * ind):
        for w in (3, 6, 3, 6):
            evens = KZ.element({n: QQ.one for n in range(-w, w + 1) if n % 2 == 0})
            assert iota_preimage(KZ, z, window=w) == evens


def test_product_applies_factor_by_factor():
    KZ = kfin_Z().algebra
    x = iota(KZ, KZ.element({0: QQ.one, 1: QQ.coerce(2)}))
    y = iota(KZ, KZ.element({1: QQ.one, 2: QQ.one}))
    p = x * y
    probe = KZ.element({1: QQ.one, 2: QQ.coerce(3)})
    assert p.apply("left", probe) == x.apply("left", y.apply("left", probe))
    assert p.apply("right", probe) == y.apply("right", x.apply("right", probe))
    # the per-basis image agrees with whole-element application
    assert basis_image(p, "left", 1) == p.apply("left", KZ.basis_element(1)).coeffs


def test_sum_and_scale_of_multipliers():
    A = kfun_cyclic(2).algebra
    x, y = iota(A, A.basis_element(0)), iota(A, A.basis_element(1))
    s = x + y
    assert multiplier_eq(s, one(A), (0, 1)).ok
    doubled = x.scale(QQ.coerce(2))
    assert doubled.apply("left", A.basis_element(0)) == A.basis_element(0).scale(QQ.coerce(2))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_combine_equals_the_chained_sum_and_is_zero_without_terms(field):
    A = random_algebra(5, field=field)
    ids = A.basis.ids
    xs = [iota(A, A.basis_element(i)) for i in ids]
    xs.append(xs[0] * xs[-1])
    terms = [(field.coerce(k + 2), x) for k, x in enumerate(xs)]
    # a cancelling term and a zero coefficient
    terms += [(field.coerce(-2), xs[0]), (field.zero, xs[1])]
    chained = terms[0][1].scale(terms[0][0])
    for c, x in terms[1:]:
        chained = chained + x.scale(c)
    assert multiplier_eq(combine(A, terms), chained, ids).ok
    zero = combine(A, [])
    for i in ids:
        e = A.basis_element(i)
        assert zero.apply("left", e).is_zero() and zero.apply("right", e).is_zero()


def image(x, side, bid):
    return Element(x.alg, basis_image(x, side, bid))


class FormerSums:
    """Multiplier.__add__, __neg__ and scale as they were before ``combine``."""

    @staticmethod
    def add(x, y):
        return Multiplier(x.alg, lambda bid: image(x, "left", bid) + image(y, "left", bid),
                          lambda bid: image(x, "right", bid) + image(y, "right", bid))

    @staticmethod
    def neg(x):
        return Multiplier(x.alg, lambda bid: -image(x, "left", bid),
                          lambda bid: -image(x, "right", bid))

    @staticmethod
    def scale(x, scalar):
        s = x.alg.field.coerce(scalar)
        return Multiplier(x.alg, lambda bid: image(x, "left", bid).scale(s),
                          lambda bid: image(x, "right", bid).scale(s))


def basis_tables(x):
    """Every basis image on both sides with its key order."""
    return [(bid, list(basis_image(x, "left", bid).items()),
             list(basis_image(x, "right", bid).items())) for bid in x.alg.basis.ids]


@pytest.mark.parametrize("xs", [
    lambda: MultiplierSpace(kfun_cyclic(3).algebra).basis,
    lambda: MultiplierSpace(rowalg2().algebra).basis,
    lambda: [iota(A, A.basis_element(i)) for A in [random_algebra(2)] for i in A.basis.ids],
    lambda: [iota(A, A.basis_element(i) + A.basis_element(i).scale(3))
             for A in [random_algebra(3, field=GF(7))] for i in A.basis.ids],
], ids=["space-K(Z/3)", "space-rowalg2", "Q", "F7"])
def test_sums_negatives_and_scalings_are_the_former_ones(xs, monkeypatch):
    xs = list(xs())
    field = xs[0].alg.field
    combined = []
    real = multiplier.combine
    monkeypatch.setattr(multiplier, "combine",
                        lambda alg, terms: combined.append(alg) or real(alg, terms))
    for x, y in zip(xs, xs[1:] + xs[:1]):
        for c in (field.coerce(3), field.coerce(-2), field.zero):
            assert basis_tables(x.scale(c)) == basis_tables(FormerSums.scale(x, c))
        assert basis_tables(x + y) == basis_tables(FormerSums.add(x, y))
        assert basis_tables(-x) == basis_tables(FormerSums.neg(x))
        assert basis_tables(x - y) == basis_tables(FormerSums.add(x, FormerSums.neg(y)))
    assert len(combined) == 7 * len(xs)  # each of the seven is one flat sum
    other = one(kfun_cyclic(2).algebra)
    with pytest.raises(InputError, match="different algebras"):
        xs[0] + other


def test_act_on_module_through_iota_matches_product():
    A = kfun_cyclic(3).algebra
    m = regular_module(A)
    for i in range(3):
        probe = A.basis_element(i) + A.basis_element((i + 1) % 3)
        moved = act_on_module(m, probe, iota(A, A.basis_element(i)))
        assert moved == probe * A.basis_element(i)


def test_multiplier_eq_reports_witness():
    A = kfun_cyclic(2).algebra
    v = multiplier_eq(iota(A, A.basis_element(0)), iota(A, A.basis_element(1)), (0, 1))
    assert v.status == "failed"
    assert v.witness is not None
    assert (v.witness, v.detail) == ((A.basis_element(0),), "x|>p = 1*d0 but y|>p = 0")
    # equal left actions, unequal right actions: the right side is named
    x = Multiplier(A, lambda b: A.mul_basis(0, b), lambda b: A.mul_basis(b, 0))
    y = Multiplier(A, lambda b: A.mul_basis(0, b), lambda b: A.mul_basis(b, 1))
    v = multiplier_eq(x * x, y, (1, 0))
    assert (v.status, v.window) == ("failed", "2 probes")
    assert (v.witness, v.detail) == ((A.basis_element(1),), "p<|x = 0 but p<|y = 1*d1")
    # probe ids that cover a finite basis prove the equality; fewer do not
    assert multiplier_eq(x, x, (1, 0)).status == "proven"
    assert multiplier_eq(x, x, (1, 1)).status == "holds_on_window"


@pytest.mark.parametrize("entry, window", [(kfin_Z, 3), (lambda: kfun_cyclic(3, field=GF(7)), None)],
                         ids=["kfin_Z-Q-w3", "kfun3-F7"])
def test_basis_image_matches_the_element_actions(entry, window):
    b = entry().bialgebra
    A, T = b.algebra, b.delta.target
    a_ids = resolve_window(A, window)
    e = A.basis_element
    x, y = iota(A, e(a_ids[0]) + e(a_ids[1]).scale(3)), iota(A, e(a_ids[1]))
    da = b.delta.basis_multiplier(a_ids[1])
    frame = psi_embed([one(A), iota(A, e(a_ids[0]) + e(a_ids[1]))], into=T)  # a Psi leaf
    mixed = combine(T, [(2, da), (-1, frame)])
    cases = [
        (A, [x, one(A), combine(A, [(2, x), (-1, y)]), x * y, (x * y) * x, x * (y * x),
             combine(A, []), combine(A, []) * x, x * combine(A, []),
             combine(A, [(2, x * y), (-1, y * x), (1, one(A))])]),
        (T, [da, frame, mixed, da * frame, frame * da, (frame * da) * frame,
             frame * (mixed * frame), combine(T, []) * da,
             combine(T, [(3, da * frame), (-1, frame), (2, frame * (mixed * da))])]),
    ]
    hits = 0
    for space, multipliers in cases:
        for z in multipliers:
            images = {(side, w): basis_image(z, side, w)
                      for w in resolve_window(space, window) for side in ("left", "right")}
            # the terms walk caches nothing on a sum: it has no memo
            assert z._terms is None or z._memo is None
            for (side, w), hit in images.items():
                p = space.basis_element(w)
                assert hit == z.apply(side, p).coeffs
                assert hit == unfolded(z, side, p).coeffs
                hits += bool(hit)
    assert hits > 0


def unfolded(z, side, a):
    """z |> a or a <| z from the leaves' own actions, sums and products unfolded."""
    if z._terms is not None:
        return sum((unfolded(x, side, a).scale(c) for c, x in z._terms), a.space.zero())
    if z._prod is not None:
        inner, outer = z._prod[::-1] if side == "left" else z._prod
        return unfolded(outer, side, unfolded(inner, side, a))
    if z._psi is not None:  # Psi(x (x) y) acts on e_i (x) e_j factor by factor
        (x, y), (left, right) = z._psi, a.space.factors
        return sum((tensor_elem(unfolded(x, side, left.basis_element(i)),
                                unfolded(y, side, right.basis_element(j)), into=a.space).scale(c)
                    for (i, j), c in a.coeffs.items()), a.space.zero())
    return z.apply(side, a)


def test_applying_a_leaf_reads_its_memo_and_fills_none():
    # x |> a and a <| x for a whole element go through the leaf's rule; a
    # basis image memoised by a probe sweep is read, and nothing is added
    A = kfin_Z().algebra
    e = A.basis_element
    x = iota(A, e(0) + e(1).scale(2))
    a = e(0).scale(3) + e(1) - e(5)
    assert x.apply("left", a) == x.apply("right", a) == e(0).scale(3) + e(1).scale(2)
    assert x._memo == {"left": {}, "right": {}}
    basis_image(x, "left", 1)
    x._memo["left"][1] = e(7).coeffs  # a planted memo shows it is read
    assert x.apply("left", a) == e(0).scale(3) + e(7)
    assert list(x._memo["left"]) == [1] and x._memo["right"] == {}


def test_probe_sweeps_cache_nothing_on_a_product():
    # a slice's framed product is compared on every probe once: the sweep
    # goes through its factors and leaves no per-probe image on it
    sl = kfin_Z().bialgebra.slicer(3)
    z, _base = sl._framed("right", 1, 2)
    probes = resolve_window(sl.txt, 3)
    assert agrees_on_probes(sl.txt, sl.slice("right", 1, 2), z, probes)
    assert multiplier_eq(z, z, probes).ok
    assert z._memo is None
