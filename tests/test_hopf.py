"""Canonical maps, antipode synthesis, and the twisted convolution calculus."""

import random
from pathlib import Path

import pytest

from mulhopf import hopf, linalg, multiplier, specfile
from mulhopf.algebra import Element, finite_algebra, tensor_algebra, tensor_elem
from mulhopf.bialgebra import Counit, Slicer, synthesize_counit
from mulhopf.extension import Extension, identity_extension
from mulhopf.fields import GF, QQ
from mulhopf.gallery import kfin_N, kfin_Z, kfun_cyclic
from mulhopf.hopf import (check_antipode, check_bijective, check_convolution_inverse,
                          check_hopf, conv_unit, convolve, map_eq, synthesize_antipode)
from mulhopf.multiplier import iota, multiplier_eq

from fixtures import (canonical_map, perturb_antipode_map, random_coproduct_bundle,
                      source_twist, span_map, target_frame)

GOLDEN = Path(__file__).parent / "golden"


# --- canonical maps -------------------------------------------------------


def test_canonical_map_values_on_z2():
    b = kfun_cyclic(2)
    sl = b.bialgebra.slicer()
    A = b.algebra
    x = tensor_elem(A.basis_element(0), A.basis_element(1), into=sl.txt)
    assert canonical_map(sl, "T1", x).coeffs == {(1, 1): QQ.one}
    assert canonical_map(sl, "T2", x).coeffs == {(0, 1): QQ.one}


def test_monoid_canonical_maps_miss_a_pair_outside_the_span_of_their_slices():
    """On functions on ({0,1}, .) neither T1 nor T2 hits d0 (x) d0; the
    witness replays as a rank increase of the slice columns."""
    spec = (Path(__file__).parent / "golden" / "monoid01.spec").read_text(encoding="utf-8")
    sl = specfile.build_bundle(specfile.parse_spec(spec), name="monoid01").bialgebra.slicer()
    pairs = [(a, b) for a in sl.ids for b in sl.ids]
    for which, side in (("T1", "right"), ("T2", "left")):
        sur = check_bijective(sl, which)["surjectivity"]
        assert sur.status == "failed"
        (wit,) = sur.witness
        assert str(wit) == "1*(d0,d0)"
        cols = [(p, sl.slice(side, *p).coeffs) for p in pairs]
        rank = linalg.GaussianSolver(linalg.SparseMatrix.from_columns(QQ, cols)).rank
        widened = linalg.SparseMatrix.from_columns(QQ, cols + [("witness", wit.coeffs)])
        assert linalg.GaussianSolver(widened).rank == rank + 1


def test_canonical_maps_bijective_on_cyclic():
    for n in (2, 3):
        b = kfun_cyclic(n).bialgebra
        for which in ("T1", "T2"):
            vs = check_bijective(Slicer(b.delta), which=which)
            assert vs["injectivity"].status == "proven"
            assert vs["surjectivity"].status == "proven"
            assert vs["bijectivity"].status == "proven"


def test_bijectivity_on_the_window_domain_factors_one_matrix(monkeypatch):
    # a finite algebra's scaled domain is its window, so surjectivity
    # solves with the factorisation injectivity has just made
    b = kfun_cyclic(3).bialgebra
    sl = b.slicer()
    for a in sl.ids:
        for c in sl.ids:
            sl.slice("right", a, c)  # slices first: they solve iota preimages
    built = []
    real = linalg.GaussianSolver.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(linalg.GaussianSolver, "__init__", counted)
    vs = check_bijective(sl, "T1")
    assert vs["bijectivity"].status == "proven"
    assert vs["surjectivity"].detail == "window domain"
    assert len(built) == 1


def test_t1_kernel_on_half_line():
    # on K(N) the monoid coproduct sends delta_0 (x) delta_1 to
    # Delta(delta_0)(1 (x) delta_1) = 0: T1 has a kernel
    b = kfin_N(window=3)
    sl = b.bialgebra.slicer()
    A = b.algebra
    x = tensor_elem(A.basis_element(0), A.basis_element(1), into=sl.txt)
    assert canonical_map(sl, "T1", x).is_zero()
    vs = check_bijective(sl, which="T1")
    assert vs["injectivity"].status == "failed"
    assert str(vs["injectivity"].witness[0]) == "1*(d0,d1)"


def test_check_hopf_verdict_keys():
    b = kfun_cyclic(2).bialgebra
    vs = check_hopf(Slicer(b.delta))
    assert set(vs) == {"T1", "T2", "hopf"}
    assert vs["hopf"].axiom == "canonical maps bijective"
    assert vs["hopf"].status == "proven"


# --- antipode synthesis ---------------------------------------------------


def test_antipode_table_on_cyclic():
    for n in (2, 3, 4, 5):
        b = kfun_cyclic(n)
        syn = synthesize_antipode(Slicer(b.bialgebra.delta), b.bialgebra.epsilon)
        assert syn.ok
        assert syn.table == {k: b.algebra.basis_element((n - k) % n)
                             for k in range(n)}
        assert all(v.ok for v in syn.verdicts)


def test_antipode_table_on_kz_is_negation():
    b = kfin_Z()
    syn = synthesize_antipode(Slicer(b.bialgebra.delta, window=3), b.bialgebra.epsilon)
    assert syn.ok
    assert syn.table == {n: b.algebra.basis_element(-n) for n in range(-3, 4)}


def cyclic_functions(n, field, unit):
    """Functions on Z/n with Delta dual to addition, ``unit`` as declared."""
    one = field.one
    A = finite_algebra(field, list(range(n)), {(i, i): {i: one} for i in range(n)},
                       unit=unit, name=f"fun(Z/{n})", fmt_id=lambda i: f"d{i}")
    AA = tensor_algebra(A, A)
    delta = Extension(A, AA, lambda k: iota(AA, Element(
        AA, {(i, (k - i) % n): one for i in range(n)})), name="Delta")
    eps = Counit(A, {k: one if k == 0 else field.zero for k in range(n)})
    return delta, eps


def count_space_builds(monkeypatch):
    builds = []
    real = multiplier.MultiplierSpace.__init__
    monkeypatch.setattr(multiplier.MultiplierSpace, "__init__",
                        lambda self, alg: builds.append(alg) or real(self, alg))
    return builds


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_an_undeclared_unit_is_solved_and_s_lands_in_iota_a(field, monkeypatch):
    builds = count_space_builds(monkeypatch)
    n = 5
    b = kfun_cyclic(n, field=field).bialgebra
    assert b.algebra.verified_unit == b.algebra.unit
    unital = synthesize_antipode(Slicer(b.delta), b.epsilon)
    delta, eps = cyclic_functions(n, field, unit=None)
    assert delta.source.verified_unit.coeffs == {t: field.one for t in range(n)}  # solved
    plain = synthesize_antipode(Slicer(delta), eps)
    assert builds == []  # both solved in the coordinates iota(e_k)
    assert unital.ok and plain.ok
    assert {t: v.coeffs for t, v in unital.table.items()} == \
        {t: v.coeffs for t, v in plain.table.items()} == \
        {t: {(n - t) % n: field.one} for t in range(n)}


def test_a_false_declared_unit_is_replaced_by_the_solved_one(monkeypatch):
    builds = count_space_builds(monkeypatch)
    n = 3
    delta, eps = cyclic_functions(n, QQ, unit={0: QQ.one})  # d0 is no unit
    assert delta.source.unit is not None
    assert delta.source.verified_unit.coeffs == {t: QQ.one for t in range(n)}
    syn = synthesize_antipode(Slicer(delta), eps)
    assert builds == []
    assert syn.ok
    assert {t: v.coeffs for t, v in syn.table.items()} == \
        {t: {(n - t) % n: QQ.one} for t in range(n)}


def test_antipode_synthesis_fails_on_half_line():
    b = kfin_N(window=3)
    syn = synthesize_antipode(Slicer(b.bialgebra.delta), b.bialgebra.epsilon)
    assert not syn.ok
    gate = syn.verdicts[0]
    assert gate.axiom == "T1 bijectivity"
    assert gate.status == "failed"


def test_check_antipode_accepts_the_true_map_and_rejects_perturbations():
    b = kfun_cyclic(3)
    sl, eps = Slicer(b.bialgebra.delta), b.bialgebra.epsilon
    s_true = b.bialgebra.antipode or synthesize_antipode(sl, eps).map
    assert check_antipode(sl, eps, s_true).ok
    for seed in range(5):
        s_bad = perturb_antipode_map(b.bialgebra, seed)
        assert check_antipode(sl, eps, s_bad).status == "failed"


def test_antipode_iff_convolution_inverse():
    # the defining identities and the convolution characterization
    # agree, for the honest antipode and for every perturbation
    for entry in (kfun_cyclic(2), kfun_cyclic(3)):
        b = entry.bialgebra
        sl = Slicer(b.delta)
        s_true = b.antipode or synthesize_antipode(sl, b.epsilon).map
        candidates = [s_true] + [perturb_antipode_map(b, seed)
                                 for seed in range(4)]
        for s in candidates:
            left = check_antipode(sl, b.epsilon, s)
            right = check_convolution_inverse(sl, b.epsilon, s, identity_extension(b.algebra))
            assert left.ok == right.ok, (s.name, left, right)


def test_convolution_inverse_on_kz_window():
    b = kfin_Z().bialgebra
    sl = b.slicer(window=3)
    syn = synthesize_antipode(sl, b.epsilon)
    v = check_convolution_inverse(sl, b.epsilon, syn.map, identity_extension(b.algebra))
    assert v.status == "holds_on_window"


def test_convolution_inverse_builds_no_rank_solver_per_argument(monkeypatch):
    # map_eq hands its own status to multiplier_eq, which then needs no
    # rank solve over the probes for every argument and frame
    b = kfun_cyclic(3).bialgebra
    sl = b.slicer()
    check_antipode(sl, b.epsilon, b.antipode)  # fills the slices
    built = []
    real_init = linalg.GaussianSolver.__init__
    monkeypatch.setattr(linalg.GaussianSolver, "__init__",
                        lambda self, *a, **k: built.append(self) or real_init(self, *a, **k))
    monkeypatch.setattr(hopf, "_frames_certified", lambda *a: 0)  # sweep every frame
    v = check_convolution_inverse(sl, b.epsilon, b.antipode, identity_extension(b.algebra))
    assert v.status == "proven"
    assert built == []


# --- the twisted convolution calculus -------------------------------------


def test_convolution_unit_values():
    kz = kfin_Z().bialgebra
    alg = kz.algebra
    alpha = conv_unit(alg, kz.epsilon, alg.basis_element(2))
    # eps(delta_0) = 1 picks out iota(delta_2); eps kills every other id
    assert multiplier_eq(alpha.basis_multiplier(0), iota(alg, alg.basis_element(2)),
                         (-2, -1, 0, 1, 2)).ok
    assert alpha.basis_multiplier(1).apply("left", alg.basis_element(1)).is_zero()


def test_iota_convolved_with_itself():
    kz = kfin_Z().bialgebra
    alg = kz.algebra
    sl = kz.slicer(window=3)
    im = identity_extension(alg)
    conv = convolve("right", im, im, alg.basis_element(0), sl)
    assert multiplier_eq(conv.basis_multiplier(0), iota(alg, alg.basis_element(0)),
                         (-1, 0, 1)).ok


def test_mixed_associativity():
    # f *_a (g *^b h) = (f *_a g) *^b h
    b = kfun_cyclic(3)
    alg = b.algebra
    sl = b.bialgebra.slicer()
    ids = (0, 1, 2)
    rng = random.Random(7)
    for _ in range(4):
        f, g, h = (span_map(alg, rng, ids) for _ in range(3))
        ea, eb = alg.basis_element(rng.choice(ids)), alg.basis_element(rng.choice(ids))
        lhs = convolve("left", f, convolve("right", g, h, eb, sl), ea, sl)
        rhs = convolve("right", convolve("left", f, g, ea, sl), h, eb, sl)
        assert map_eq(lhs, rhs, ids, ids).ok


def test_convolution_unitality():
    # alpha_b *^c f collapses to iota(b) f(a c), and mirrored
    b = kfun_cyclic(3)
    alg = b.algebra
    eps = b.bialgebra.epsilon
    sl = b.bialgebra.slicer()
    ids = (0, 1, 2)
    rng = random.Random(11)
    for _ in range(4):
        f = span_map(alg, rng, ids)
        eb = alg.basis_element(rng.choice(ids))
        ec = alg.basis_element(rng.choice(ids))
        alpha = conv_unit(alg, eps, eb)
        lhs = convolve("right", alpha, f, ec, sl)
        rhs = target_frame(source_twist(f, left=ec), left=eb)
        assert map_eq(lhs, rhs, ids, ids).ok
        lhs2 = convolve("left", f, alpha, ec, sl)
        rhs2 = target_frame(source_twist(f, right=ec), right=eb)
        assert map_eq(lhs2, rhs2, ids, ids).ok


def test_twist_and_frame_interchange():
    # module actions on opposite sides of the map commute
    b = kfun_cyclic(3)
    alg = b.algebra
    ids = (0, 1, 2)
    rng = random.Random(13)
    f = span_map(alg, rng, ids)
    eb = alg.basis_element(1)
    ebp = alg.basis_element(2)
    combos = [
        (target_frame(source_twist(f, left=ebp), left=eb),
         source_twist(target_frame(f, left=eb), left=ebp)),
        (target_frame(source_twist(f, right=ebp), left=eb),
         source_twist(target_frame(f, left=eb), right=ebp)),
        (target_frame(source_twist(f, left=ebp), right=eb),
         source_twist(target_frame(f, right=eb), left=ebp)),
        (target_frame(source_twist(f, right=ebp), right=eb),
         source_twist(target_frame(f, right=eb), right=ebp)),
    ]
    for lhs, rhs in combos:
        assert map_eq(lhs, rhs, ids, ids).ok


def test_twisting_does_not_degenerate():
    # some source twist of a nonzero map stays nonzero
    alg = kfun_cyclic(2).algebra
    f = identity_extension(alg)
    twisted = source_twist(f, left=alg.basis_element(0))
    assert not twisted.basis_multiplier(0).apply("left", alg.basis_element(0)).is_zero()


def test_map_eq_failure_carries_witness():
    alg = kfun_cyclic(2).algebra
    f = identity_extension(alg)
    g = Extension(alg, alg, lambda bid: iota(alg, alg.basis_element(1 - bid)))
    v = map_eq(f, g, (0, 1), (0, 1))
    assert v.status == "failed"
    assert v.witness is not None


# --- finite certificates against the sweeps they skip ----------------------


def _kfun_case(n, seed=None):
    b = kfun_cyclic(n).bialgebra
    sl = b.slicer()
    s = synthesize_antipode(sl, b.epsilon).map if seed is None else perturb_antipode_map(b, seed)
    return sl, b.epsilon, s


def _spec_case(name):
    spec = specfile.parse_spec((GOLDEN / name).read_text(encoding="utf-8"))
    b = specfile.build_bundle(spec, name=name).bialgebra
    sl = b.slicer()
    eps = b.epsilon or synthesize_counit(sl) or Counit(b.algebra, lambda bid: 0)
    return sl, eps, b.antipode or identity_extension(b.algebra)


def _random_case(seed):
    b = random_coproduct_bundle(seed, unital=True)
    return b.slicer(), Counit(b.algebra, lambda bid: 1), identity_extension(b.algebra)


# each builds (slicer, counit, f) afresh; f is checked as the convolution
# inverse of iota.  monoid01 has kernels in T1 and T2, nonunital_path8_delta
# no unit, so there the sweeps decide everything.
CERTIFICATE_CASES = {
    **{f"kfun_cyclic({n})": (_kfun_case, n) for n in range(2, 6)},
    **{f"kfun_cyclic({2 + seed % 4}) perturbed {seed}": (_kfun_case, 2 + seed % 4, seed)
       for seed in range(20)},
    **{name: (_spec_case, name + ".spec") for name in (
        "rescaled_z6_antipode", "rescaled_z6_damaged_antipode", "monoid01",
        "nonunital_path8_delta")},
    **{f"random_coproduct_bundle({seed})": (_random_case, seed) for seed in range(8)},
}


def _verdict_texts(sl, eps, f):
    return ([str(v) for which in ("T1", "T2") for v in check_bijective(sl, which).values()]
            + [str(check_convolution_inverse(sl, eps, f, identity_extension(sl.alg)))])


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_finite_certificates_leave_every_verdict_as_the_sweeps_give_it(monkeypatch, case):
    build, *args = CERTIFICATE_CASES[case]
    on = _verdict_texts(*build(*args))
    monkeypatch.setattr(hopf, "_frames_certified", lambda *a: 0)
    monkeypatch.setattr(hopf, "_square_injective", lambda *a: False)
    assert _verdict_texts(*build(*args)) == on


def test_the_convolution_certificate_decides_up_to_the_first_failing_frame():
    sl, eps, s = _spec_case("rescaled_z6_antipode.spec")
    assert hopf._frames_certified(sl, eps, s, identity_extension(sl.alg)) == len(sl.ids)
    sl, eps, s = _spec_case("rescaled_z6_damaged_antipode.spec")
    assert hopf._frames_certified(sl, eps, s, identity_extension(sl.alg)) == sl.ids.index("e4")
    sl, eps, s = _spec_case("nonunital_path8_delta.spec")  # no unit
    assert hopf._frames_certified(sl, eps, s, identity_extension(sl.alg)) == 0
