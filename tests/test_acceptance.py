"""End-to-end scenarios with wall-clock budgets.

Each test exercises one shipped promise from top to bottom (library or
CLI level), asserts the frozen expected values, and finishes with a
single PASS line carrying its elapsed time.  Budgets are generous
single-threaded numbers; a failure here means either a behavior or a
performance regression.
"""

import io
import json
import random
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout

from mulhopf.algebra import (check_module, regular_module, resolve_window,
                             tensor_module)
from mulhopf.bialgebra import Counit, check_monoidal_instance, tensor_module_action
from mulhopf.cli import main
from mulhopf.extension import Extension, identity_extension
from mulhopf.fields import QQ
from mulhopf.gallery import (kfin_N, kfin_Z, kfun_cyclic, nand_delta_bundle,
                             rowalg2, zero1)
from mulhopf.hopf import check_antipode, check_convolution_inverse, conv_unit, convolve
from mulhopf.multiplier import Multiplier, MultiplierSpace, iota, multiplier_eq, one

from fixtures import (perturb_antipode_map, random_algebra, random_extension,
                      source_twist, span_map, target_frame)


# --- plumbing -------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_json(argv):
    rc, out, err = run_cli(list(argv) + ["--report", "json"])
    return rc, json.loads(out), err


def entry_for(data, axiom):
    matches = [e for e in data["entries"] if e["axiom"] == axiom]
    assert matches, f"no report entry for {axiom!r}"
    return matches[0]


def finish(t0, limit, label):
    dt = time.perf_counter() - t0
    assert dt < limit, f"{label}: {dt:.2f}s over the {limit:g}s budget"
    print(f"PASS {label} ({dt:.2f}s < {limit:g}s)")


def fiber_pullback():
    """Pullback of k-valued functions along Z/4 ->> Z/2."""
    B = kfun_cyclic(2).algebra
    A = kfun_cyclic(4).algebra
    return Extension.from_map(
        B, A, lambda i: iota(A, A.basis_element(i) + A.basis_element(i + 2)),
        name="pullback")


GROUP_SPEC = """\
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


# --- the scenarios --------------------------------------------------------


def test_multiplier_space_of_cyclic_function_algebras_is_iota_of_a():
    """M(K(Z/n)) has dimension n and equals the span of the iota images."""
    t0 = time.perf_counter()
    for n in range(2, 7):
        tn = time.perf_counter()
        space = MultiplierSpace(kfun_cyclic(n).algebra)
        assert space.dim == n
        assert space.alg.regular_solver().rank == n
        assert time.perf_counter() - tn < 1.0, f"n={n} over the 1s per-size budget"
    finish(t0, 5.0, "M(K(Z/n)) = iota(K(Z/n)) exactly, n = 2..6")


def test_classify_proves_cyclic_function_algebras_multiplier_hopf():
    """classify pins eps = [k=0] and S(d_k) = d_{n-k} for every n up to 6."""
    t0 = time.perf_counter()
    for n in range(2, 7):
        rc, data, _ = run_json(["classify", f"gallery:kfun_cyclic({n})"])
        assert rc == 0
        assert data["classification"] == "multiplier Hopf algebra (proven; finite)"
        assert all(e["status"] == "proven" for e in data["entries"])
        eps = data["tables"]["epsilon"]
        assert eps == {f"d{k}": ("1" if k == 0 else "0") for k in range(n)}
        smap = data["tables"]["antipode"]
        assert smap == {f"d{k}": f"1*d{(n - k) % n}" for k in range(n)}
    finish(t0, 5.0, "classify proves K(Z/n) multiplier Hopf with the known tables, n = 2..6")


def test_classify_certifies_integer_line_on_window_eight():
    """The windowed run covers all 17^3 slice triples and both tables."""
    t0 = time.perf_counter()
    rc, data, _ = run_json(["classify", "gallery:kfin_Z",
                            "--window", "8", "--expansion", "2"])
    assert rc == 0
    assert data["classification"] == "multiplier Hopf algebra (holds_on_window 8)"
    assert all(e["status"] in ("proven", "holds_on_window") for e in data["entries"])
    assert entry_for(data, "coassociativity")["window"] == "17 ids of K(Z)"
    assert entry_for(data, "extension multiplicativity")["window"].startswith("17 ids")
    for axiom in ("T1 bijectivity", "T2 bijectivity", "counit", "antipode"):
        assert entry_for(data, axiom)["status"] != "failed"
    eps = data["tables"]["epsilon"]
    assert len(eps) == 33  # products reach out to |n| = 16
    assert eps == {f"d{k}": ("1" if k == 0 else "0") for k in range(-16, 17)}
    smap = data["tables"]["antipode"]
    assert smap == {f"d{k}": f"1*d{-k}" for k in range(-8, 9)}
    finish(t0, 60.0, "classify certifies K(Z) on window 8 (17^3 triples, eps and S tables)")


def test_negative_controls_exit_one_with_reverifiable_witnesses(tmp_path):
    """Each planted defect is reported with a witness that still violates
    the law when replayed outside the checker."""
    t0 = time.perf_counter()

    # one-sided annihilator: E12 * a = 0 for every basis element
    rc, data, _ = run_json(["check-algebra", "gallery:rowalg2"])
    assert rc == 1
    e = entry_for(data, "non-degeneracy")
    assert e["status"] == "failed" and e["witness"] == "1*E12"
    A = rowalg2().algebra
    x = A.basis_element("E12")
    assert not x.is_zero()
    assert all((x * A.basis_element(b)).is_zero()
               for b in resolve_window(A, None))

    # zero multiplication: z never lands in the product span
    rc, data, _ = run_json(["check-algebra", "gallery:zero1"])
    assert rc == 1
    e = entry_for(data, "idempotency")
    assert e["status"] == "failed" and e["witness"] == "1*z"
    Z = zero1().algebra
    zids = resolve_window(Z, None)
    assert all((Z.basis_element(a) * Z.basis_element(b)).is_zero()
               for a in zids for b in zids)

    # NAND coproduct on K(Z/2): coassociativity dies at (d0, d0, d1)
    rc, data, _ = run_json(["check-bialgebra", "gallery:nand_delta"])
    assert rc == 1
    e = entry_for(data, "coassociativity")
    assert e["status"] == "failed" and e["witness"] == "1*d0, 1*d0, 1*d1"
    b = nand_delta_bundle()
    sl = b.slicer()
    f = b.algebra.field
    a_id, b_id, c_id = 0, 0, 1
    lhs, rhs = {}, {}
    for (u, v), c1 in sl.slice("right", b_id, c_id).coeffs.items():
        for (p, q), c2 in sl.slice("left", a_id, u).coeffs.items():
            k = (p, q, v)
            lhs[k] = f.add(lhs.get(k, f.zero), f.mul(c1, c2))
    for (p, q), c1 in sl.slice("left", a_id, b_id).coeffs.items():
        for (u, v), c2 in sl.slice("right", q, c_id).coeffs.items():
            k = (p, u, v)
            rhs[k] = f.add(rhs.get(k, f.zero), f.mul(c1, c2))
    lhs = {k: c for k, c in lhs.items() if c}
    rhs = {k: c for k, c in rhs.items() if c}
    assert lhs != rhs

    # a wrong declared antipode fails check-hopf, and the witness pair
    # re-violates the defining identity m(S (x) id)(Delta(a)(1 (x) b)) = eps(a) b
    bad = GROUP_SPEC.replace("antipode g = 1*g", "antipode g = 1*e")
    p = tmp_path / "bad_antipode.spec"
    p.write_text(bad)
    rc, data, _ = run_json(["check-hopf", str(p)])
    assert rc == 1

    # a damaged S fails both characterizations, and the reported pair
    # re-violates m(S (x) id) / m(id (x) S) when replayed by hand
    bundle = kfun_cyclic(2).bialgebra
    alg = bundle.algebra
    sl2 = bundle.slicer()
    for seed in range(4):
        s_bad = perturb_antipode_map(bundle, seed)
        va = check_antipode(sl2, bundle.epsilon, s_bad)
        vc = check_convolution_inverse(sl2, bundle.epsilon, s_bad, identity_extension(alg))
        assert va.status == "failed" and vc.status == "failed"
        ea, eb = va.witness
        a_id = next(iter(ea.coeffs))
        b_id = next(iter(eb.coeffs))
        t1 = alg.zero()
        for (u, v), c in sl2.slice("right", a_id, b_id).coeffs.items():
            t1 = t1 + s_bad.basis_multiplier(u).apply("left", alg.basis_element(v)).scale(c)
        t2 = alg.zero()
        for (p, q), c in sl2.slice("left", a_id, b_id).coeffs.items():
            t2 = t2 + s_bad.basis_multiplier(q).apply("right", alg.basis_element(p)).scale(c)
        want1 = eb.scale(bundle.epsilon(ea))
        want2 = ea.scale(bundle.epsilon(eb))
        assert t1 != want1 or t2 != want2
    finish(t0, 30.0, "planted defects exit 1 and their witnesses replay as violations")


def test_antipode_and_convolution_inverse_verdicts_agree():
    """S solves the defining identities iff it is the convolution inverse
    of iota, across true antipodes and twenty damaged ones."""
    t0 = time.perf_counter()
    bundles = [kfun_cyclic(2), kfun_cyclic(3), kfun_cyclic(4),
               kfun_cyclic(5), kfin_Z()]
    for entry in bundles:
        b = entry.bialgebra
        sl = b.slicer(window=3) if entry.name == "kfin_Z" else b.slicer()
        va = check_antipode(sl, b.epsilon, b.antipode)
        vc = check_convolution_inverse(sl, b.epsilon, b.antipode, identity_extension(b.algebra))
        assert va.ok and vc.ok
    damaged = [kfun_cyclic(2), kfun_cyclic(3), kfun_cyclic(4), kfin_Z()]
    for seed in range(20):
        entry = damaged[seed % len(damaged)]
        b = entry.bialgebra
        sl = b.slicer(window=3) if entry.name == "kfin_Z" else b.slicer()
        s_bad = perturb_antipode_map(b, seed)
        va = check_antipode(sl, b.epsilon, s_bad)
        vc = check_convolution_inverse(sl, b.epsilon, s_bad, identity_extension(b.algebra))
        assert va.ok == vc.ok
    finish(t0, 30.0, "antipode and convolution-inverse verdicts agree on 5 true + 20 damaged maps")


def test_seeded_tensor_modules_stay_nondegenerate():
    """tensor_module of two faithful regular modules never degenerates."""
    t0 = time.perf_counter()
    for seed in range(50):
        A = random_algebra(seed)
        reg = regular_module(A)
        verdicts = check_module(tensor_module(reg, reg), laws=("nondegeneracy",))
        assert verdicts["nondegeneracy"].ok
    finish(t0, 30.0, "50 seeded algebras: the tensor square of the regular module stays non-degenerate")


def test_extension_bimodule_roundtrips_and_lift_laws():
    """Tabulating an extension's actions and rebuilding (either direction)
    reproduces it on probes, and the lift extends the map along iota."""
    t0 = time.perf_counter()

    gallery_exts = [identity_extension(kfun_cyclic(3).algebra),
                    fiber_pullback(),
                    kfun_cyclic(2).bialgebra.delta,
                    kfun_cyclic(3).bialgebra.delta]
    random_exts = [random_extension(seed) for seed in range(20)]

    for ext in gallery_exts + random_exts:
        B, A = ext.source, ext.target
        probes = ext.target_ids

        def left_rule(b_id, a_id, _e=ext):
            return _e.basis_multiplier(b_id).apply("left", A.basis_element(a_id)).coeffs

        def right_rule(a_id, b_id, _e=ext):
            return _e.basis_multiplier(b_id).apply("right", A.basis_element(a_id)).coeffs

        rebuilt = Extension(B, A, lambda b, _l=left_rule, _r=right_rule: Multiplier(
            A, lambda a: _l(b, a), lambda a: _r(a, b)), name=ext.name + "'")
        assert all(v.ok for v in rebuilt.validate())
        again = Extension.from_map(
            B, A, lambda i, _r=rebuilt: _r.basis_multiplier(i),
            name=ext.name + "''")
        for i in ext.source_ids:
            m = ext.basis_multiplier(i)
            assert multiplier_eq(m, rebuilt.basis_multiplier(i), probes).ok
            assert multiplier_eq(m, again.basis_multiplier(i), probes).ok
            assert multiplier_eq(ext.lift(iota(B, B.basis_element(i))), m, probes).ok
        assert multiplier_eq(ext.lift(one(B)), one(A), probes).ok
    finish(t0, 30.0, "map <-> bimodule roundtrips and lift laws on 4 gallery + 20 seeded extensions")


def test_convolution_associativity_and_unitality_on_seeded_probes():
    """Mixed associativity and twisted unitality, 100 probes per example."""
    t0 = time.perf_counter()
    bundles = [(kfun_cyclic(2), None), (kfun_cyclic(3), None),
               (kfun_cyclic(4), None), (kfin_Z(), 3)]
    for entry, window in bundles:
        b = entry.bialgebra
        alg = b.algebra
        sl = b.slicer(window=window) if window else b.slicer()
        ids = sl.ids
        rng = random.Random(zlib.crc32(entry.name.encode()))
        count = 0
        for _ in range(5):
            f, g, h = (span_map(alg, rng, ids) for _ in range(3))
            ea = alg.basis_element(rng.choice(ids))
            eb = alg.basis_element(rng.choice(ids))
            lhs = convolve("left", f, convolve("right", g, h, eb, sl), ea, sl)
            rhs = convolve("right", convolve("left", f, g, ea, sl), h, eb, sl)
            for _ in range(10):
                arg, probe = rng.choice(ids), rng.choice(ids)
                assert multiplier_eq(lhs.basis_multiplier(arg), rhs.basis_multiplier(arg),
                                     (probe,)).ok
                count += 1
        for _ in range(5):
            f = span_map(alg, rng, ids)
            eb = alg.basis_element(rng.choice(ids))
            ec = alg.basis_element(rng.choice(ids))
            alpha = conv_unit(alg, b.epsilon, eb)
            lhs = convolve("right", alpha, f, ec, sl)
            rhs = target_frame(source_twist(f, left=ec), left=eb)
            for _ in range(10):
                arg, probe = rng.choice(ids), rng.choice(ids)
                assert multiplier_eq(lhs.basis_multiplier(arg), rhs.basis_multiplier(arg),
                                     (probe,)).ok
                count += 1
        assert count == 100
    finish(t0, 30.0, "twisted convolution: associativity + unitality on 100 seeded probes x 4 examples")


def test_monoidal_instances_for_gallery_bialgebras():
    """Associator and unit-constraint linearity for {A, A (x) A}, and a
    doubled counit breaks the left unit with a witness."""
    t0 = time.perf_counter()
    # the deepest triple has six tensor leaves, so oracle decomposition
    # searches must reach 6 x window: window 1 with expansion 6
    cases = [(kfun_cyclic(2), None, 2), (kfun_cyclic(3), None, 2),
             (kfin_Z(), 1, 6), (kfin_N(), 1, 6)]
    for entry, window, expansion in cases:
        b = entry.bialgebra
        reg = regular_module(b.algebra)
        sl = b.slicer(window, expansion)
        sq = tensor_module_action(sl, reg, reg)
        verdicts = check_monoidal_instance(sl, b.epsilon, b.counit_witness, [reg, sq])
        assert [v.axiom for v in verdicts] == [
            "monoidal associator", "monoidal right unit", "monoidal left unit",
            "tensor extension instance"]
        assert all(v.ok for v in verdicts), entry.name
    b = kfun_cyclic(2).bialgebra
    doubled = Counit(b.algebra, {0: QQ.coerce(2), 1: QQ.zero})
    verdicts = {v.axiom: v for v in check_monoidal_instance(
        b.slicer(), doubled, b.counit_witness, [regular_module(b.algebra)])}
    assert verdicts["monoidal left unit"].status == "failed"
    assert verdicts["monoidal left unit"].witness is not None
    finish(t0, 30.0, "monoidal instances pass for {A, A(x)A}; doubled eps fails the left unit")


def test_reports_are_byte_identical_across_same_seed_runs():
    """Two runs of every report-producing command agree byte for byte."""
    t0 = time.perf_counter()
    commands = [
        ["classify", "gallery:kfun_cyclic(4)", "--seed", "11"],
        ["classify", "gallery:nand_delta", "--seed", "11"],
        ["check-hopf", "gallery:kfin_Z", "--window", "3", "--seed", "11"],
        ["check-comodule", "gallery:kfun_cyclic(2)", "--seed", "11"],
        ["synthesize-antipode", "gallery:kfin_Z", "--window", "2", "--seed", "11"],
        ["synthesize-counit", "gallery:kfun_cyclic(3)", "--seed", "11"],
    ]
    for argv in commands:
        rc1, out1, _ = run_cli(argv + ["--report", "json"])
        rc2, out2, _ = run_cli(argv + ["--report", "json"])
        assert rc1 == rc2
        assert out1.encode() == out2.encode(), argv
    finish(t0, 60.0, "same-seed reruns of 6 report commands are byte-identical")
