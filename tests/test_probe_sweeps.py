"""Support-driven probe sweeps give the verdicts of full sweeps.

``multiplier_eq``, ``agrees_on_probes`` and the comodule ``differs`` visit
only the probes that some side's support covers (for ``agrees_on_probes``,
z's or, over a product window, iota(u)'s; a Psi leaf's comes from its
factors').  The reference sweeps below visit every probe on both sides,
as those sweeps did before; each random case, planted mismatches
included, must get the same answer from both, witness and detail too.
Each case is given both as an id tuple and as the product window
(``probe_window``) that lists the same ids in the same i-major order.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as strat

from mulhopf.algebra import (Element, TensorAlgebra, Verdict, Window, probe_window,
                             resolve_window, tensor_algebra)
from mulhopf.comodule import _coassoc_setup
from mulhopf.fields import GF
from mulhopf.gallery import kfin_Z, kfun_cyclic, matfin, rowalg2
from mulhopf.linalg import vec_axpy
from mulhopf.multiplier import (Multiplier, agrees_on_probes, basis_image, combine, iota,
                                multiplier_eq, one, psi_embed, support)

from fixtures import random_algebra, self_comodule


# -- the full sweeps, every probe on both sides ------------------------------


def full_multiplier_eq(x: Multiplier, y: Multiplier, probe_ids) -> Verdict:
    alg, probe_ids = x.alg, tuple(probe_ids)
    label = f"{len(probe_ids)} probes"
    for w in probe_ids:
        for side, text in (("left", "x|>p = {} but y|>p = {}"),
                           ("right", "p<|x = {} but p<|y = {}")):
            hx, hy = basis_image(x, side, w), basis_image(y, side, w)
            if hx != hy:
                return Verdict("multiplier equality", "failed", label,
                               witness=(alg.basis_element(w),),
                               detail=text.format(Element(alg, hx), Element(alg, hy)))
    return Verdict("multiplier equality",
                   "proven" if alg.covers_fully(probe_ids) else "holds_on_window", label)


def full_agrees_on_probes(alg, u: Element, z: Multiplier, probe_ids) -> bool:
    field, product = alg.field, alg.basis_product
    for w in probe_ids:
        for side in ("left", "right"):
            acc: dict = {}
            for i, c in u.coeffs.items():
                hit = product(i, w) if side == "left" else product(w, i)
                if hit:
                    vec_axpy(field, acc, hit, c)
            if acc != basis_image(z, side, w):
                return False
    return True


def full_differs(triple_l, probe_ids):
    def differs(lhs, rhs):
        for p in probe_ids:
            pr = (p[0][0], (p[0][1], p[1]))  # ((i,j),k) -> (i,(j,k))
            for side in ("left", "right"):
                got = {((i, j), k): v for (i, (j, k)), v in basis_image(rhs, side, pr).items()}
                if got != basis_image(lhs, side, p):
                    return triple_l.basis_element(p), side
        return None
    return differs


# -- random multipliers with planted mismatches -------------------------------


def planted(alg, plants) -> Multiplier:
    """A leaf that is zero except at its planted (side, id) -> element."""
    zero = alg.zero()
    return Multiplier(alg, lambda w: plants.get(("left", w), zero),
                      lambda w: plants.get(("right", w), zero), name="planted")


def draw_plants(data, alg, probes, ids=None):
    """Up to three (side, probe) -> element plants; ``ids`` are the targets."""
    ids = ids or probes
    plants = {}
    for _ in range(data.draw(strat.integers(0, 3))):
        n = data.draw(strat.sampled_from([0, len(probes) - 1, len(probes) // 2]))
        side = data.draw(strat.sampled_from(["left", "right"]))
        target = alg.basis_element(data.draw(strat.sampled_from(ids)))
        plants[(side, probes[n])] = target.scale(data.draw(strat.integers(1, 3)))
    return plants


def draw_tree(data, alg, probes, depth=2) -> Multiplier:
    kinds = ["iota", "one", "zero", "planted"] + (["product"] * 3 + ["combine"] if depth else [])
    kind = data.draw(strat.sampled_from(kinds))
    if kind == "iota":
        i, j = (data.draw(strat.sampled_from(probes)) for _ in range(2))
        return iota(alg, alg.basis_element(i) + alg.basis_element(j).scale(2))
    if kind == "one":
        return one(alg)
    if kind == "zero":
        return combine(alg, [])
    if kind == "planted":
        return planted(alg, draw_plants(data, alg, probes))
    if kind == "product":
        return draw_tree(data, alg, probes, depth - 1) * draw_tree(data, alg, probes, depth - 1)
    return combine(alg, [(data.draw(strat.integers(-2, 2)), draw_tree(data, alg, probes, depth - 1))
                         for _ in range(data.draw(strat.integers(1, 3)))])


@lru_cache(maxsize=None)
def algebra_case(k):
    """(algebra, probe tuple): finite unital, finite non-unital, random, oracle,
    and the first 23 of the 48 window-1 probes of (matfin (x) K(Z)) (x) matfin."""
    if k == 0:
        alg = kfun_cyclic(3, field=GF(7)).algebra
    elif k == 1:
        alg = rowalg2().algebra
    elif k == 2:
        alg = random_algebra(3)
    elif k == 3:
        alg = kfin_Z().algebra
        return alg, alg.window_ids(2)
    else:
        return capped_triple(), resolve_window(capped_triple(), 1)[:23]
    return alg, alg.basis.ids


@lru_cache(maxsize=None)
def capped_triple():
    mat = matfin().algebra
    return tensor_algebra(tensor_algebra(mat, kfin_Z().algebra), mat)


def as_window(alg, probes):
    """The product window whose ids are ``probes``; one factor off a tensor algebra."""
    if not isinstance(alg, TensorAlgebra):
        return Window((tuple(probes),))
    window = probe_window(alg, 1, len(probes))
    assert window.factors[0].factors and window.ids == tuple(probes)
    return window


def test_product_windows_flatten_in_the_pair_basis_order():
    # i-major at every level, (((i, j), k) with k fastest), and a cap keeps
    # a prefix; positions index the flattened ids
    alg = capped_triple()
    full, capped = probe_window(alg, 1), probe_window(alg, 1, 23)
    assert full.ids == resolve_window(alg, 1) and full.size == 48
    assert capped.ids == full.ids[:23] and capped.size == 23
    assert capped.ids[3:5] == ((((0, 0), -1), (1, 1)), (((0, 0), 0), (0, 0)))
    (left, right), (mat, z) = capped.factors, capped.factors[0].factors
    assert right.ids == mat.ids == ((0, 0), (0, 1), (1, 0), (1, 1)) and z.ids == (-1, 0, 1)
    # an id tuple that lists such a prefix is read as that product, else as one factor
    assert probe_window(alg, full.ids[:23]) == Window((Window((Window((mat.ids[:2],)), z)),
                                                       right), 23)
    holey = full.ids[:5] + full.ids[6:]
    assert probe_window(alg, holey).factors == (holey,)


@settings(max_examples=300, deadline=None)
@given(strat.data())
def test_multiplier_eq_gives_the_full_sweeps_verdict(data):
    alg, probes = algebra_case(data.draw(strat.integers(0, 4)))
    x = draw_tree(data, alg, probes)
    y = data.draw(strat.sampled_from(["tree", "planted", "same", "zero"]))
    if y == "tree":
        y = draw_tree(data, alg, probes)
    elif y == "planted":
        y = combine(alg, [(1, x), (1, planted(alg, draw_plants(data, alg, probes)))])
    else:
        y = x if y == "same" else combine(alg, [])
    want = full_multiplier_eq(x, y, probes)
    assert multiplier_eq(x, y, probes) == want
    assert multiplier_eq(x, y, as_window(alg, probes)) == want


@settings(max_examples=150, deadline=None)
@given(strat.data())
def test_agrees_on_probes_gives_the_full_sweeps_answer(data):
    alg, probes = algebra_case(data.draw(strat.integers(0, 4)))
    u = alg.zero()
    for _ in range(data.draw(strat.integers(0, 3))):
        u = u + alg.basis_element(data.draw(strat.sampled_from(probes))).scale(
            data.draw(strat.integers(1, 3)))
    kind = data.draw(strat.sampled_from(["iota", "planted", "tree"]))
    if kind == "tree":
        z = draw_tree(data, alg, probes)
    else:
        z = iota(alg, u)
        if kind == "planted":
            z = combine(alg, [(1, z), (1, planted(alg, draw_plants(data, alg, probes)))])
    want = full_agrees_on_probes(alg, u, z, probes)
    assert agrees_on_probes(alg, u, z, probes) == want
    assert agrees_on_probes(alg, u, z, as_window(alg, probes)) == want


@lru_cache(maxsize=None)
def comodule_case(k):
    """The coassociativity set-up of A over itself (rho = Delta)."""
    bundle = kfun_cyclic(3).bialgebra if k == 0 else kfin_Z(window=1).bialgebra
    gamma, dsl = self_comodule(bundle)
    setup = _coassoc_setup(gamma, dsl, 20 if k else None)
    return gamma, dsl, setup


def coassoc_sides(gamma, setup, b, a):
    """check_comodule_coassoc's two sides at the window pair (b, a)."""
    _t, rho_x_id, id_x_delta, frames, *_ = setup
    lifted = id_x_delta.lift(gamma.delta.basis_multiplier(b))
    return rho_x_id.apply(gamma.slice("right", b, a)), lifted * frames[a]


@settings(max_examples=100, deadline=None)
@given(strat.data())
def test_comodule_differs_gives_the_full_sweeps_witness(data):
    gamma, dsl, setup = comodule_case(data.draw(strat.integers(0, 1)))
    triple_l, _r, _i, _f, n_probes, _s, differs = setup
    probes = triple_l.window_ids(gamma.window)[:n_probes]
    b, a = data.draw(strat.sampled_from(gamma.ids)), data.draw(strat.sampled_from(dsl.ids))
    lhs, rhs = coassoc_sides(gamma, setup, b, a)
    pr = tuple((i, (j, k)) for (i, j), k in probes)
    if data.draw(strat.booleans()):
        lhs = combine(triple_l, [(1, lhs), (1, planted(triple_l, draw_plants(
            data, triple_l, probes)))])
    if data.draw(strat.booleans()):
        rhs = combine(rhs.alg, [(1, rhs), (1, planted(rhs.alg, draw_plants(
            data, rhs.alg, pr)))])
    if data.draw(strat.booleans()):
        lhs = combine(triple_l, [])
    assert differs(lhs, rhs) == full_differs(triple_l, probes)(lhs, rhs)


@settings(max_examples=150, deadline=None)
@given(strat.data())
def test_a_products_support_is_where_its_image_is_nonzero(data):
    # not its inner factor's whole support: a sweep of x*y visits only the
    # probes where x*y acts, read alike from an id tuple and its product window
    alg, probes = algebra_case(data.draw(strat.integers(0, 4)))
    z = draw_tree(data, alg, probes) * draw_tree(data, alg, probes)
    for side in ("left", "right"):
        want = {n for n, w in enumerate(probes) if basis_image(z, side, w)}
        assert support(z, side, probes) == want
        assert support(z, side, as_window(alg, probes)) == want


def test_check_comodule_sweeps_only_pairs_where_a_side_acts(capsys, monkeypatch):
    # check-comodule of K(Z) at window 3: the sweeps visit the 474 (position,
    # side) pairs where lhs or rhs acts, where a product given its inner
    # factor's whole support (the frame's) visited 6,370
    from mulhopf import cli, comodule
    real, visited = comodule.sweep, []

    def counted(*pairs):
        for n, side in real(*pairs):
            visited.append(any(basis_image(z, side, p.ids[n]) for z, p in pairs))
            yield n, side

    monkeypatch.setattr(comodule, "sweep", counted)
    assert cli.main(["check-comodule", "gallery:kfin_Z", "--window", "3"]) == 0
    capsys.readouterr()
    assert len(visited) == 474 and all(visited)


# -- pinned plants: a probe one side's support misses, and the last probe ----


def test_a_mismatch_only_one_sides_support_covers_is_found():
    alg = kfin_Z().algebra
    probes = alg.window_ids(2)  # -2 .. 2
    x = iota(alg, alg.basis_element(-2))  # supported on probe -2 only
    y = combine(alg, [(1, x), (1, planted(alg, {("right", 1): alg.basis_element(0)}))])
    # probe 1 sits at position 3, outside x's support and inside y's
    assert support(x, "right", probes) == {0} and 3 in support(y, "right", probes)
    v = multiplier_eq(x, y, probes)
    assert v == full_multiplier_eq(x, y, probes)
    assert (v.witness, v.detail) == ((alg.basis_element(1),), "p<|x = 0 but p<|y = 1*d0")
    u = alg.basis_element(-2)
    assert agrees_on_probes(alg, u, x, probes)
    assert not agrees_on_probes(alg, u, y, probes)


def test_a_mismatch_on_the_last_probe_is_found():
    alg, probes = algebra_case(0)
    last = probes[-1]
    x = iota(alg, alg.basis_element(probes[0]))
    y = combine(alg, [(1, x), (1, planted(alg, {("left", last): alg.basis_element(last)}))])
    assert len(probes) - 1 not in support(x, "left", probes)
    v = multiplier_eq(x, y, probes)
    assert v == full_multiplier_eq(x, y, probes)
    assert v.witness == (alg.basis_element(last),) and v.detail.startswith("x|>p = 0 but")
    assert not agrees_on_probes(alg, alg.basis_element(probes[0]), y, probes)


def test_comodule_differs_finds_a_plant_on_the_last_probe_and_off_support():
    gamma, _dsl, setup = comodule_case(0)
    triple_l, differs = setup[0], setup[-1]
    probes = triple_l.window_ids(None)
    lhs, rhs = coassoc_sides(gamma, setup, 0, 1)
    assert differs(lhs, rhs) is None
    p = probes[-1]
    pr = (p[0][0], (p[0][1], p[1]))
    for side in ("left", "right"):
        # the plant on the right-hand side lies outside the left side's support
        assert len(probes) - 1 not in support(lhs, side, probes)
        bad = combine(rhs.alg, [(1, rhs), (1, planted(rhs.alg, {(side, pr): rhs.alg.basis_element(pr)}))])
        assert differs(lhs, bad) == full_differs(triple_l, probes)(lhs, bad) \
            == (triple_l.basis_element(p), side)


def test_a_product_is_swept_on_its_inner_factors_support():
    # the outer factor iota(d2) is zero on probe d0, the inner one maps d0
    # to d2: the product's image at d0 is d2, on the side the inner one acts
    alg, probes = algebra_case(0)
    d0, d2 = alg.basis_element(0), alg.basis_element(2)
    outer = iota(alg, d2)
    for side, z in (("left", outer * planted(alg, {("left", 0): d2})),
                    ("right", planted(alg, {("right", 0): d2}) * outer)):
        assert 0 not in support(outer, side, probes) and 0 in support(z, side, probes)
        v = multiplier_eq(z, combine(alg, []), probes)
        assert v == full_multiplier_eq(z, combine(alg, []), probes)
        assert v.witness == (d0,) and v.detail == {"left": "x|>p = 1*d2 but y|>p = 0",
                                                   "right": "p<|x = 1*d2 but p<|y = 0"}[side]


# -- Psi leaves over nested tensor algebras -----------------------------------


@lru_cache(maxsize=None)
def tensor_case(k):
    """(A (x) B) (x) C or A (x) (B (x) C) over Q, an oracle factor in each."""
    fin, row, z = kfun_cyclic(3).algebra, rowalg2().algebra, kfin_Z().algebra
    if k == 0:
        return tensor_algebra(tensor_algebra(fin, row), z)
    return tensor_algebra(z, tensor_algebra(row, fin))


def psi_case(k):
    """(tensor algebra, probe tuple): a tensor_case, or the capped matfin triple."""
    if k < 2:
        return tensor_case(k), factor_probes(tensor_case(k))
    return algebra_case(4)


def factor_probes(alg):
    """Every pair of the factors' probes, window 1 on K(Z) (18 on a tensor_case)."""
    if isinstance(alg, TensorAlgebra):
        left, right = (factor_probes(fac) for fac in alg.factors)
        return tuple((i, j) for i in left for j in right)
    return alg.window_ids(1) if not alg.finite else alg.basis.ids


def draw_psi(data, alg, plant):
    """A Psi leaf at every tensor level of ``alg``, trees on the factors, and
    its twin, whose ``plant`` puts planted mismatches into one drawn factor."""
    if not isinstance(alg, TensorAlgebra):
        probes = factor_probes(alg)
        x = draw_tree(data, alg, probes, depth=1)
        return x, (combine(alg, [(1, x), (1, planted(alg, draw_plants(data, alg, probes)))])
                   if plant else x)
    k = data.draw(strat.sampled_from([0, 1]))
    (x, tx), (y, ty) = (draw_psi(data, fac, plant and n == k)
                        for n, fac in enumerate(alg.factors))
    return psi_embed([x, y]), psi_embed([tx, ty])


@settings(max_examples=100, deadline=None)
@given(strat.data())
def test_psi_leaves_give_the_full_sweeps_verdict(data):
    # the product window's support is its factors' supports multiplied out,
    # the id tuple's is read from the factor ids it lists, and a tuple that
    # is no product window (one probe left out) is swept as one factor
    alg, probes = psi_case(data.draw(strat.integers(0, 2)))
    window, holey = as_window(alg, probes), probes[:5] + probes[6:]
    x, twin = draw_psi(data, alg, plant=True)
    for z in (x, twin):  # outside its support a Psi leaf acts as 0
        for side in ("left", "right"):
            covered = support(z, side, window)
            assert support(z, side, probes) == covered
            assert all(not basis_image(z, side, w) for n, w in enumerate(probes)
                       if n not in covered)
    for p in (probes, window, holey):
        assert multiplier_eq(x, twin, p) == full_multiplier_eq(x, twin, p)
    other, _ = draw_psi(data, alg, plant=False)
    for y in (x * other, other * twin, combine(alg, [(1, x), (-1, other)])):
        for p in (probes, window, holey):
            assert multiplier_eq(x, y, p) == full_multiplier_eq(x, y, p)
    u = alg.zero()
    for _ in range(data.draw(strat.integers(0, 3))):
        u = u + alg.basis_element(data.draw(strat.sampled_from(probes)))
    for z in (x, twin, iota(alg, u), combine(alg, [(1, iota(alg, u)), (1, twin)])):
        for p in (probes, window, holey):
            assert agrees_on_probes(alg, u, z, p) == full_agrees_on_probes(alg, u, z, p)


def test_a_plant_only_iota_u_covers_is_found():
    # z = Psi(iota(d1) (x) iota(d1)) acts as 0 on e_(0,0), where u = e_(0,0)
    # does not: only iota(u)'s support covers that probe
    A = kfin_Z().algebra
    T = tensor_algebra(A, A)
    probes = factor_probes(T)
    d1 = iota(A, A.basis_element(1))
    z = psi_embed([d1, d1])
    u = T.basis_element((0, 0))
    n = probes.index((0, 0))
    for side in ("left", "right"):
        assert n not in support(z, side, probes)
    assert not agrees_on_probes(T, u, z, probes)
    assert not full_agrees_on_probes(T, u, z, probes)
    assert agrees_on_probes(T, T.basis_element((1, 1)), z, probes)


def visited_probes(alg, u, z, probes, monkeypatch):
    """The (side, probe) pairs on which ``agrees_on_probes`` forms u e_w or e_w u."""
    calls, real = [], alg.basis_product
    for side in ("left", "right"):  # z's own images, memoised before counting
        support(z, side, probes)

    def product(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(alg, "basis_product", product)
    assert agrees_on_probes(alg, u, z, probes)
    monkeypatch.undo()
    return ({("left", q) for p, q in calls if p in u.coeffs}
            | {("right", p) for p, q in calls if q in u.coeffs})


def test_a_non_tensor_algebra_keeps_the_full_sweep_and_a_tensor_one_prunes(monkeypatch):
    A = kfin_Z().algebra
    probes = A.window_ids(2)
    u = A.basis_element(0)
    full = {(side, w) for w in probes for side in ("left", "right")}
    assert visited_probes(A, u, iota(A, u), probes, monkeypatch) == full
    T = tensor_algebra(A, A)
    probes = factor_probes(T)
    u = T.basis_element((0, 1))
    # u e_w is nonzero only at w = (0, 1), on either side
    assert visited_probes(T, u, iota(T, u), probes, monkeypatch) == {
        ("left", (0, 1)), ("right", (0, 1))}
