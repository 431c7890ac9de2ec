"""``linalg.PairSpan``, ``Algebra.regular_solver`` and the unital certificate
against the code they replace.

Each reference below is an earlier decomposition loop or solver, kept
verbatim but for its name, so the one owner of each decision can be
compared with every former copy on values and key order.
"""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from mulhopf import specfile
from mulhopf.algebra import Element, regular_module, tensor_algebra
from mulhopf.extension import TensorExtension, identity_extension
from mulhopf.fields import GF, QQ
from mulhopf.gallery import kfin_Z, kfun_cyclic, rowalg2
from mulhopf.linalg import GaussianSolver, PairSpan, SparseMatrix, pair_columns, vec_axpy
from mulhopf.multiplier import (MultiplierSpace, basis_image, iota, iota_element,
                                iota_preimage, unital_certificate)

from fixtures import random_algebra
from test_unital import CASES

GOLDEN = Path(__file__).parent / "golden"


# --- the three former pair-span loops --------------------------------------


def old_sweedler_decompose(alg, elem, ids):
    """Algebra.product_span + sweedler_decompose, left ids = ids."""
    cols = []
    for i in ids:
        for j in ids:
            prod = alg.mul_basis(i, j)
            if not prod.is_zero():
                cols.append(((i, j), prod.coeffs))
    span = GaussianSolver(SparseMatrix.from_columns(alg.field, cols))
    sol = span.solve(elem.coeffs)
    if sol is None:
        return None
    key = alg.sort_key
    return [(c, i, j) for (i, j), c in
            sorted(sol.items(), key=lambda kv: (key(kv[0][0]), key(kv[0][1])))]


def old_module_decompose(module, m, m_ids, a_ids):
    """ModuleStructure.action_span + decompose."""
    cols = []
    for mi in m_ids:
        for aj in a_ids:
            hit = module.act_basis(mi, aj)
            if not hit.is_zero():
                cols.append(((mi, aj), hit.coeffs))
    span = GaussianSolver(SparseMatrix.from_columns(module.space.field, cols))
    sol = span.solve(m.coeffs)
    if sol is None:
        return None
    mkey, akey = module.space.sort_key, module.algebra.sort_key
    return [(c, mi, aj) for (mi, aj), c in
            sorted(sol.items(), key=lambda kv: (mkey(kv[0][0]), akey(kv[0][1])))]


def old_extension_decompose(ext, a, side):
    """Extension._span + _decompose over the extension's own columns."""
    span = GaussianSolver(SparseMatrix.from_columns(ext.target.field, ext._columns(side)))
    sol = span.solve(a.coeffs)
    if sol is None:
        return None
    skey, tkey = ext.source.sort_key, ext.target.sort_key
    return [(c, i, j) for (i, j), c in
            sorted(sol.items(), key=lambda kv: (skey(kv[0][0]), tkey(kv[0][1])))]


def targets(space, ids, seed):
    """Every basis element, then seeded combinations of two and three of them."""
    rng = random.Random(seed)
    out = [space.basis_element(i) for i in ids]
    for k in (2, 3) * 4:
        picks = rng.sample(list(ids), min(k, len(ids)))
        out.append(space.element({i: rng.randint(-3, 3) or 1 for i in picks}))
    return out


def algebras():
    yield kfun_cyclic(4).algebra
    yield kfun_cyclic(4, field=GF(7)).algebra
    yield rowalg2().algebra  # idempotency fails: some decompositions are None
    for seed in range(5):
        yield random_algebra(seed)


@pytest.mark.parametrize("alg", list(algebras()), ids=lambda a: a.name)
def test_products_and_regular_modules_decompose_as_before(alg):
    ids = alg.basis.ids
    module = regular_module(alg)
    for k, x in enumerate(targets(alg, ids, 1)):
        want = old_sweedler_decompose(alg, x, ids)
        assert alg.product_span(ids).decompose(x.coeffs) == want, k
        # products of the algebra decompose too
        y = x * alg.basis_element(ids[k % len(ids)])
        assert alg.product_span(ids).decompose(y.coeffs) == \
            old_sweedler_decompose(alg, y, ids)
        assert module.decompose(x, ids, ids) == old_module_decompose(module, x, ids, ids)


def extensions():
    z = kfin_Z(window=2).bialgebra
    yield pytest.param(z.delta, id="kfin_Z-w2-Delta")
    yield pytest.param(TensorExtension(identity_extension(z.algebra, window=2), z.delta),
                       id="kfin_Z-w2-id(x)Delta")
    b = kfun_cyclic(3, field=GF(7)).bialgebra
    yield pytest.param(TensorExtension(b.delta, identity_extension(b.algebra)),
                       id="kfun_cyclic3-F7-Delta(x)id")


@pytest.mark.parametrize("ext", list(extensions()))
def test_extension_decompositions_are_the_former_ones(ext):
    found = 0
    for x in targets(ext.target, ext.target_ids, 2):
        for side in ("left", "right"):
            want = old_extension_decompose(ext, x, side)
            assert ext.decompose(x, side) == want, (side, x)
            found += want is not None
    assert found > 0


def test_pair_columns_skip_zero_hits_with_the_outer_id_first():
    hit = {(0, "a"): {"r": 1}, (1, "b"): {"s": 2}}
    got = pair_columns((1, 0), ("a", "b"), lambda i, j: hit.get((i, j), {}))
    assert got == [((1, "b"), {"s": 2}), ((0, "a"), {"r": 1})]
    span = PairSpan(QQ, got, outer_key=lambda i: i, inner_key=str)
    assert span.decompose({"r": 3, "s": 4}) == [(3, 0, "a"), (2, 1, "b")]
    assert span.decompose({"t": 1}) is None


# --- the three former regular-representation solvers -----------------------


def old_finite_iota_solver(alg):
    """multiplier._finite_iota_solver, without the attribute cache."""
    ids = alg.basis.ids
    cols = []
    for t in ids:
        col: dict = {}
        for w in ids:
            for r, v in alg.mul_basis(t, w).coeffs.items():
                col[("L", w, r)] = v
            for r, v in alg.mul_basis(w, t).coeffs.items():
                col[("R", w, r)] = v
        cols.append((t, col))
    return GaussianSolver(SparseMatrix.from_columns(alg.field, cols))


def old_derive_rho(T, lam_table, what="delta"):
    """specfile.derive_rho with its own (y, r)-keyed solver."""
    ids = list(T.basis.ids)
    cols = []
    for t in ids:
        col = {}
        for y in ids:
            for r, v in T.mul_basis(t, y).coeffs.items():
                col[(y, r)] = v
        cols.append((t, col))
    solver = GaussianSolver(SparseMatrix.from_columns(T.field, cols))
    if solver.free_cols:
        raise ValueError(f"{what} table cannot be completed")
    frames = [(y, Element(T, lam_table[y])) for y in ids if lam_table.get(y)]
    rho = {}
    for p in ids:
        rhs = {}
        for y, m_y in frames:
            prod = T.basis_element(p) * m_y
            for r, v in prod.coeffs.items():
                rhs[(y, r)] = v
        sol = solver.solve(rhs)
        if sol is None:
            raise ValueError(f"{what} table is not a two-sided multiplier")
        rho[p] = {t: c for t, c in sol.items() if c}
    return rho, solver


def old_unital_certificate(alg, lam, rho=None):
    """multiplier.unital_certificate with one element product per basis id."""
    u = alg.verified_unit if alg.finite else None
    if u is None:
        return None
    acc: dict = {}
    for bid, k in u.coeffs.items():
        image = lam(bid).coeffs
        if image:
            vec_axpy(alg.field, acc, image, k)
    c = Element(alg, acc)
    for y in alg.basis.ids:
        ey = alg.basis_element(y)
        if lam(y) != c * ey or (rho is not None and rho(y) != ey * c):
            return None
    return c


def old_iota_rank(alg):
    """MultiplierSpace.table_vector + iota_rank."""
    def table_vector(x):
        vec: dict = {}
        for j in alg.basis.ids:
            for i, v in basis_image(x, "left", j).items():
                vec[("L", i, j)] = v
            for i, v in basis_image(x, "right", j).items():
                vec[("R", i, j)] = v
        return vec

    cols = [(bid, table_vector(iota(alg, alg.basis_element(bid))))
            for bid in alg.basis.ids]
    return GaussianSolver(SparseMatrix.from_columns(alg.field, cols)).rank


def pivots(solver):
    """(pivot column, pivot row index) in elimination order, and the free columns."""
    return [u[:2] for u in solver._upper], solver.free_cols


def iota_rhs(alg, z):
    """The right-hand side iota_preimage solves for a finite algebra."""
    rhs: dict = {}
    for w in alg.basis.ids:
        ew = alg.basis_element(w)
        for r, v in z.apply("left", ew).coeffs.items():
            rhs[("L", w, r)] = v
        for r, v in z.apply("right", ew).coeffs.items():
            rhs[("R", w, r)] = v
    return rhs


@pytest.mark.parametrize("alg", list(algebras()), ids=lambda a: a.name)
def test_iota_solves_and_rank_are_the_former_ones(alg):
    old, new = old_finite_iota_solver(alg), alg.regular_solver()
    assert new is alg.regular_solver()  # cached per sides
    assert pivots(new) == pivots(old)
    space = MultiplierSpace(alg)
    ids = alg.basis.ids
    zs = list(space.basis) + [iota(alg, x) for x in targets(alg, ids, 3)]
    zs.append(zs[0] * zs[-1])
    for z in zs:
        rhs = iota_rhs(alg, z)
        want = old.solve(rhs)
        got = new.solve(rhs)
        assert (None if got is None else list(got.items())) == \
            (None if want is None else list(want.items()))
        pre = iota_preimage(alg, z)
        assert (pre is None) == (want is None)
        if pre is not None:
            assert list(pre.coeffs.items()) == [(k, v) for k, v in want.items() if v]
    assert alg.regular_solver().rank == old_iota_rank(alg)


def test_derive_rho_on_the_rescaled_square_is_the_former_one(monkeypatch):
    calls = []
    real = specfile.derive_rho

    def recorded(T, lam_table, what="delta"):
        out = real(T, lam_table, what)
        calls.append((T, lam_table, out))
        return out

    monkeypatch.setattr(specfile, "derive_rho", recorded)
    spec = specfile.parse_spec((GOLDEN / "rescaled_z6.spec").read_text(encoding="utf-8"))
    bundle = specfile.build_bundle(spec)
    T = tensor_algebra(bundle.algebra, bundle.algebra)
    assert len(calls) == 6 and all(t is T for t, _, _ in calls)
    for _, lam_table, m in calls:
        want, solver = old_derive_rho(T, lam_table)
        assert [(p, list(basis_image(m, "right", p).items())) for p in T.basis.ids] == \
            [(p, list(r.items())) for p, r in want.items()]
        # the ("L", y, r) rows sort as the (y, r) rows did: the same pivots
        assert pivots(T.regular_solver(sides=("L",))) == pivots(solver)


# --- the unital certificate: one pass over the partner table ----------------


def planted(alg, rule, y0):
    """``rule`` with e_y0 added to its value at y0: a miss at one basis id."""
    return lambda y: rule(y) + alg.basis_element(y0) if y == y0 else rule(y)


def certificates_agree(alg, lam, y0):
    """The left certificate and the per-id reference agree on ``lam`` and on
    a planted miss; returns the certified c (or None) of the true ``lam``."""
    outcomes = []
    for rule in (lam, planted(alg, lam, y0)):
        got = unital_certificate(alg, lambda y, rule=rule: rule(y).coeffs)
        want = old_unital_certificate(alg, rule)
        assert (None if got is None else list(got.coeffs.items())) == \
            (None if want is None else list(want.coeffs.items()))
        outcomes.append(got)
    return outcomes[0]


def derive_rho_is_the_product_table(T, c):
    """derive_rho on the table of c e_y is iota(c): its right action is (e_p c)
    item for item."""
    lam_table = {y: (c * T.basis_element(y)).coeffs for y in T.basis.ids}
    m = specfile.derive_rho(T, lam_table)
    got = iota_element(m)
    assert got == c
    assert [(p, list(basis_image(m, "right", p).items())) for p in T.basis.ids] == \
        [(p, list((T.basis_element(p) * got).coeffs.items())) for p in T.basis.ids]


@pytest.mark.parametrize("case", list(CASES))
def test_the_certificate_pass_is_the_per_id_certificate(case):
    ext = CASES[case]()
    T, rng = ext.target, random.Random(case)
    for i in ext.source_ids:
        m = ext.basis_multiplier(i)
        c = certificates_agree(T, lambda y: Element(T, basis_image(m, "left", y)),
                               rng.choice(T.basis.ids))
        assert c is not None
        derive_rho_is_the_product_table(T, c)
    assert T._mul_cache == {}  # nothing cached per pair of pair ids


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(seed=strat.integers(0, 40), miss=strat.integers(0, 15),
       terms=strat.lists(strat.tuples(strat.integers(0, 15), strat.integers(-3, 3)),
                         min_size=1, max_size=4))
@example(seed=2, miss=0, terms=[(0, 1), (15, -2)])  # diagonal: commutative
@example(seed=0, miss=3, terms=[(0, 1), (15, -2)])  # all 2x2 matrices: not commutative
def test_the_certificate_pass_on_random_unital_algebras(field, seed, miss, terms):
    A = random_algebra(seed, field=field)  # its unit is solved
    for alg in (A, tensor_algebra(A, A)):
        ids = alg.basis.ids
        c = alg.element({ids[k % len(ids)]: v for k, v in terms})
        lam = lambda y: c * alg.basis_element(y)  # noqa: E731
        assert certificates_agree(alg, lam, ids[miss % len(ids)]) == c
        derive_rho_is_the_product_table(alg, c)
