import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from mulhopf.algebra import (InputError, WindowInsufficiency,
                             check_associativity, check_idempotent,
                             check_local_units, check_module,
                             check_nondegenerate, finite_algebra,
                             oracle_algebra,
                             regular_module, resolve_window,
                             sweedler_decompose, tensor_algebra, tensor_elem,
                             tensor_module, witness_text)
from mulhopf.extension import identity_extension
from mulhopf.fields import GF, QQ
from mulhopf.gallery import kfin_Z, kfun_cyclic, rowalg2, zero1
from mulhopf.multiplier import iota_element

from fixtures import every_pair_product, random_algebra


def group_algebra_z3():
    return finite_algebra(
        QQ, [0, 1, 2],
        {(i, j): {(i + j) % 3: QQ.one} for i in range(3) for j in range(3)},
        unit={0: QQ.one}, name="k[Z/3]", fmt_id=lambda i: f"g{i}")


def test_finite_algebra_multiplication_table():
    A = group_algebra_z3()
    g1, g2 = A.basis_element(1), A.basis_element(2)
    assert g1 * g2 == A.basis_element(0)
    assert g2 * g2 == g1
    assert A.unit * g1 == g1


def test_element_arithmetic_and_str():
    A = group_algebra_z3()
    x = A.basis_element(0) + A.basis_element(1).scale(QQ.coerce(2))
    assert x.coeffs == {0: QQ.one, 1: QQ.coerce(2)}
    assert str(x) == "1*g0 + 2*g1"
    assert (x - x).is_zero()
    assert str(A.zero()) == "0"


def test_group_algebra_passes_all_algebra_checks():
    A = group_algebra_z3()
    for check in (check_associativity, check_idempotent, check_nondegenerate,
                  check_local_units):
        v = check(A)
        assert v.status == "proven", v


def test_zero1_fails_idempotency_with_witness():
    A = zero1().algebra
    v = check_idempotent(A)
    assert v.status == "failed"
    assert witness_text(v.witness) == "1*z"


def test_rowalg2_fails_nondegeneracy_with_witness():
    # the algebra, its right regular module and its identity extension
    # all find the left annihilator E12; the left regular module has none
    A = rowalg2().algebra
    v = check_nondegenerate(A)
    assert v.status == "failed"
    assert witness_text(v.witness) == "1*E12"
    assert v.detail == "x*a = 0 for every probe a"
    v = check_module(regular_module(A, "right"))["nondegeneracy"]
    assert v.status == "failed" and witness_text(v.witness) == "1*E12"
    assert check_module(regular_module(A, "left"))["nondegeneracy"].status == "proven"
    v = identity_extension(A).validate()[2]
    assert v.axiom == "extension non-degeneracy"
    assert v.status == "failed" and witness_text(v.witness) == "1*E12"
    assert v.detail == "killed by every f(b) on the right"


def test_nonassociative_table_detected():
    # e0*e0 = e1 with e1*e0 = e0 but e0*e1 = 0 breaks (e0 e0) e0 = e0 (e0 e0)
    A = finite_algebra(QQ, ["a", "b"],
                      {("a", "a"): {"b": QQ.one}, ("b", "a"): {"a": QQ.one}},
                      name="skew")
    v = check_associativity(A)
    assert v.status == "failed"
    assert v.witness is not None


def test_tensor_algebra_componentwise_product():
    A = group_algebra_z3()
    AA = tensor_algebra(A, A)
    x = tensor_elem(A.basis_element(1), A.basis_element(2), into=AA)
    y = tensor_elem(A.basis_element(2), A.basis_element(2), into=AA)
    assert x * y == tensor_elem(A.basis_element(0), A.basis_element(1), into=AA)


def test_tensor_algebra_is_cached():
    A = group_algebra_z3()
    assert tensor_algebra(A, A) is tensor_algebra(A, A)


def test_regular_module_checks():
    m = regular_module(group_algebra_z3())
    results = check_module(m)
    assert all(v.status == "proven" for v in results.values())


def test_tensor_module_nondegenerate():
    A = group_algebra_z3()
    t = tensor_module(regular_module(A), regular_module(A))
    results = check_module(t)
    assert all(v.ok for v in results.values())


def test_tensor_square_module_laws_on_seeded_algebras():
    # full three-law pass on a few cheap seeds; wide sweeps use laws=
    for seed in (2, 5, 6, 7):
        A = random_algebra(seed)
        t = tensor_module(regular_module(A), regular_module(A))
        assert all(v.ok for v in check_module(t).values())


def test_check_module_laws_selector():
    m = regular_module(group_algebra_z3())
    only = check_module(m, laws=("nondegeneracy",))
    assert set(only) == {"nondegeneracy"}
    with pytest.raises(InputError):
        check_module(m, laws=("unital",))


def test_oracle_algebra_window_and_products():
    A = kfin_Z().algebra
    assert not A.finite
    ids = resolve_window(A, 2)
    assert ids == (-2, -1, 0, 1, 2)
    d1 = A.basis_element(1)
    assert d1 * d1 == d1
    assert (d1 * A.basis_element(2)).is_zero()


def test_oracle_local_units():
    A = kfin_Z().algebra
    v = check_local_units(A, window=3)
    assert v.ok
    e = A.local_unit((-1, 0, 5))
    for n in (-1, 0, 5):
        dn = A.basis_element(n)
        assert e * dn == dn and dn * e == dn


def test_sweedler_decompose_is_deterministic():
    A = group_algebra_z3()
    x = A.basis_element(1) + A.basis_element(2)
    first = sweedler_decompose(A, x, None)
    second = sweedler_decompose(A, x, None)
    assert first == second
    total = A.zero()
    for c, i, j in first:
        total = total + (A.basis_element(i) * A.basis_element(j)).scale(c)
    assert total == x


def test_resolve_window_rejects_nonsense():
    A = group_algebra_z3()
    assert resolve_window(A, None) == (0, 1, 2)
    assert resolve_window(A, (2, 0)) == (2, 0)
    with pytest.raises(WindowInsufficiency):
        resolve_window(kfin_Z().algebra, None)


@settings(max_examples=25, deadline=None)
@given(strat.integers(min_value=0, max_value=10_000))
def test_random_algebras_keep_their_laws(seed):
    # conjugating a known-good structure by a basis change preserves the laws
    A = random_algebra(seed)
    assert check_associativity(A).status == "proven"
    assert check_idempotent(A).status == "proven"
    assert check_nondegenerate(A).status == "proven"


def sparse_table_algebra(seed):
    """Seeded sparse product table over F_5 on 2-4 ids: mostly zero products,
    so some tables are associative and the rest fail at some triple."""
    rng, F = random.Random(seed), GF(5)
    ids = list(range(rng.randint(2, 4)))
    density = rng.choice((0.15, 0.3, 0.5))
    table = {(i, j): {k: rng.randint(1, 4) for k in rng.sample(ids, rng.randint(1, 2))}
             for i in ids for j in ids if rng.random() < density}
    return finite_algebra(F, ids, table, name=f"sparse[{seed}]")


def reference_associativity(alg):
    """The plain n^3 loop over every triple, in scan order."""
    ids, e = alg.basis.ids, alg.basis_element
    for i in ids:
        for j in ids:
            for k in ids:
                left, right = alg.mul_basis(i, j) * e(k), e(i) * alg.mul_basis(j, k)
                if left != right:
                    return ("failed", (e(i), e(j), e(k)),
                            f"(ei*ej)*ek = {left} but ei*(ej*ek) = {right}")
    return ("proven", None, "")


def test_partner_only_associativity_is_the_full_scan():
    statuses = set()
    for seed in range(60):
        A = sparse_table_algebra(seed)
        v = check_associativity(A)
        assert (v.status, v.witness, v.detail) == reference_associativity(A), seed
        statuses.add(v.status)
    assert statuses == {"proven", "failed"}


@settings(max_examples=10, deadline=None)
@given(strat.integers(min_value=0, max_value=10_000))
def test_random_algebras_over_f7(seed):
    A = random_algebra(seed, field=GF(7))
    assert check_associativity(A).status == "proven"
    assert check_nondegenerate(A).status == "proven"


# --- element products against every term pair ----------------------------


def matrix_units():
    """M_2(Q) on the matrix units, e_ij e_jk = e_ik: not commutative."""
    ids = [f"e{i}{j}" for i in "12" for j in "12"]
    return finite_algebra(QQ, ids, {(f"e{i}{j}", f"e{j}{k}"): {f"e{i}{k}": QQ.one}
                                    for i in "12" for j in "12" for k in "12"})


TENSOR_FACTORS = {
    "kfun_cyclic(3)/F7": lambda: kfun_cyclic(3, field=GF(7)).algebra,
    "rowalg2": lambda: rowalg2().algebra,  # zero products, one-sided units
    "matrix_units": matrix_units,
    **{f"random_algebra({s})/{f.name}": (lambda s=s, f=f: random_algebra(s, field=f))
       for s in range(1, 6) for f in (QQ, GF(7))},
}


@pytest.mark.parametrize("make", TENSOR_FACTORS.values(), ids=TENSOR_FACTORS)
def test_tensor_products_are_the_generic_loop(make):
    A = make()
    T = tensor_algebra(A, A)
    rng, ids, f = random.Random(3), T.basis.ids, T.field
    elems = [T.element({rng.choice(ids): f.coerce(rng.randint(-2, 2)) for _ in range(size)})
             for size in (0, 1, 1, 3, 6, len(ids))]
    # every pair, right factor first, so the left-factor groups interleave
    elems.append(T.element({(i, j): f.one for j in A.basis.ids for i in A.basis.ids}))
    for x in elems:
        for y in elems:
            got, want = x * y, every_pair_product(x, y)
            assert list(got.coeffs.items()) == list(want.coeffs.items())


def test_tensor_products_merge_partner_groups_in_y_order():
    # e11 (x) e11 meets y's four terms, whose left factors alternate e12, e11:
    # products come out in y's order, not grouped as e12, e12, e11, e11
    M = matrix_units()
    T = tensor_algebra(M, M)
    x = T.element({("e11", "e11"): 1})
    y = T.element({("e12", "e11"): 1, ("e11", "e12"): 1, ("e12", "e12"): 1, ("e11", "e11"): 1})
    assert list((x * y).coeffs) == list(every_pair_product(x, y).coeffs) == [
        ("e12", "e11"), ("e11", "e12"), ("e12", "e12"), ("e11", "e11")]


def test_tensor_products_drop_terms_that_cancel():
    M = matrix_units()
    T = tensor_algebra(M, M)
    x = T.element({("e12", "e11"): 1, ("e11", "e11"): 1})
    y = T.element({("e21", "e11"): 1, ("e11", "e11"): -1})
    # (e12 e21) (x) e11 = e11 (x) e11 cancels against -(e11 e11) (x) e11
    assert (x * y).coeffs == {} == every_pair_product(x, y).coeffs
    assert list((y * x).coeffs.items()) == [
        (("e22", "e11"), 1), (("e21", "e11"), 1), (("e12", "e11"), -1), (("e11", "e11"), -1)]


def test_tensor_products_multiply_only_nonzero_factor_pairs(monkeypatch):
    # c_i c_j with Delta(d_i) = iota(c_i) on K(Z/8): 64 x 64 pairs of terms
    # per product, of which only the 8 of each c_i c_i are nonzero
    delta = kfun_cyclic(8).bialgebra.delta
    A, T = delta.source, delta.target
    cs = [iota_element(delta.basis_multiplier(i)) for i in A.basis.ids]
    nonzero = sum(1 for x in cs for y in cs for (i1, j1) in x.coeffs for (i2, j2) in y.coeffs
                  if A.mul_basis(i1, i2).coeffs and A.mul_basis(j1, j2).coeffs)
    want = [every_pair_product(x, y) for x in cs for y in cs]
    assert T.factors == (A, A)
    real, calls = A.basis_product, []
    monkeypatch.setattr(A, "basis_product", lambda i, j: calls.append((i, j)) or real(i, j))
    assert [x * y for x in cs for y in cs] == want
    assert len(calls) == 2 * nonzero == 2 * 64


def test_finite_products_multiply_only_partner_pairs(monkeypatch):
    # e_ij e_kl is nonzero only for j = k: 8 of the 16 term pairs of two
    # elements on all four matrix units
    M = matrix_units()
    x = M.element({i: n for n, i in enumerate(M.basis.ids, 1)})
    y = M.element({i: n for n, i in enumerate(reversed(M.basis.ids), 1)})
    want = every_pair_product(x, y)
    real, calls = M.basis_product, []
    monkeypatch.setattr(M, "basis_product", lambda i, j: calls.append((i, j)) or real(i, j))
    assert list((x * y).coeffs.items()) == list(want.coeffs.items())
    assert calls == [(i, j) for i in x.coeffs for j in y.coeffs if i[2] == j[1]]
    assert len(calls) == 8


# --- the unit: declared, or solved from iota(u) = 1 ---------------------------


@settings(max_examples=80, deadline=None)
@given(data=strat.data())
def test_verified_unit_is_what_a_search_of_every_element_finds(data):
    p, n = data.draw(strat.sampled_from([2, 3])), data.draw(strat.integers(1, 3))
    ids = list(range(n))
    table = {(i, j): {k: data.draw(strat.integers(0, p - 1)) for k in ids}
             for i in ids for j in ids}
    if data.draw(strat.booleans()):  # make e_0 a unit, so that unital tables occur
        table.update({pair: {j: 1} for j in ids for pair in ((0, j), (j, 0))})
    plain = finite_algebra(GF(p), ids, table)
    basis = [plain.basis_element(i) for i in ids]
    every = [plain.element(dict(zip(ids, cs))) for cs in product(range(p), repeat=n)]
    units = [u.coeffs for u in every if all(u * e == e == e * u for e in basis)]
    assert len(units) <= 1
    want = units[0] if units else None
    false = data.draw(strat.sampled_from([u.coeffs for u in every if u.coeffs != want]))
    unit = data.draw(strat.sampled_from([None, false] + units))  # none, a false one, the true one
    got = finite_algebra(GF(p), ids, table, unit=unit).verified_unit
    assert (None if got is None else got.coeffs) == want
