import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from mulhopf.fields import GF, QQ
from mulhopf.linalg import (GaussianSolver, SparseMatrix, kernel_basis,
                            solve_linear, vec_add, vec_axpy, vec_canonical)


def mat(field, rows):
    """Dense row lists -> SparseMatrix with integer labels."""
    R = list(range(len(rows)))
    C = list(range(len(rows[0]))) if rows else []
    entries = {(i, j): field.coerce(v)
               for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return SparseMatrix(field, R, C, entries)


def test_solve_2x2_known_answer():
    # 2x + y = 5, x + 3y = 10 has the unique solution (1, 3)
    M = mat(QQ, [[2, 1], [1, 3]])
    sol = solve_linear(M, {0: QQ.coerce(5), 1: QQ.coerce(10)})
    assert sol == {0: Fraction(1), 1: Fraction(3)}


def test_solve_inconsistent_returns_none():
    M = mat(QQ, [[1, 1], [2, 2]])
    assert solve_linear(M, {0: QQ.coerce(3), 1: QQ.coerce(5)}) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    M = mat(QQ, [[1, 1], [2, 2]])
    sol = solve_linear(M, {0: QQ.coerce(3), 1: QQ.coerce(6)})
    assert sol == {0: Fraction(3)}


def test_kernel_of_rank_one_matrix():
    M = mat(QQ, [[1, 1], [2, 2]])
    assert kernel_basis(M) == [{1: Fraction(1), 0: Fraction(-1)}]


def test_kernel_trivial_for_invertible():
    assert kernel_basis(mat(QQ, [[2, 1], [1, 3]])) == []


def test_solver_reports_free_columns():
    G = GaussianSolver(mat(QQ, [[1, 1], [2, 2]]))
    assert G.free_cols == (1,)
    G2 = GaussianSolver(mat(QQ, [[2, 1], [1, 3]]))
    assert G2.free_cols == ()


def test_solver_replays_multiple_rhs():
    G = GaussianSolver(mat(QQ, [[2, 1], [1, 3]]))
    assert G.solve({0: QQ.coerce(5), 1: QQ.coerce(10)}) == {0: Fraction(1), 1: Fraction(3)}
    assert G.solve({0: QQ.coerce(2), 1: QQ.coerce(1)}) == {0: Fraction(1)}
    assert G.solve({}) == {}


def test_solve_over_prime_field():
    F = GF(5)
    M = mat(F, [[2, 1], [1, 1]])
    sol = solve_linear(M, {0: F.coerce(0), 1: F.coerce(1)})
    # 2x + y = 0 and x + y = 1 mod 5: x = 4, y = 2
    assert sol == {0: 4, 1: 2}


def test_matrix_apply_matches_by_hand():
    M = mat(QQ, [[2, 1], [1, 3]])
    assert M.apply({0: QQ.one, 1: QQ.coerce(2)}) == {0: Fraction(4), 1: Fraction(7)}


def test_vec_canonical_drops_zeros():
    assert vec_canonical(QQ, {0: QQ.zero, 1: QQ.coerce(2)}) == {1: Fraction(2)}
    assert vec_canonical(QQ, {}) == {}


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_accumulation_drops_cancelled_keys(field):
    one, minus = field.one, field.neg(field.one)
    acc = vec_axpy(field, {0: one, 1: one}, {0: one, 1: one}, minus)
    assert acc == {}
    assert vec_axpy(field, {0: one}, {0: minus}) == {}
    assert vec_add(field, {0: one, 1: one}, 0, minus) == {1: one}


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_accumulation_matches_a_naive_sum(field):
    rng = random.Random(5)
    acc, dense = {}, [field.zero] * 6
    for step in range(300):
        x = {k: field.random(rng) for k in rng.sample(range(6), 3)}
        c = field.random(rng) if step % 3 else None
        if step % 5 == 0:
            k, v = next(iter(x.items()))
            vec_add(field, acc, k, v)
            dense[k] = field.add(dense[k], v)
        else:
            vec_axpy(field, acc, x, c)
            for k, v in x.items():
                dense[k] = field.add(dense[k], v if c is None else field.mul(c, v))
        assert acc == {k: v for k, v in enumerate(dense) if v}


small_mats = strat.lists(
    strat.lists(strat.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    min_size=2, max_size=4)


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_kernel_vectors_annihilate(rows):
    M = mat(QQ, rows)
    for k in kernel_basis(M):
        assert all(not v for v in M.apply(k).values())


@settings(max_examples=60, deadline=None)
@given(small_mats, strat.lists(strat.integers(min_value=-4, max_value=4),
                               min_size=3, max_size=3))
def test_solutions_verify_when_found(rows, x):
    M = mat(QQ, rows)
    b = M.apply({j: QQ.coerce(v) for j, v in enumerate(x) if v})
    sol = solve_linear(M, b)
    assert sol is not None
    assert vec_canonical(QQ, M.apply(sol)) == vec_canonical(QQ, b)
