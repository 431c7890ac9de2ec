import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from mulhopf import linalg
from mulhopf.fields import GF, QQ
from mulhopf.linalg import (GaussianSolver, SparseMatrix, kernel_basis,
                            solve_linear, vec_add, vec_axpy, vec_bilinear,
                            vec_canonical)


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


class _Key:
    """A basis id that counts its hashes: every dict or set lookup costs one."""

    hashes = 0

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        _Key.hashes += 1
        return self.n

    def __eq__(self, other):
        return self.n == other.n


@pytest.mark.parametrize("n_x, n_y, n_meets, bound", [
    (40, 40, 1, 600),  # y dense, one partner each: the pairs that meet, not all 1,600
    (1, 1, 400, 20),  # 400 partners, one y-term: y's terms, not the partner table
])
def test_bilinear_sums_look_up_meeting_pairs_only(n_x, n_y, n_meets, bound):
    keys = [_Key(n) for n in range(max(n_x, n_y, n_meets))]
    x = {k: QQ.coerce(k.n + 1) for k in keys[:n_x]}
    y = {k: QQ.coerce(2 * k.n + 1) for k in reversed(keys[:n_y])}
    meets = {i: frozenset(keys[i.n:i.n + n_meets]) for i in x}

    def table(i, j):
        return {i: QQ.one} if j in meets[i] else {}

    plain = vec_bilinear(QQ, x, y, table)
    _Key.hashes = 0
    filtered = vec_bilinear(QQ, x, y, lambda i, j: {i: QQ.one}, meets)
    assert _Key.hashes <= bound
    assert list(filtered.items()) == list(plain.items()) != []


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


# --- reach-driven solves against the full replay ---------------------------


class ReplaySolver:
    """The full-replay factorization: every solve replays the whole log.

    Kept verbatim as the reference the reach-driven ``GaussianSolver``
    must match, values and key order included.
    """

    def __init__(self, matrix: SparseMatrix):
        self.matrix = matrix
        self.field = field = matrix.field
        self._row_index = {r: i for i, r in enumerate(matrix.rows)}
        self._col_keys = matrix.cols
        m = len(matrix.rows)
        rows = [dict() for _ in range(m)]
        for (r, c), v in matrix.entries.items():
            rows[self._row_index[r]][c] = v
        # forward elimination, columns in declared order, first nonzero pivot
        self._ops: list = []
        self._pivots: list = []  # (col_key, row_idx) in elimination order
        rank = 0
        for c in self._col_keys:
            pivot_row = None
            for i in range(rank, m):
                if rows[i].get(c):
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            if pivot_row != rank:
                rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
                self._ops.append(("swap", rank, pivot_row))
            prow = rows[rank]
            pval = prow[c]
            for i in range(rank + 1, m):
                f = rows[i].get(c)
                if not f:
                    continue
                factor = field.neg(field.div(f, pval))
                self._ops.append(("axpy", i, rank, factor))
                vec_axpy(field, rows[i], prow, factor)
            self._pivots.append((c, rank))
            rank += 1
        self._rows = rows
        self.rank = rank
        pivot_cols = {c for c, _ in self._pivots}
        self.free_cols = tuple(c for c in self._col_keys if c not in pivot_cols)

    def _reduced_rhs(self, b: dict):
        field = self.field
        idx = self._row_index
        vec: dict = {}
        for rkey, v in b.items():
            if not v:
                continue
            i = idx.get(rkey)
            if i is None:
                return None  # support outside the row space: unsolvable
            vec[i] = v
        for op in self._ops:
            if op[0] == "swap":
                _, i, j = op
                vi, vj = vec.get(i), vec.get(j)
                if vj is None:
                    vec.pop(i, None)
                else:
                    vec[i] = vj
                if vi is None:
                    vec.pop(j, None)
                else:
                    vec[j] = vi
            else:
                _, i, r, factor = op
                vr = vec.get(r)
                if vr:
                    vec_add(field, vec, i, field.mul(factor, vr))
        return vec

    def solve(self, b: dict):
        """Particular solution with free coordinates 0, or None."""
        field = self.field
        vec = self._reduced_rhs(b)
        if vec is None:
            return None
        if any(i >= self.rank for i in vec):
            return None  # inconsistent
        x: dict = {}
        for c, i in reversed(self._pivots):
            row = self._rows[i]
            acc = vec.get(i, field.zero)
            for cc, vv in row.items():
                if cc == c:
                    continue
                xc = x.get(cc)
                if xc:
                    acc = field.sub(acc, field.mul(vv, xc))
            if acc:
                x[c] = field.div(acc, row[c])
        return x

    def kernel_basis(self):
        """One basis vector per free column, in column order."""
        field = self.field
        basis = []
        for f in self.free_cols:
            v = {f: field.one}
            for c, i in reversed(self._pivots):
                row = self._rows[i]
                acc = field.zero
                for cc, vv in row.items():
                    if cc == c:
                        continue
                    xc = v.get(cc)
                    if xc:
                        acc = field.add(acc, field.mul(vv, xc))
                if acc:
                    v[c] = field.neg(field.div(acc, row[c]))
            basis.append(v)
        return basis


F7 = GF(7)


@strat.composite
def sparse_systems(draw):
    """(field, row order, column order, entries, right-hand sides).

    Rows and columns come in shuffled order, so pivoting swaps rows; some
    right-hand sides are images M x (consistent), the rest are drawn freely,
    with keys up to two past the last row (outside the rows).
    """
    field = draw(strat.sampled_from([QQ, F7]))
    scalars = (strat.fractions(min_value=-3, max_value=3, max_denominator=4)
               if field is QQ else strat.integers(0, 6)).map(field.coerce)
    m, n = draw(strat.integers(0, 7)), draw(strat.integers(0, 7))
    rows = draw(strat.permutations(range(m)))
    cols = draw(strat.permutations(range(n)))
    cells = strat.tuples(strat.integers(0, max(m - 1, 0)), strat.integers(0, max(n - 1, 0)))
    entries = draw(strat.dictionaries(cells, scalars, max_size=m * n)) if m and n else {}
    matrix = SparseMatrix(field, rows, cols, entries)
    images = [matrix.apply(x) for x in draw(strat.lists(
        strat.dictionaries(strat.sampled_from(cols), scalars), max_size=3))] if n else []
    free = draw(strat.lists(strat.dictionaries(strat.integers(0, m + 1), scalars,
                                               max_size=4), max_size=3))
    return field, rows, cols, entries, images + free


def _items(v):
    return None if v is None else [(k, type(c), c) for k, c in v.items()]


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
@example((QQ, [], [], {}, [{}, {0: Fraction(1)}]))  # empty matrix
@example((QQ, [0, 1], [0, 1], {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2},
          [{0: Fraction(3), 1: Fraction(5)}, {0: Fraction(3), 1: Fraction(6)}]))  # rank 1
@example((F7, [1, 0], [1, 0], {(0, 1): 3, (1, 1): 5, (1, 0): 2},
          [{0: 1, 2: 0}, {3: 4}]))  # swap; zero and non-zero keys outside the rows
def test_reach_solves_equal_the_full_replay(system):
    field, rows, cols, entries, rhss = system
    matrix = SparseMatrix(field, rows, cols, {rc: field.coerce(v) for rc, v in entries.items()})
    new, ref = GaussianSolver(matrix), ReplaySolver(matrix)
    assert (new.rank, new.free_cols) == (ref.rank, ref.free_cols)
    assert [_items(v) for v in new.kernel_basis()] == [_items(v) for v in ref.kernel_basis()]
    for b in rhss:
        assert _items(new.solve(b)) == _items(ref.solve(b))


def _block_diagonal(n, block):
    """n x n over Q: blocks [[1]] (block 1) or [[1, 1], [1, 2]] (block 2)."""
    entries = {}
    for j in range(0, n, block):
        entries[(j, j)] = 1
        if block == 2:
            entries.update({(j, j + 1): 1, (j + 1, j): 1, (j + 1, j + 1): 2})
    return SparseMatrix(QQ, range(n), range(n), {rc: QQ.coerce(v) for rc, v in entries.items()})


def _lines_run_in_linalg(fn) -> int:
    """How many Python lines of linalg.py ``fn()`` executes: a count, not a time."""
    count = 0

    def trace(frame, event, _arg):
        nonlocal count
        if frame.f_code.co_filename != linalg.__file__:
            return None
        count += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("block", [1, 2], ids=["diagonal", "2x2-blocks"])
def test_a_one_entry_solve_reads_only_the_pivots_it_reaches(block):
    # a one-entry right-hand side reaches one block: one elimination list and
    # one or two U rows whatever the size, so the work is the same at 16 and
    # 256 columns (a full replay walks every pivot: 16x more lines at 256)
    def lines(n):
        matrix, b = _block_diagonal(n, block), {n // 2: QQ.one}
        solver = GaussianSolver(matrix)
        assert solver.solve(b) == ReplaySolver(matrix).solve(b)
        return _lines_run_in_linalg(lambda: solver.solve(b))

    assert lines(256) == lines(16)


@pytest.mark.parametrize("block", [1, 2], ids=["diagonal", "2x2-blocks"])
def test_factoring_costs_its_nonzeros_not_rows_times_columns(block):
    # 16x the columns and nonzeros: a column-indexed elimination runs about
    # 16x the lines; a scan of every unpivoted row per column runs over 100x
    def lines(n):
        matrix = _block_diagonal(n, block)
        return _lines_run_in_linalg(lambda: GaussianSolver(matrix))

    assert lines(256) <= 20 * lines(16)


def first_nonzero_row_elimination(matrix: SparseMatrix):
    """Pivots (col, row), each pivot's L targets and the U rows, found by
    scanning every unpivoted row in position order for each column."""
    field = matrix.field
    index = {r: i for i, r in enumerate(matrix.rows)}
    rows = [dict() for _ in matrix.rows]
    for (r, c), v in matrix.entries.items():
        rows[index[r]][c] = v
    order, pivots, lower = list(range(len(rows))), [], []
    for c in matrix.cols:
        rank = len(pivots)
        hits = [pos for pos in range(rank, len(order)) if rows[order[pos]].get(c)]
        if not hits:
            continue
        order[rank], order[hits[0]] = order[hits[0]], order[rank]
        p = order[rank]
        targets = []
        for t in order[rank + 1:]:
            f = rows[t].get(c)
            if f:
                factor = field.neg(field.div(f, rows[p][c]))
                targets.append((t, factor))
                vec_axpy(field, rows[t], rows[p], factor)
        pivots.append((c, p))
        lower.append(targets)
    upper = [(c, p, rows[p][c], tuple((k, v) for k, v in rows[p].items() if k != c))
             for c, p in pivots]
    return pivots, lower, upper


@strat.composite
def cancelling_systems(draw):
    """Rows that are small combinations of two or three seed rows with 0/1
    entries, in shuffled row and column order: an elimination step often
    cancels an entry a row held, so a row leaves a column mid-elimination."""
    field = draw(strat.sampled_from([QQ, F7]))
    n = draw(strat.integers(1, 6))
    seeds = draw(strat.lists(strat.lists(strat.integers(0, 1), min_size=n, max_size=n),
                             min_size=2, max_size=3))
    mixes = draw(strat.lists(strat.lists(strat.integers(-1, 2), min_size=len(seeds),
                                         max_size=len(seeds)), min_size=2, max_size=7))
    entries = {}
    for i, mix in enumerate(mixes):
        for j in range(n):
            v = sum(a * row[j] for a, row in zip(mix, seeds))
            if v:
                entries[(i, j)] = field.coerce(v)
    rows = draw(strat.permutations(range(len(mixes))))
    return SparseMatrix(field, rows, draw(strat.permutations(range(n))), entries)


@settings(max_examples=200, deadline=None)
@given(cancelling_systems())
# row 1 loses column 1 when row 0 clears column 0; row 2 must then pivot on
# column 1, where a stale column index would still offer row 1 first
@example(SparseMatrix(QQ, [0, 1, 2], [0, 1, 2], {
    (0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1, (2, 1): 1}))
def test_factoring_pivots_as_the_first_nonzero_row_scan(matrix):
    solver = GaussianSolver(matrix)
    pivots, lower, upper = first_nonzero_row_elimination(matrix)
    assert [(c, p) for c, p, _, _ in solver._upper] == pivots
    assert [solver._lower[p][2] for _, p in pivots] == lower
    assert solver._upper == upper
    assert sum(v is not None for v in solver._lower) == solver.rank == len(pivots)


def test_substitution_checks_raise_on_a_planted_wrong_answer(monkeypatch):
    M = mat(QQ, [[2, 1], [1, 3]])
    monkeypatch.setattr(GaussianSolver, "solve", lambda self, b: {0: QQ.one})
    with pytest.raises(ArithmeticError, match="substitution"):
        solve_linear(M, {0: QQ.coerce(5), 1: QQ.coerce(10)})
    monkeypatch.setattr(GaussianSolver, "kernel_basis", lambda self: [{0: QQ.one}])
    with pytest.raises(ArithmeticError, match="substitution"):
        kernel_basis(M)


def test_substitution_checks_survive_python_dash_o():
    # -O strips assert statements; the checks must not be asserts
    code = ("from mulhopf.linalg import GaussianSolver, SparseMatrix, solve_linear\n"
            "from mulhopf.fields import QQ\n"
            "GaussianSolver.solve = lambda self, b: {0: QQ.one}\n"
            "M = SparseMatrix(QQ, [0], [0], {(0, 0): QQ.coerce(2)})\n"
            "try:\n    solve_linear(M, {0: QQ.one})\n"
            "except ArithmeticError:\n    print('caught')\n")
    src = str(Path(linalg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "caught\n"
