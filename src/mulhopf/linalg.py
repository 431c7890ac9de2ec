"""Exact sparse linear algebra used by every structural check.

Vectors are plain dicts ``key -> scalar`` in canonical form (no stored
zeros).  ``SparseMatrix`` keeps row and column key orderings explicitly;
all pivoting is deterministic (first nonzero row, columns in declared
order), so solutions and kernel bases are reproducible across runs.

``GaussianSolver`` factors a matrix once and replays the recorded row
operations on each right-hand side, which is what makes the many
decomposition solves against a single product span affordable.
"""

from __future__ import annotations


def vec_canonical(field, data) -> dict:
    return {k: v for k, v in ((k, field.coerce(v)) for k, v in data.items()) if v}


def vec_axpy(field, acc: dict, x: dict, c=None) -> dict:
    """acc += c * x in place (c = 1 when None), dropping entries that cancel.

    The one sparse accumulation rule; hot loops call it once per source
    term with a non-empty image, so the per-entry work stays inline here.
    """
    add, get, zero = field.add, acc.get, field.zero
    if c is None:
        for k, v in x.items():
            s = add(get(k, zero), v)
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    else:
        mul = field.mul
        for k, v in x.items():
            s = add(get(k, zero), mul(c, v))
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    return acc


def vec_add(field, acc: dict, key, val) -> dict:
    """acc[key] += val in place, dropping the entry if it cancels."""
    s = field.add(acc.get(key, field.zero), val)
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)
    return acc


class SparseMatrix:
    """Matrix with explicit row/column key orderings and no stored zeros."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        self.field = field
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.entries = {rc: v for rc, v in entries.items() if v}

    @classmethod
    def from_columns(cls, field, columns, rows=None):
        """Build from ``[(col_key, {row_key: scalar}), ...]``.

        Row order defaults to the sorted union of supports; pass ``rows``
        when a specific ordering (or superset) is wanted.
        """
        entries = {}
        seen = set()
        for ckey, col in columns:
            for rkey, v in col.items():
                if v:
                    entries[(rkey, ckey)] = v
                    seen.add(rkey)
        if rows is None:
            rows = sorted(seen)
        return cls(field, rows, [c for c, _ in columns], entries)

    def column(self, ckey) -> dict:
        return {r: v for (r, c), v in self.entries.items() if c == ckey}

    def apply(self, x: dict) -> dict:
        """Matrix times vector, exact; x keyed by column keys."""
        field = self.field
        out: dict = {}
        for (r, c), v in self.entries.items():
            xc = x.get(c)
            if xc:
                vec_add(field, out, r, field.mul(v, xc))
        return out

    def __repr__(self):
        return f"SparseMatrix({len(self.rows)}x{len(self.cols)}, nnz={len(self.entries)})"


class GaussianSolver:
    """One-shot echelon factorization with replayable right-hand sides."""

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


def solve_linear(matrix: SparseMatrix, b: dict):
    """Exact solution of ``matrix @ x = b`` or None; verified by substitution."""
    x = GaussianSolver(matrix).solve(vec_canonical(matrix.field, b))
    if x is not None:
        got = matrix.apply(x)
        want = vec_canonical(matrix.field, b)
        assert got == want, "substitution check failed"
    return x


def kernel_basis(matrix: SparseMatrix):
    """Deterministic basis of the null space (empty list for trivial kernel)."""
    basis = GaussianSolver(matrix).kernel_basis()
    for v in basis:
        assert not matrix.apply(v), "kernel vector fails substitution"
    return basis
