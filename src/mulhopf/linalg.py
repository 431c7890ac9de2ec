"""Exact sparse linear algebra used by every structural check.

Vectors are plain dicts ``key -> scalar`` in canonical form (no stored
zeros).  ``SparseMatrix`` keeps row and column key orderings explicitly;
all pivoting is deterministic (first nonzero row, columns in declared
order), so solutions and kernel bases are reproducible across runs.

``GaussianSolver`` factors a matrix once; each right-hand side then replays
only the part of the elimination its support reaches, so a solve costs
what its own nonzeros touch, not the size of the matrix.  Skipped pivots
would only add exact zeros, so the results, key order included, are those
of replaying the whole elimination.
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


def vec_bilinear(field, x: dict, y: dict, table, meets=None) -> dict:
    """The bilinear extension of a basis rule, x's terms outer and y's inner in insertion order;
    with ``meets``, only the j in ``meets[i]``, found from the smaller of y and ``meets[i]``."""
    mul, acc, pos = field.mul, {}, None
    for i, ci in x.items():
        m = y if meets is None else meets[i]
        if len(y) <= len(m):  # always so without meets
            js = y if m is y else filter(m.__contains__, y)
        elif len(js := [*filter(y.__contains__, m)]) > 1:
            pos = pos or {j: n for n, j in enumerate(y)}
            js.sort(key=pos.__getitem__)
        for j in js:
            prod = table(i, j)
            if prod:
                vec_axpy(field, acc, prod, mul(ci, y[j]))
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
    def from_columns(cls, field, columns):
        """Build from ``[(col_key, {row_key: scalar}), ...]``; rows are the
        sorted union of the supports."""
        entries = {}
        seen = set()
        for ckey, col in columns:
            for rkey, v in col.items():
                if v:
                    entries[(rkey, ckey)] = v
                    seen.add(rkey)
        return cls(field, sorted(seen), [c for c, _ in columns], entries)

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


def _reach(start, successors) -> set:
    """``start`` and every node reachable from it along ``successors``."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for j in successors(stack.pop()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


class GaussianSolver:
    """One-shot echelon factorization; each right-hand side pays for its reach.

    Pivoting is columns in declared order, first nonzero row.  Rows keep
    their original index (a swap is a relabelling); each pivot row stores
    the rows it clears with their factors (L) and its final row (U).
    Factoring keeps, per column, the unpivoted rows holding an entry there,
    updated through fill-in and cancellation, so it costs its nonzeros and
    fill-in, not rows x columns.  A solve follows Gilbert and Peierls
    (SIAM J. Sci. Stat. Comput. 9(5), 1988): forward, only pivot rows
    reachable from b's support through L are applied, in elimination
    order; back, only pivots whose U row reaches a nonzero are solved, in
    decreasing rank.  An unreached pivot would add exact zeros only, so
    values and key order are the full replay's.
    """

    def __init__(self, matrix: SparseMatrix):
        self.field = field = matrix.field
        self._row_index = index = {r: i for i, r in enumerate(matrix.rows)}
        m = len(matrix.rows)
        rows = [dict() for _ in range(m)]
        holders: dict = {}  # col -> unpivoted rows with an entry in it
        for (r, c), v in matrix.entries.items():
            rows[index[r]][c] = v
            holders.setdefault(c, set()).add(index[r])
        order = list(range(m))  # position -> original row
        pos = list(range(m))  # original row -> position
        self._lower = [None] * m  # pivot row -> (rank, row, [(target row, factor)])
        self._upper: list = []  # by rank: (col, row, pivot value, off-diagonal items)
        self._users: dict = {}  # col -> ranks whose U row holds an entry in it
        for c in matrix.cols:
            cands = holders.get(c)
            if not cands:
                continue
            rank = len(self._upper)
            p = min(cands, key=pos.__getitem__)  # the first nonzero row
            q = order[rank]
            order[rank], order[pos[p]], pos[q], pos[p] = p, q, pos[p], rank
            prow = rows[p]
            pval = prow[c]
            for cc in prow:
                holders[cc].discard(p)
            targets = []
            for t in sorted(cands, key=pos.__getitem__):
                factor = field.neg(field.div(rows[t][c], pval))
                targets.append((t, factor))
                row = vec_axpy(field, rows[t], prow, factor)
                for cc in prow:
                    (holders[cc].add if cc in row else holders[cc].discard)(t)
            self._lower[p] = (rank, p, targets)
            upper = tuple((cc, v) for cc, v in prow.items() if cc != c)
            self._upper.append((c, p, pval, upper))
            for cc, _ in upper:
                self._users.setdefault(cc, []).append(rank)
        self.rank = len(self._upper)
        pivot_cols = {u[0] for u in self._upper}
        self.free_cols = tuple(c for c in matrix.cols if c not in pivot_cols)

    def _reduced_rhs(self, b: dict):
        """L^-1 b keyed by original row, or None if b leaves the rows."""
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
        lower = self._lower
        reached = _reach(vec, lambda i: (t for t, _ in lower[i][2]) if lower[i] else ())
        for _, p, targets in sorted(lower[i] for i in reached if lower[i]):
            vp = vec.get(p)
            if vp:
                for t, factor in targets:
                    vec_add(field, vec, t, field.mul(factor, vp))
        return vec

    def _back_substitute(self, x: dict, rhs: dict, start) -> dict:
        """Solve U x = rhs into ``x`` over the pivots reached from ranks ``start``."""
        field = self.field
        sub, mul, zero = field.sub, field.mul, field.zero
        upper, users = self._upper, self._users
        for k in sorted(_reach(start, lambda k: users.get(upper[k][0], ())), reverse=True):
            c, p, pval, row = upper[k]
            acc = rhs.get(p, zero)
            for cc, vv in row:
                xc = x.get(cc)
                if xc:
                    acc = sub(acc, mul(vv, xc))
            if acc:
                x[c] = field.div(acc, pval)
        return x

    def solve(self, b: dict):
        """Particular solution with free coordinates 0, or None."""
        vec = self._reduced_rhs(b)
        if vec is None:
            return None
        lower = self._lower
        start = []
        for i in vec:
            node = lower[i]
            if node is None:
                return None  # inconsistent: a non-pivot row stays nonzero
            start.append(node[0])
        return self._back_substitute({}, vec, start)

    def kernel_basis(self):
        """One basis vector per free column, in column order."""
        one = self.field.one
        return [self._back_substitute({f: one}, {}, self._users.get(f, ()))
                for f in self.free_cols]


def pair_columns(outer, inner, hit) -> list:
    """``[((i, j), hit(i, j)), ...]`` over the nonzero hits, i the outer loop."""
    cols = []
    for i in outer:
        for j in inner:
            h = hit(i, j)
            if h:
                cols.append(((i, j), h))
    return cols


class PairSpan(GaussianSolver):
    """Solver over pair columns (i, j): is b a sum of pair products?

    Idempotency A = A.A, a module's M = M.A and an extension's A = B.A =
    A.B all ask this.  The column order fixes which solution comes out,
    so each caller keeps its own; ``decompose`` lists it by the keys.
    """

    def __init__(self, field, columns, outer_key, inner_key):
        super().__init__(SparseMatrix.from_columns(field, columns))
        self._keys = (outer_key, inner_key)

    def decompose(self, b: dict):
        """``[(c, i, j), ...]`` with b = sum c * column (i, j), or None;
        the pivot-order first solution, sorted by (outer, inner) key."""
        sol = self.solve(b)
        if sol is None:
            return None
        okey, ikey = self._keys
        return [(c, i, j) for (i, j), c in
                sorted(sol.items(), key=lambda kv: (okey(kv[0][0]), ikey(kv[0][1])))]


def solve_linear(matrix: SparseMatrix, b: dict):
    """Exact solution of ``matrix @ x = b`` or None; verified by substitution."""
    x = GaussianSolver(matrix).solve(vec_canonical(matrix.field, b))
    if x is not None and matrix.apply(x) != vec_canonical(matrix.field, b):
        raise ArithmeticError("solution fails substitution")
    return x


def kernel_basis(matrix: SparseMatrix):
    """Deterministic basis of the null space (empty list for trivial kernel)."""
    basis = GaussianSolver(matrix).kernel_basis()
    if any(matrix.apply(v) for v in basis):
        raise ArithmeticError("kernel vector fails substitution")
    return basis
