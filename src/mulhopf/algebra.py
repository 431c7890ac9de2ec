"""Algebras over an exact field, possibly without unit, and their modules.

The objects here are spans of a declared basis.  A basis is either finite
(ids in declaration order) or an oracle: a countable family with a
computable membership test and finite windows ``window_ids(n)``.  Every
check states its verdict relative to the ids it actually inspected:
``proven`` when those ids are the whole (finite) basis, ``holds_on_window``
otherwise, ``failed`` with a witness that re-checks.

Elements are sparse dicts ``basis id -> scalar`` in canonical form.  The
three structural properties that drive everything downstream are checked
here: associativity, idempotency (every element is a sum of products,
with stored decomposition witnesses), and non-degeneracy (no one-sided
annihilators).  Idempotency witnesses double as Sweedler decompositions
``a = sum a1 * a2`` for the multiplier and extension machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product

from .linalg import (
    GaussianSolver, PairSpan, SparseMatrix, pair_columns, vec_axpy, vec_bilinear, vec_canonical,
)


class InputError(ValueError):
    """Malformed user input (unknown basis id, bad window, parse trouble)."""


class WindowInsufficiency(RuntimeError):
    """The requested window cannot support the computation; enlarging may help."""


class InvariantViolation(ValueError):
    """Constructor rejection; carries the verdict whose witness re-checks."""

    def __init__(self, verdict):
        super().__init__(f"{verdict.axiom}: {verdict.detail or 'invariant violated'}")
        self.verdict = verdict


@dataclass(frozen=True)
class Verdict:
    """Outcome of one axiom check on one window."""

    axiom: str
    status: str  # "proven" | "holds_on_window" | "failed"
    window: str
    witness: tuple | None = None
    detail: str = ""

    @property
    def ok(self):
        return self.status != "failed"

    def __str__(self):
        head = f"{self.axiom}: {self.status} [{self.window}]"
        if self.witness is not None:
            head += f" witness={witness_text(self.witness)}"
        if self.detail:
            head += f" ({self.detail})"
        return head


def witness_text(witness) -> str:
    return ", ".join(str(w) for w in witness)


class FiniteBasis:
    finite = True

    def __init__(self, ids):
        self.ids = tuple(ids)
        if len(set(self.ids)) != len(self.ids):
            raise InputError("duplicate basis ids")
        self._index = {b: i for i, b in enumerate(self.ids)}

    def window(self, n=None):
        return self.ids

    def __contains__(self, bid):
        return bid in self._index

    def sort_key(self, bid):
        return self._index[bid]

    def describe(self):
        return f"basis({len(self.ids)})"


class OracleBasis:
    """Countable basis given by a membership test and a window function."""

    finite = False

    def __init__(self, contains, window, describe="oracle"):
        self._contains = contains
        self._window = window
        self._describe = describe
        self._windows: dict = {}

    def window(self, n=None):
        if n is None:
            raise WindowInsufficiency("oracle basis needs an explicit window")
        ids = self._windows.get(n)
        if ids is None:
            ids = self._windows[n] = tuple(self._window(n))
        return ids

    def __contains__(self, bid):
        return self._contains(bid)

    def sort_key(self, bid):
        return bid

    def describe(self):
        return self._describe


class Space:
    """Free k-module on a declared basis; owns element construction."""

    def __init__(self, field, basis, name="V", fmt_id=str):
        self.field = field
        self.basis = basis
        self.name = name
        self.fmt_id = fmt_id

    @property
    def finite(self):
        return self.basis.finite

    def window_ids(self, n=None):
        return self.basis.window(n)

    def covers_fully(self, ids):
        return self.finite and set(ids) == set(self.basis.ids)

    def baseline(self, ids):
        return joint_baseline((self, ids))

    def window_label(self, ids):
        if self.covers_fully(ids):
            return f"full {self.basis.describe()}"
        return f"{len(tuple(ids))} ids of {self.basis.describe()}"

    def zero(self):
        return Element(self, {})

    def basis_element(self, bid):
        if bid not in self.basis:
            raise InputError(f"{bid!r} is not a basis id of {self.name}")
        return Element(self, {bid: self.field.one})

    def element(self, data) -> "Element":
        for bid in data:
            if bid not in self.basis:
                raise InputError(f"{bid!r} is not a basis id of {self.name}")
        return Element(self, vec_canonical(self.field, data))

    def sort_key(self, bid):
        return self.basis.sort_key(bid)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} over {self.field.name}>"


class Element:
    """Sparse vector in a Space; multiplication when the space is an Algebra."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = coeffs

    def is_zero(self):
        return not self.coeffs

    def sorted_items(self):
        key = self.space.sort_key
        return sorted(self.coeffs.items(), key=lambda kv: key(kv[0]))

    def __add__(self, other):
        _same_space(self, other)
        return Element(self.space, vec_axpy(self.space.field, dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        field = self.space.field
        return Element(self.space, {b: field.neg(v) for b, v in self.coeffs.items()})

    def scale(self, scalar):
        field = self.space.field
        scalar = field.coerce(scalar)
        if not scalar:
            return Element(self.space, {})
        return Element(self.space, {b: field.mul(scalar, v) for b, v in self.coeffs.items()})

    def __mul__(self, other):
        alg = self.space
        if not isinstance(alg, Algebra):
            raise InputError(f"{alg.name} is not an algebra")
        _same_space(self, other)
        return alg.element_mul(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.space is self.space
            and other.coeffs == self.coeffs
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __str__(self):
        if not self.coeffs:
            return "0"
        field, fmt = self.space.field, self.space.fmt_id
        return " + ".join(f"{field.format(v)}*{fmt(b)}" for b, v in self.sorted_items())

    __repr__ = __str__


def _same_space(x, y):
    if x.space is not y.space:
        raise InputError(f"elements of {x.space.name} and {y.space.name} do not mix")


class Algebra(Space):
    """Space with a bilinear multiplication given on basis ids.

    ``unit`` is optional (most examples here have none); ``local_unit_for``
    optionally realizes a complete set of local units as a hook mapping a
    window (an id tuple or a ``Window``, iterable alike) to an element acting
    as a two-sided unit on everything supported inside that window.
    """

    def __init__(self, field, basis, mul_rule, unit=None, local_unit_for=None,
                 name="A", fmt_id=str):
        super().__init__(field, basis, name=name, fmt_id=fmt_id)
        self._mul_rule = mul_rule
        self._mul_cache: dict = {}
        self._span_cache: dict = {}
        self._regular: dict = {}
        self._unit_data = unit
        self._local_unit_for = local_unit_for
        self._lu_cache: dict = {}

    @cached_property
    def unit(self):
        """The declared unit, unverified (see ``verified_unit``), or None."""
        return None if self._unit_data is None else self.element(self._unit_data)

    @cached_property
    def verified_unit(self):
        """A finite algebra's unit: the declared one if it fixes every basis id,
        else the (unique) u with iota(u) = 1 solved by ``regular_solver``, else
        None.  Code that relies on M(A) = iota(A) asks this, never ``unit``, so
        a false declaration cannot leak into a result."""
        if not self.finite:
            return None
        u, ids = self.unit, self.basis.ids
        if u is not None and unit_miss(self, u, ids) is None:
            return u
        sol = self.regular_solver().solve({(s, w, w): self.field.one for w in ids for s in "LR"})
        return None if sol is None else Element(self, vec_canonical(self.field, sol))

    @property
    def has_local_units(self):
        return self._local_unit_for is not None or self.unit is not None

    def local_unit(self, ids):
        """Two-sided unit for elements supported in ``ids``, if certified."""
        if self._local_unit_for is not None:
            key = ids if isinstance(ids, Window) else tuple(ids)
            cached = self._lu_cache.get(key)
            if cached is None:
                cached = self._lu_cache[key] = self.element(self._local_unit_for(key))
            return cached
        return self.unit

    def mul_basis(self, i, j) -> Element:
        key = (i, j)
        out = self._mul_cache.get(key)
        if out is None:
            out = self._mul_cache[key] = Element(
                self, vec_canonical(self.field, self._mul_rule(i, j))
            )
        return out

    def basis_product(self, i, j) -> dict:
        """Coefficients of e_i * e_j, summed by ``element_mul`` over ``partners`` if finite."""
        return self.mul_basis(i, j).coeffs

    @cached_property
    def partners(self) -> dict:
        """i -> frozenset of the k with e_i * e_k != 0 (finite only)."""
        ids, mul = self.basis.ids, self.mul_basis
        return {i: frozenset(k for k in ids if mul(i, k).coeffs) for i in ids}

    @cached_property
    def copartners(self) -> dict:
        """k -> frozenset of the i with e_i * e_k != 0: ``partners`` by column."""
        out = {k: [] for k in self.basis.ids}
        for i, ks in self.partners.items():
            for k in ks:
                out[k].append(i)
        return {k: frozenset(v) for k, v in out.items()}

    def element_mul(self, x: Element, y: Element) -> Element:
        return Element(self, vec_bilinear(self.field, x.coeffs, y.coeffs, self.basis_product,
                                          self.partners if self.finite else None))

    def product_span(self, ids) -> PairSpan:
        """Cached solver writing elements as sums of products e_i * e_j, i, j in ``ids``."""
        ids = tuple(ids)
        span = self._span_cache.get(ids)
        if span is None:
            span = self._span_cache[ids] = PairSpan(
                self.field, pair_columns(ids, ids, lambda i, j: self.mul_basis(i, j).coeffs),
                self.sort_key, self.sort_key)
        return span

    def regular_solver(self, sides=("L", "R")) -> GaussianSolver:
        """Cached solver holding e_t's multiplication tables in column t (finite only).

        Row ("L", w, r) is the coefficient of e_r in e_t * e_w and row
        ("R", w, r) that of e_r in e_w * e_t, for the tags in ``sides``.
        Solving for iota(u) = z, and completing a left table to a
        multiplier's right action, both invert it.
        """
        solver = self._regular.get(sides)
        if solver is None:
            ids, mul = self.basis.ids, self.mul_basis
            cols = [(t, {(s, w, r): v for w in ids for s in sides for r, v in
                         (mul(t, w) if s == "L" else mul(w, t)).coeffs.items()})
                    for t in ids]
            solver = self._regular[sides] = GaussianSolver(
                SparseMatrix.from_columns(self.field, cols))
        return solver


def finite_algebra(field, ids, table, unit=None, name="A", fmt_id=str) -> Algebra:
    """Finite-tier constructor; ``table`` maps (i, j) to a coefficient dict."""
    basis = FiniteBasis(ids)
    for (i, j), coeffs in table.items():
        if i not in basis or j not in basis:
            raise InputError(f"product rule for unknown pair ({i!r}, {j!r})")
        for bid in coeffs:
            if bid not in basis:
                raise InputError(f"product ({i!r}, {j!r}) leaves the declared basis")

    def rule(i, j):
        return table.get((i, j), {})

    return Algebra(field, basis, rule, unit=unit, name=name, fmt_id=fmt_id)


def oracle_algebra(field, contains, window, mul_rule, local_unit_for=None,
                   describe="oracle", name="A", fmt_id=str) -> Algebra:
    basis = OracleBasis(contains, window, describe)
    return Algebra(field, basis, mul_rule, local_unit_for=local_unit_for,
                   name=name, fmt_id=fmt_id)


def scalar_algebra(field) -> Algebra:
    """The base field as a one-dimensional algebra with basis id "1"."""
    return finite_algebra(field, ["1"], {("1", "1"): {"1": field.one}},
                          unit={"1": field.one}, name=f"k[{field.name}]")


def resolve_window(space, window):
    """Accept an int (oracle window parameter) or an explicit id tuple."""
    if window is None or isinstance(window, int):
        return tuple(space.window_ids(window))
    return tuple(window)


class Window:
    """Probe ids as ``(ids,)`` or as a product of factor Windows, (left[a],
    right[b]) at a * right.size + b, i-major as in ``_pair_basis``; the
    first ``cap`` only, flattened to ``ids`` on first use."""

    __slots__ = ("factors", "size", "_ids")

    def __init__(self, factors, cap=None):
        full = factors[0].size * factors[1].size if factors[1:] else len(factors[0])
        self.factors, self.size = factors, full if cap is None else min(cap, full)
        self._ids = None if factors[1:] else factors[0][:self.size]

    def __iter__(self):
        return iter(self.ids)

    @property
    def ids(self) -> tuple:
        if self._ids is None:
            self._ids = tuple(islice(product(*(f.ids for f in self.factors)), self.size))
        return self._ids

    def __eq__(self, other):
        return (isinstance(other, Window)
                and (self.size, self.factors) == (other.size, other.factors))

    def __hash__(self):
        return hash((self.size, self.factors))


def probe_window(space, window=None, cap=None) -> Window:
    """``resolve_window``'s ids as a Window capped at ``cap``: on a tensor space,
    the factors' product for an int window, None, or a prefix of a product."""
    factors = getattr(space, "factors", None)
    if isinstance(window, Window):
        return window
    if factors is None:
        return Window((resolve_window(space, window),), cap)
    if window is None or isinstance(window, int):
        return Window(tuple(probe_window(fac, window) for fac in factors), cap)
    ids = tuple(window)[:cap]
    win = Window(tuple(probe_window(fac, tuple(dict.fromkeys(p[k] for p in ids)))
                       for k, fac in enumerate(factors)), len(ids))
    return win if win.ids == ids else Window((ids,))


def scaled_window(space, window, expansion):
    """Search ids: an int window of an oracle space scales by ``expansion``.

    Products routinely leave the base window, so decomposition searches
    draw from the scaled one; finite spaces and explicit id tuples resolve
    as given.
    """
    if isinstance(window, int) and not space.finite:
        return tuple(space.window_ids(window * expansion))
    return resolve_window(space, window)


def joint_baseline(*windows):
    """"proven" when every ``(space, ids)`` window is its whole finite space."""
    return ("proven" if all(space.covers_fully(ids) for space, ids in windows)
            else "holds_on_window")


def annihilated(space, ids, probes, act):
    """First nonzero combination of ``ids`` that every probe kills, or None.

    ``act(t, p)`` is the coefficient dict of basis id t acted on by probe
    p; the kernel is taken over the stacked actions of all probes.
    """
    cols = [(t, {(p, bid): v for p in probes for bid, v in act(t, p).items()}) for t in ids]
    kernel = GaussianSolver(SparseMatrix.from_columns(space.field, cols)).kernel_basis()
    return Element(space, vec_canonical(space.field, kernel[0])) if kernel else None


def sweedler_decompose(alg: Algebra, elem: Element, window):
    """Write ``elem = sum c * (e_i * e_j)`` over window pairs, or None.

    The decomposition is the pivot-order first solution, so repeated calls
    agree; downstream modules rely on that determinism.
    """
    return alg.product_span(resolve_window(alg, window)).decompose(elem.coeffs)


# ---------------------------------------------------------------------------
# structural checks


def check_associativity(alg: Algebra, window=None) -> Verdict:
    """(e_i e_j) e_k = e_i (e_j e_k) on window triples, i, j, k in scan order.
    On a finite algebra a triple with e_i e_j = 0 = e_j e_k is skipped:
    both sides are 0."""
    ids = resolve_window(alg, window)
    label = alg.window_label(ids)
    partner_ids = ({j: [k for k in ids if k in ks] for j, ks in alg.partners.items()}
                   if alg.finite else None)
    for i in ids:
        for j in ids:
            ej = alg.basis_element(j)
            eij = alg.mul_basis(i, j)
            for k in ids if partner_ids is None or eij.coeffs else partner_ids[j]:
                left = eij * alg.basis_element(k)
                right = alg.basis_element(i) * alg.mul_basis(j, k)
                if left != right:
                    return Verdict(
                        "associativity", "failed", label,
                        witness=(alg.basis_element(i), ej, alg.basis_element(k)),
                        detail=f"(ei*ej)*ek = {left} but ei*(ej*ek) = {right}",
                    )
    return Verdict("associativity", alg.baseline(ids), label)


def check_idempotent(alg: Algebra, window=None) -> Verdict:
    """A = A*A on the window, with stored decomposition witnesses."""
    ids = resolve_window(alg, window)
    label = alg.window_label(ids)
    for t in ids:
        if sweedler_decompose(alg, alg.basis_element(t), ids) is None:
            return Verdict(
                "idempotency", "failed", label,
                witness=(alg.basis_element(t),),
                detail="basis element is not a sum of window products",
            )
    return Verdict("idempotency", alg.baseline(ids), label)


def check_nondegenerate(alg: Algebra, window=None) -> Verdict:
    """No nonzero one-sided annihilator among window combinations, the
    window ids as probes.  A stored unit or local-unit certificate proves
    non-degeneracy outright.
    """
    ids = resolve_window(alg, window)
    label = alg.window_label(ids)
    if alg.has_local_units:
        return Verdict("non-degeneracy", "proven", label,
                       detail="unit or complete local units certified")
    for which, act in (("x*a", lambda t, j: alg.mul_basis(t, j).coeffs),
                       ("a*x", lambda t, j: alg.mul_basis(j, t).coeffs)):
        witness = annihilated(alg, ids, ids, act)
        if witness is not None:
            return Verdict(
                "non-degeneracy", "failed", label,
                witness=(witness,),
                detail=f"{which} = 0 for every probe a",
            )
    return Verdict("non-degeneracy", alg.baseline(ids), label)


def unit_miss(alg: Algebra, u: Element, ids):
    """First id in ``ids`` whose basis element u does not fix on both sides,
    or None; ``verified_unit`` and ``check_local_units`` scan with it."""
    for bid in ids:
        e = alg.basis_element(bid)
        if u * e != e or e * u != e:
            return bid
    return None


def local_units_witness(alg: Algebra, probes, window=None):
    """Window elements acting as units on each probe, or None.

    Searches the window span for e with a*e = a and for e with e*a = a.
    Returns the deduplicated witness list.
    """
    ids = resolve_window(alg, window)
    witnesses: list = []
    seen = set()
    for probe in probes:
        if probe.is_zero():
            continue
        for s in ("right", "left"):
            cols = []
            for t in ids:
                et = alg.basis_element(t)
                prod = probe * et if s == "right" else et * probe
                if not prod.is_zero():
                    cols.append((t, prod.coeffs))
            sol = GaussianSolver(SparseMatrix.from_columns(alg.field, cols)).solve(probe.coeffs)
            if sol is None:
                return None
            e = Element(alg, vec_canonical(alg.field, sol))
            tag = tuple(sorted(e.coeffs.items(), key=lambda kv: alg.sort_key(kv[0])))
            if tag not in seen:
                seen.add(tag)
                witnesses.append(e)
    return witnesses


def check_local_units(alg: Algebra, window=None) -> Verdict:
    """Unit or local-unit evidence on the window, as a verdict.

    A declared unit or certificate hook is verified against every window
    basis element; with neither, a finite algebra's unit is solved for
    (``verified_unit``).  Else the window span is searched for per-probe
    units, which is only ever window-grade evidence (holds_on_window).
    """
    ids = resolve_window(alg, window)
    label = alg.window_label(ids)
    if alg.unit is not None:
        miss = unit_miss(alg, alg.unit, ids)
        if miss is not None:
            return Verdict("local units", "failed", label, witness=(alg.basis_element(miss),),
                           detail="declared unit does not act as a unit")
        return Verdict("local units", "proven", label, detail="unit element")
    if alg.verified_unit is not None:
        return Verdict("local units", "proven", label, detail="unit element solved")
    if alg.has_local_units:
        e = alg.local_unit(ids)
        miss = unit_miss(alg, e, ids)
        if miss is not None:
            return Verdict("local units", "failed", label, witness=(alg.basis_element(miss), e),
                           detail="certified local unit fails on a probe")
        return Verdict("local units", alg.baseline(ids), label,
                       detail="certified local unit verified")
    found = local_units_witness(alg, [alg.basis_element(i) for i in ids], window=ids)
    if found is None:
        return Verdict("local units", "failed", label,
                       detail="no element of the window span acts as a unit "
                              "on some basis element")
    return Verdict("local units", "holds_on_window", label,
                   detail=f"per-probe units found ({len(found)} distinct)")


# ---------------------------------------------------------------------------
# modules


class ModuleStructure:
    """One-sided module over an algebra, action given on basis ids.

    ``side`` is "right" (m <| a) or "left" (a |> m); ``act`` always takes
    (module element, algebra element) regardless of side.
    """

    def __init__(self, space: Space, algebra: Algebra, side, act_rule, name=None):
        if side not in ("right", "left"):
            raise InputError(f"side must be 'right' or 'left', not {side!r}")
        self.space = space
        self.algebra = algebra
        self.side = side
        self._act_rule = act_rule
        self._act_cache: dict = {}
        self._span_cache: dict = {}
        self.name = name or f"{space.name}:{side} {algebra.name}-module"

    def act_basis(self, m_id, a_id) -> Element:
        key = (m_id, a_id)
        out = self._act_cache.get(key)
        if out is None:
            out = self._act_cache[key] = Element(
                self.space, vec_canonical(self.space.field, self._act_rule(m_id, a_id))
            )
        return out

    def act(self, m: Element, a: Element) -> Element:
        if m.space is not self.space or a.space is not self.algebra:
            raise InputError("act() wants (module element, algebra element)")
        return Element(self.space, vec_bilinear(self.space.field, m.coeffs, a.coeffs,
                                                lambda i, j: self.act_basis(i, j).coeffs))

    def action_span(self, m_ids, a_ids) -> PairSpan:
        """Cached solver for decompositions m = sum c * (e_m acted by e_a)."""
        key = (tuple(m_ids), tuple(a_ids))
        span = self._span_cache.get(key)
        if span is None:
            span = self._span_cache[key] = PairSpan(
                self.space.field,
                pair_columns(*key, lambda mi, aj: self.act_basis(mi, aj).coeffs),
                self.space.sort_key, self.algebra.sort_key)
        return span

    def decompose(self, m: Element, m_ids, a_ids):
        return self.action_span(m_ids, a_ids).decompose(m.coeffs)


def regular_module(alg: Algebra, side="right") -> ModuleStructure:
    if side == "right":
        rule = lambda m_id, a_id: alg.mul_basis(m_id, a_id).coeffs
    else:
        rule = lambda m_id, a_id: alg.mul_basis(a_id, m_id).coeffs
    return ModuleStructure(alg, alg, side, rule, name=f"{alg.name} ({side} regular)")


def check_module(module: ModuleStructure, laws=None) -> dict:
    """Action associativity, idempotency M = MA, and non-degeneracy.

    ``laws`` restricts the run to a subset of {"associativity",
    "idempotency", "nondegeneracy"}; the associativity scan is cubic in
    the window and dominates on dense modules, so large sweeps that only
    need one verdict can skip the rest.
    """
    wanted = ("associativity", "idempotency", "nondegeneracy") if laws is None else tuple(laws)
    unknown = [w for w in wanted if w not in ("associativity", "idempotency", "nondegeneracy")]
    if unknown:
        raise InputError(f"check_module: unknown law {unknown[0]!r}")
    m_ids = tuple(module.space.window_ids())
    a_ids = tuple(module.algebra.window_ids())
    label = f"{module.space.window_label(m_ids)} / {module.algebra.window_label(a_ids)}"
    base = joint_baseline((module.space, m_ids), (module.algebra, a_ids))
    out = {}

    if "associativity" in wanted:
        assoc = None
        for mi, i, j in product(m_ids, a_ids, a_ids):
            em = module.space.basis_element(mi)
            ei, ej = module.algebra.basis_element(i), module.algebra.basis_element(j)
            inner, outer = (ei, ej) if module.side == "right" else (ej, ei)
            lhs = module.act(module.act(em, inner), outer)  # (m<|a)<|b or a|>(b|>m)
            rhs = module.act(em, ei * ej)                   # m<|(ab) or (ab)|>m
            if lhs != rhs:
                assoc = Verdict("module associativity", "failed", label,
                                witness=(em, ei, ej), detail=f"{lhs} vs {rhs}")
                break
        out["associativity"] = assoc or Verdict("module associativity", base, label)

    if "idempotency" in wanted:
        idem = None
        for mi in m_ids:
            if module.decompose(module.space.basis_element(mi), m_ids, a_ids) is None:
                idem = Verdict("module idempotency", "failed", label,
                               witness=(module.space.basis_element(mi),),
                               detail="not a sum of acted window elements")
                break
        out["idempotency"] = idem or Verdict("module idempotency", base, label)

    if "nondegeneracy" in wanted:
        witness = annihilated(module.space, m_ids, a_ids,
                              lambda mi, aj: module.act_basis(mi, aj).coeffs)
        out["nondegeneracy"] = (
            Verdict("module non-degeneracy", base, label) if witness is None else
            Verdict("module non-degeneracy", "failed", label, witness=(witness,),
                    detail="annihilated by every probe"))
    return out


# ---------------------------------------------------------------------------
# tensor constructions


def _outer(field, x: dict, y: dict) -> dict:
    """Coefficients of x (x) y; over a field no product of nonzeros vanishes."""
    return {(u, v): field.mul(cu, cv) for u, cu in x.items() for v, cv in y.items()}


def _tensor_cache(kind, left, right, build):
    """The one ``kind`` tensor of left and right, kept on ``left`` (with right: id stays valid)."""
    cache = left.__dict__.setdefault("_tensor_right", {})
    hit = cache.get((kind, id(right)))
    if hit is None:
        hit = cache[(kind, id(right))] = (build(left, right), right)
    return hit[0]


def _pair_fmt(left, right):
    return lambda bid: f"({left.fmt_id(bid[0])},{right.fmt_id(bid[1])})"


def _pair_basis(left: Space, right: Space):
    if left.finite and right.finite:
        return FiniteBasis([(i, j) for i in left.basis.ids for j in right.basis.ids])
    return OracleBasis(
        contains=lambda bid: (isinstance(bid, tuple) and len(bid) == 2
                              and bid[0] in left.basis and bid[1] in right.basis),
        window=lambda n: tuple((i, j) for i in left.window_ids(n)
                               for j in right.window_ids(n)),
        describe=f"{left.basis.describe()}(x){right.basis.describe()}",
    )


def tensor_space(left: Space, right: Space) -> Space:
    def build(left, right):
        sp = Space(left.field, _pair_basis(left, right),
                   name=f"{left.name}(x){right.name}", fmt_id=_pair_fmt(left, right))
        sp.factors = (left, right)
        return sp
    return _tensor_cache("space", left, right, build)


class TensorAlgebra(Algebra):
    """left (x) right on pair ids, multiplied factor by factor: ``partners``
    comes from the factors' tables, so a term pair is multiplied only when
    both factor products are nonzero, and no pair of pair ids is cached
    (``mul_basis`` still tabulates for the solvers).  Its one unit, none
    declared, is ``verified_unit``, the tensor of the factors' verified
    units (declared or solved), a unit by (u (x) v)(a (x) b) = ua (x) vb."""

    def __init__(self, left: Algebra, right: Algebra):
        if left.field != right.field:
            raise InputError("tensor factors over different fields")
        f, local = left.field, None
        if ((left._local_unit_for is not None or right._local_unit_for is not None)
                and left.has_local_units and right.has_local_units):
            def local(ids):
                lw, rw = probe_window(self, ids).factors
                return _outer(f, left.local_unit(lw).coeffs, right.local_unit(rw).coeffs)
        self.factors = (left, right)
        super().__init__(f, _pair_basis(left, right), self.basis_product,
                         local_unit_for=local, name=f"{left.name}(x){right.name}",
                         fmt_id=_pair_fmt(left, right))

    def basis_product(self, p, q) -> dict:
        (i1, j1), (i2, j2), (left, right) = p, q, self.factors
        x = left.basis_product(i1, i2)
        y = right.basis_product(j1, j2) if x else None
        return _outer(self.field, x, y) if y else {}

    @cached_property
    def partners(self) -> dict:
        """From the factors' tables, so no pair-id product is tabulated."""
        lp, rp = (fac.partners for fac in self.factors)
        return {(i, j): frozenset(product(lp[i], rp[j])) for i, j in self.basis.ids}

    @cached_property
    def verified_unit(self):
        u, v = (fac.verified_unit for fac in self.factors)
        return None if u is None or v is None else tensor_elem(u, v, into=self)


def tensor_algebra(left: Algebra, right: Algebra) -> TensorAlgebra:
    return _tensor_cache("algebra", left, right, TensorAlgebra)


def tensor_elem(x: Element, y: Element, into) -> Element:
    """Elementary tensor x (x) y in ``into``, the tensor space of their spaces."""
    return Element(into, _outer(into.field, x.coeffs, y.coeffs))


def tensor_module(m: ModuleStructure, n: ModuleStructure) -> ModuleStructure:
    """Componentwise module over the tensor algebra (same side required)."""
    if m.side != n.side:
        raise InputError("tensor of modules with mismatched sides")
    carrier = tensor_space(m.space, n.space)
    acting = tensor_algebra(m.algebra, n.algebra)

    def rule(m_id, a_id):
        (mi, ni), (ai, bi) = m_id, a_id
        return _outer(carrier.field, m.act_basis(mi, ai).coeffs, n.act_basis(ni, bi).coeffs)

    return ModuleStructure(carrier, acting, m.side, rule,
                           name=f"{m.name} (x) {n.name}")


def reassociate_left(elem: Element, target: Space) -> Element:
    """(i,(j,k)) -> ((i,j),k) relabeling into the prebuilt target space."""
    out = {}
    for bid, v in elem.coeffs.items():
        i, (j, k) = bid
        out[((i, j), k)] = v
    return Element(target, out)
