"""Multipliers of a non-unital algebra.

A multiplier is a pair of linear maps (lam, rho) on A with

    lam(a*b) = lam(a)*b,   rho(a*b) = a*rho(b),   a*lam(b) = rho(a)*b,

thought of as one two-sided object x acting by x |> a = lam(a) (side
"left") and a <| x = rho(a) (side "right").  Products compose
contravariantly on the right action: (x*y) |> a = x |> (y |> a),
a <| (x*y) = (a <| x) <| y.  The algebra embeds by iota(a) = (left mult
by a, right mult by a), which records a for ``iota_element`` (a certified
spec table is iota(c), ``specfile.derive_rho``); the unit multiplier is
(id, id) whether or not A has a unit.  Each kind is built only here.

For finite A, ``iota_preimage`` solves exactly and ``MultiplierSpace``
computes all of M(A) as the solution space of the linearity +
compatibility system; no command needs the latter, since a finite algebra
that passes the Hopf gate is unital (``hopf.synthesize_antipode``).  For
oracle algebras everything stays operational and window-relative.
Psi(x (x) y) on A (x) B (``psi_embed``) acts factor by factor, (x |> a)
(x) (y |> b), and remembers x and y, so contracting it against a local
unit e_L (x) e_R contracts each factor against its own.
``basis_image`` is the one reading of a basis action and ``apply`` the one
application to an element, each taking the side as data.  Only a leaf
(given by its two rules) memoises basis images, for probe sweeps and factor
reads, and keeps the nonzero images its local-unit contraction met; a leaf
built with one rule for both sides keeps one set of memos for both.
Products, sums and Psi leaves have no rules and memoise nothing per id.  A
probe sweep visits a product only where its image is nonzero (``support``).
"""

from __future__ import annotations

from itertools import product

from .linalg import GaussianSolver, SparseMatrix, vec_add, vec_axpy, vec_canonical
from .algebra import (
    Algebra, Element, InputError, InvariantViolation, ModuleStructure, Verdict,
    Window, WindowInsufficiency, _outer, probe_window, resolve_window, tensor_algebra,
    tensor_elem,
)


class Multiplier:
    """(lam, rho) on ``alg``: a leaf given by its two basis rules, or a product,
    ``combine`` sum or Psi leaf made of multipliers.  A leaf built with one
    rule for both sides, ``Multiplier(alg, lam, lam)``, evaluates it once
    per id: both sides read one memo, unit contraction and support."""
    __slots__ = ("alg", "_rules", "_memo", "_prod", "_terms", "_psi", "_support",
                 "_unit_memo", "_iota", "name")

    def __init__(self, alg: Algebra, lam, rho, name=None):
        self.alg = alg
        # a leaf's basis rules and memo of their images (coefficient dicts) by
        # side; a product, sum or Psi leaf is built with None rules and has neither
        self._rules = None if lam is None else {"left": lam, "right": rho}
        memo: dict = {}
        self._memo = None if lam is None else {"left": memo, "right": memo if rho is lam else {}}
        self._prod = None
        self._terms = None  # [(c, x)] when this is combine's sum c * x
        self._psi = None  # (x, y) when this is Psi(x (x) y) on a tensor algebra
        self._support = {}  # side -> (probes, positions with a nonzero image)
        self._unit_memo = None  # (side, window) -> contraction; side -> [(unit, kept)]
        self._iota = None  # c with self = iota(c), recorded where self is built
        self.name = name

    def apply(self, side, a: Element) -> Element:
        """x |> a (side "left") or a <| x (side "right"); a product goes factor
        by factor, inner factor first, so no intermediate image is per id."""
        if self._prod is not None:
            inner, outer = self._prod[::-1] if side == "left" else self._prod
            return outer.apply(side, inner.apply(side, a))
        return _contract_leaf(self, side, a)

    # -- algebra structure of M(A) ------------------------------------------

    def __mul__(self, other):
        if other.alg is not self.alg:
            raise InputError("multipliers over different algebras")
        out = Multiplier(self.alg, None, None)
        out._prod = (self, other)
        return out

    def __add__(self, other):
        return combine(self.alg, [(1, self), (1, other)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return combine(self.alg, [(-1, self)])

    def scale(self, scalar):
        return combine(self.alg, [(scalar, self)])

    def __repr__(self):
        return f"<multiplier {self.name or '?'} on {self.alg.name}>"


def _coeffs(alg, value) -> dict:
    """A rule's value, an Element of ``alg`` or a dict, as canonical coefficients."""
    if isinstance(value, Element):
        if value.space is not alg:
            raise InputError("multiplier rule returned a foreign element")
        return value.coeffs
    return vec_canonical(alg.field, value)


def combine(alg: Algebra, terms) -> Multiplier:
    """sum c * x over ``(c, Multiplier)`` pairs; the zero multiplier when empty.

    The terms stay on the multiplier: each basis image is one flat
    accumulation over them (``basis_image``), and a probe sweep caches
    nothing on the sum.
    """
    field = alg.field
    terms = [(field.coerce(c), x) for c, x in terms if c]
    if any(x.alg is not alg for _c, x in terms):
        raise InputError("multipliers over different algebras")
    out = Multiplier(alg, None, None)
    out._terms = terms
    if all(x._iota is not None for _c, x in terms):  # sum c iota(x) = iota(sum c x)
        acc: dict = {}
        for c, x in terms:
            vec_axpy(field, acc, x._iota.coeffs, c)
        out._iota = Element(alg, acc)
    return out


def one(alg: Algebra) -> Multiplier:
    """The unit multiplier (id, id)."""
    rule = alg.basis_element
    return Multiplier(alg, rule, rule, name="1")


def iota(alg: Algebra, a: Element) -> Multiplier:
    """Embed a in M(A) as (left multiplication, right multiplication)."""
    if a.space is not alg:
        raise InputError("iota wants an element of the algebra itself")
    out = Multiplier(alg, lambda bid: a * alg.basis_element(bid),
                     lambda bid: alg.basis_element(bid) * a, name=f"iota({a})")
    out._iota = Element(alg, vec_canonical(alg.field, a.coeffs))
    return out


def psi_embed(parts, into=None) -> Multiplier:
    """Componentwise multiplier x1 (x) ... (x) xn on the fold-left tensor algebra."""
    parts = list(parts)
    if not parts:
        raise InputError("psi_embed needs at least one multiplier")
    acc = parts[0]
    for nxt in parts[1:]:
        acc = _psi_pair(acc, nxt)
    if into is not None and acc.alg is not into:
        raise InputError("psi_embed result lives on a different tensor algebra")
    return acc


def _psi_pair(x: Multiplier, y: Multiplier) -> Multiplier:
    """Psi(x (x) y): ``basis_image`` gives the tensor of the factors' images."""
    out = Multiplier(tensor_algebra(x.alg, y.alg), None, None, name=f"psi({x.name},{y.name})")
    out._psi = (x, y)
    return out


def multiplier_eq(x: Multiplier, y: Multiplier, probes) -> Verdict:
    """Compare both actions on the probes (``probe_window``); first mismatch is
    the witness.  "proven" exactly when the probes cover a finite basis."""
    if x.alg is not y.alg:
        raise InputError("multipliers over different algebras")
    alg, probes = x.alg, probe_window(x.alg, probes)
    label = f"{probes.size} probes"
    for n, side in sweep((x, probes), (y, probes)):
        w = probes.ids[n]
        hx, hy = basis_image(x, side, w), basis_image(y, side, w)
        if hx != hy:  # witness and text are built for the failing probe only
            text = "x|>p = {} but y|>p = {}" if side == "left" else "p<|x = {} but p<|y = {}"
            return Verdict("multiplier equality", "failed", label,
                           witness=(alg.basis_element(w),),
                           detail=text.format(Element(alg, hx), Element(alg, hy)))
    return Verdict("multiplier equality",
                   "proven" if alg.covers_fully(probes) else "holds_on_window", label)


def act_on_module(module: ModuleStructure, m: Element, x: Multiplier,
                  window_m=None, window_a=None) -> Element:
    """Extend the action along M = MA:  m <| x = sum m_i * (a_i <| x).

    Needs a decomposition of m over the windows; raises WindowInsufficiency
    when none exists.
    """
    if module.algebra is not x.alg:
        raise InputError("multiplier belongs to a different algebra")
    m_ids = resolve_window(module.space, window_m)
    a_ids = resolve_window(module.algebra, window_a)
    dec = module.decompose(m, m_ids, a_ids)
    if dec is None:
        raise WindowInsufficiency(
            f"{m} does not decompose over {module.space.window_label(m_ids)}")
    acc: dict = {}
    for c, mi, aj in dec:
        moved = x.apply(module.side, module.algebra.basis_element(aj))
        vec_axpy(module.space.field, acc,
                 module.act(module.space.basis_element(mi), moved).coeffs, c)
    return Element(module.space, acc)


# ---------------------------------------------------------------------------
# exact coordinates of M(A) for finite A


class MultiplierSpace:
    """All of M(A) for finite A, as the kernel of the constraint system.

    Coordinates are the entries of the lam and rho action matrices; keys
    ("L", i, j) / ("R", i, j) mean the coefficient of e_i in lam(e_j),
    rho(e_j).  The basis multipliers come out of ``kernel_basis`` in
    deterministic column order.
    """

    def __init__(self, alg: Algebra):
        if not alg.finite:
            raise InputError("MultiplierSpace needs a finite algebra")
        self.alg = alg
        ids = alg.basis.ids
        field = alg.field
        cols = [(tag, i, j) for tag in ("L", "R") for i in ids for j in ids]
        entries: dict = {}

        def put(row, col, val):
            if val:
                vec_add(field, entries, (row, col), val)

        rows = []
        for j, k in product(ids, repeat=2):
            prod = alg.mul_basis(j, k).coeffs
            # lam(e_j e_k) = lam(e_j) e_k and rho(e_j e_k) = e_j rho(e_k):
            # the map's table, the id it acts on, and e_i times the other
            # id for each i
            sides = (("L", "lam-lin", j, [alg.mul_basis(i, k).coeffs for i in ids]),
                     ("R", "rho-lin", k, [alg.mul_basis(j, i).coeffs for i in ids]))
            for r in ids:
                for tag, name, own, times in sides:
                    row = (name, j, k, r)
                    rows.append(row)
                    for t, c in prod.items():
                        put(row, (tag, r, t), c)
                    for i, p in zip(ids, times):
                        put(row, (tag, i, own), field.neg(p.get(r, field.zero)))
        for i, j, r in product(ids, repeat=3):
            row = ("compat", i, j, r)
            rows.append(row)
            for u in ids:
                put(row, ("L", u, j), alg.mul_basis(i, u).coeffs.get(r, field.zero))
                put(row, ("R", u, i), field.neg(alg.mul_basis(u, j).coeffs.get(r, field.zero)))
        matrix = SparseMatrix(field, rows, cols, entries)
        self.basis = [self._from_tables(vec) for vec in GaussianSolver(matrix).kernel_basis()]

    @property
    def dim(self):
        return len(self.basis)

    def _from_tables(self, vec) -> Multiplier:
        tables: dict = {"L": {}, "R": {}}
        for (tag, i, j), v in vec.items():
            tables[tag].setdefault(j, {})[i] = v
        return Multiplier(self.alg, lambda bid, t=tables["L"]: t.get(bid, {}),
                          lambda bid, t=tables["R"]: t.get(bid, {}))


# ---------------------------------------------------------------------------
# preimages under iota


def iota_element(z: Multiplier):
    """c with z = iota(c), as recorded where z was built, or None.

    ``iota`` records its c (``specfile.derive_rho`` builds a certified spec
    table as iota(c)), a ``combine`` of recorded terms the sum of theirs.  Read
    only with a verified unit: then iota is injective (iota(x) = 0 gives
    x = x 1 = 0), so c is the preimage ``iota_preimage`` would solve for.
    None keeps the caller on its solve path.
    """
    return None if z.alg.verified_unit is None else z._iota


def unital_certificate(alg: Algebra, image):
    """c = m(1) if m(e_y) = c e_y on every basis id y of a finite ``alg`` with
    a verified unit, else None; ``image(y)`` gives the coefficients of m(e_y).
    All c e_y come from one pass over c's terms and ``alg.partners``, so a
    check costs the nonzero pairs that c meets, not an element product per y."""
    u = alg.verified_unit
    if u is None:
        return None
    field, mul, acc, hits = alg.field, alg.basis_product, {}, {}
    for bid, k in u.coeffs.items():
        hit = image(bid)
        if hit:
            vec_axpy(field, acc, hit, k)
    for t, ct in acc.items():
        for y in alg.partners[t]:
            vec_axpy(field, hits.setdefault(y, {}), mul(t, y), ct)
    if any(image(y) != hits.get(y, {}) for y in alg.basis.ids):
        return None
    return Element(alg, acc)


def iota_preimage(alg: Algebra, z: Multiplier, window=None, probe_ids=None):
    """Element u with iota(u) = z, or None.

    Finite algebras: exact linear solve over the full basis (a None is a
    proof that z is outside iota(A)).  Oracle algebras: contract z against
    the certified local unit e of the search window from both sides; the
    two candidates z |> e and e <| z must agree, and with ``probe_ids`` the
    candidate is further verified against every probe.  A product z = x*y
    is contracted factor by factor, x |> (y |> e) and (e <| x) <| y, and
    the inner factor's contraction is memoised on it per (side, window):
    a slice's inner factor (a frame, or Delta(e_a)) recurs across every
    slice that shares it.  Oracle results are window-relative.
    """
    if alg.finite:
        rhs = {(tag, w, r): v for w in alg.basis.ids
               for tag, side in (("L", "left"), ("R", "right"))
               for r, v in basis_image(z, side, w).items()}
        sol = alg.regular_solver().solve(rhs)
        return None if sol is None else Element(alg, vec_canonical(alg.field, sol))
    ids = probe_window(alg, window)
    if not alg.has_local_units:
        raise WindowInsufficiency(
            f"{alg.name} has no local-unit certificate; cannot invert iota on a window")
    u_left = _unit_contraction(z, "left", window, ids)
    u_right = _unit_contraction(z, "right", window, ids)
    if u_left != u_right:
        return None
    if probe_ids is not None and not agrees_on_probes(alg, u_left, z, probe_ids):
        return None
    return u_left


def _unit_contraction(z: Multiplier, side, window, ids) -> Element:
    """z |> e (side "left") or e <| z, e the local unit of the Window ``ids``,
    in ``Multiplier.apply``'s factor order, memoised on leaves.  A
    Psi(x (x) y) leaf contracts each factor on its factor window (e is
    e_L (x) e_R); a plain leaf keeps the nonzero images it meets, keyed to
    e's ids, so its rule runs once per id, and meets e before it is applied
    (once for both sides when one rule serves both)."""
    if z._prod is not None:
        outer, inner = z._prod if side == "left" else z._prod[::-1]
        a = _unit_contraction(inner, side, window, ids)
        if outer._rules is not None:
            _unit_contraction(outer, side, window, ids)
        return outer.apply(side, a)
    side = _side(z, side)
    memo = z._unit_memo = z._unit_memo or {}
    out = memo.get((side, window))
    if out is None:
        if z._psi is not None:
            (x, y), (left, right) = z._psi, ids.factors
            out = tensor_elem(_unit_contraction(x, side, left, left),
                              _unit_contraction(y, side, right, right), into=z.alg)
        else:
            e, kept = z.alg.local_unit(ids), {}
            out = _contract_leaf(z, side, e, kept)
            memo.setdefault(side, []).append((e.coeffs, kept))
        memo[(side, window)] = out
    return out


def _leaf_image(z: Multiplier, side, bid) -> dict:
    """A leaf's z |> e_bid or e_bid <| z as a unit contraction kept it, else its rule's."""
    for unit, kept in z._unit_memo.get(_side(z, side), ()):
        if bid in unit:
            return kept.get(bid, {})
    return _coeffs(z.alg, z._rules[side](bid))


def _contract_leaf(z: Multiplier, side, a: Element, kept=None) -> Element:
    """z |> a or a <| z, memoising nothing: each id's image is the leaf's memo
    entry, else a sum's or Psi leaf's ``basis_image``, else one a unit
    contraction kept or the rule's (as in ``_leaf_image``); ``kept`` collects
    the nonzero ones."""
    alg, acc, coeffs = z.alg, {}, a.coeffs
    stores = (z._unit_memo or {}).get(_side(z, side), ())
    memo, rule = (z._memo[side], z._rules[side]) if z._rules else ({}, None)
    for bid, c in coeffs.items():
        if (image := memo.get(bid)) is None:
            if rule is None:
                image = basis_image(z, side, bid)
            else:  # as ``_leaf_image``, inline: this loop is the hot one
                for unit, k in stores:
                    if bid in unit:
                        image = k.get(bid)
                        break
                else:
                    image = _coeffs(alg, rule(bid))
        if image:  # most images are empty on the examples (sparse products)
            if kept is not None:
                kept[bid] = image
            vec_axpy(alg.field, acc, image, c)
    return Element(alg, acc)


def basis_image(z: Multiplier, side, bid) -> dict:
    """Coefficients of z |> e_bid (side "left") or e_bid <| z (side "right").

    A leaf gives its memoised basis action.  A product x*y goes factor by
    factor, inner image first (y on the left, x on the right), a ``combine``
    term by term, a Psi(x (x) y) leaf as the tensor of its factors' images,
    and none of them has a memo: a sweep meets each once.
    """
    memo = z._memo
    if memo is not None:
        image = memo[side].get(bid)
        if image is None:  # with no unit contraction kept, straight to the rule
            image = memo[side][bid] = (_leaf_image(z, side, bid) if z._unit_memo
                                       else _coeffs(z.alg, z._rules[side](bid)))
        return image
    if z._psi is not None:
        (x, y), (i, j) = z._psi, bid
        hx = basis_image(x, side, i)
        hy = hx and basis_image(y, side, j)
        return _outer(z.alg.field, hx, hy) if hy else {}
    if z._terms is not None:
        parts = ((c, basis_image(x, side, bid)) for c, x in z._terms)
    else:
        inner, outer = z._prod[::-1] if side == "left" else z._prod
        hit = basis_image(inner, side, bid)
        if not hit:
            return hit
        parts = ((c, basis_image(outer, side, k)) for k, c in hit.items())
    field, acc = z.alg.field, {}
    for c, image in parts:
        if image:
            vec_axpy(field, acc, image, c)
    return acc


def support(z: Multiplier, side, probes) -> frozenset:
    """Positions in ``probes`` (``probe_window``) outside which
    ``basis_image(z, side, .)`` is 0, exactly where it is nonzero but for a
    ``combine``, whose is the union of its terms'.  A leaf's is read from its
    images, a Psi(x (x) y) leaf's from its factors' over the factor windows
    multiplied out, a product's from its images on its inner factor's
    support; all are memoised per side for the last window.  If an image
    there raises (a lift with no decomposition), a product keeps that whole
    inner support, so a sweep meets the failure where a full sweep would."""
    probes = probes if isinstance(probes, Window) else probe_window(z.alg, probes)
    if z._terms is not None:
        return frozenset().union(*(support(x, side, probes) for _c, x in z._terms))
    side = _side(z, side)
    memo = z._support.get(side)
    if memo is None or memo[0] != probes:
        if z._prod is not None:
            covered = support(z._prod[1] if side == "left" else z._prod[0], side, probes)
            try:
                covered = [n for n in covered if basis_image(z, side, probes.ids[n])]
            except (InvariantViolation, WindowInsufficiency):
                pass
        elif z._psi is not None and probes.factors[1:]:
            covered = _product_positions(probes, *(support(fac, side, win) for fac, win
                                                   in zip(z._psi, probes.factors)))
        else:
            covered = (n for n, w in enumerate(probes) if basis_image(z, side, w))
        memo = z._support[side] = (probes, frozenset(covered))
    return memo[1]


def _side(z: Multiplier, side):
    """The side whose memos serve ``side``: "left" for both on a leaf built
    with one rule for both sides, whose images are then the same."""
    return "left" if z._memo is not None and z._memo["left"] is z._memo["right"] else side


def _product_positions(probes, left, right):
    """Positions in a product window of pairs of factor window positions."""
    width, size = probes.factors[1].size, probes.size
    return [n for a in left for b in right if (n := a * width + b) < size]


def sweep(*pairs):
    """(position, side), positions in order and left before right, where the
    support of some ``(z, probes)`` pair covers it (the windows run in step).
    Elsewhere every z acts as 0, so a full sweep's first mismatch is met here.
    """
    cover = {side: frozenset().union(*(support(z, side, probes) for z, probes in pairs))
             for side in ("left", "right")}
    for n in sorted(cover["left"] | cover["right"]):
        for side in ("left", "right"):
            if n in cover[side]:
                yield n, side


def agrees_on_probes(alg: Algebra, u: Element, z: Multiplier, probes) -> bool:
    """iota(u) and z act alike, from both sides, on every probe basis element.

    Only probes in z's support or met by a term of u are visited (elsewhere
    both act as 0): there u e_w and e_w u, summed from ``basis_product``, are
    compared with ``basis_image`` (0 outside z's support); no probe element
    is built."""
    field, mul, probes = alg.field, alg.basis_product, probe_window(alg, probes)
    for side in ("left", "right"):
        cover = support(z, side, probes)
        meets = frozenset().union(*(_meets(alg, t, side, probes) for t in u.coeffs))
        for n in sorted(cover | meets):
            w, acc = probes.ids[n], {}
            for i, c in u.coeffs.items():
                hit = mul(i, w) if side == "left" else mul(w, i)
                if hit:
                    vec_axpy(field, acc, hit, c)
            if acc != (basis_image(z, side, w) if n in cover else {}):
                return False
    return True


def _meets(alg: Algebra, t, side, probes):
    """Positions of the w with e_t e_w (or e_w e_t) nonzero, factor by factor."""
    if probes.factors[1:]:
        return _product_positions(probes, *(_meets(fac, t[k], side, win) for k, (fac, win)
                                            in enumerate(zip(alg.factors, probes.factors))))
    mul = alg.basis_product
    return [n for n, w in enumerate(probes.ids) if (mul(t, w) if side == "left" else mul(w, t))]
