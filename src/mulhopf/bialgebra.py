"""Comultiplications valued in M(A (x) A) and their windowed calculus.

A comultiplication here is an extension Delta: A --> A (x) A.  The
computable handle on it is the pair of Sweedler slices

    Delta(a)(1 (x) b) = iota( a_(1,b) (x) a_(2,b) )     (right slice)
    (b (x) 1)Delta(a) = iota( a_(b,1) (x) a_(b,2) )     (left slice)

both honest elements of A (x) A.  ``Slicer`` computes them as preimages
under iota: exactly (full linear solve) for finite algebras, and through
the certified local unit of the expansion-scaled window for oracle
algebras, with one doubling retry to separate "window too small" from
"not in the image of iota".  On a finite unital A (x) A a certified
Delta(e_a) = iota(c_a) makes them products, c_a (1 (x) e_b) and (e_a (x) 1) c_b.

Coassociativity and the counit laws are checked in sliced form, iterating
the inner slice first:

    b_(1,c)(a,1) (x) b_(1,c)(a,2) (x) b_(2,c)
        = b_(a,1) (x) b_(a,2)(1,c) (x) b_(a,2)(2,c)
    eps(a_(1,b)) a_(2,b) = ab = a_(b,1) eps(a_(b,2))

and counit synthesis inverts the same identities as a linear system in
the unknown values eps(e_i).  It shares one solve with antipode synthesis
(``solve_touched``) and so one touched-coordinate rule: the unknowns are
the coordinates some equation touches, a touched coordinate left free
raises WindowInsufficiency (unless the identities over a whole finite
basis are inconsistent: then there is no table), and so a synthesized
table is unique on what the equations see, whatever their order;
coordinates no equation touches read zero.  These are the comodule laws of A over
itself, the regular comodule with rho = Delta, so one engine
(``_sliced_coassoc``) checks sliced coassociativity for Delta and for
every coaction (``comodule.check_comodule_coassoc_element``), and one
eps-contraction (``_collapse``) serves both counit laws.  A slice that is
not iota of an element makes these checks fail with the undefined pair
as witness.  On certified finite inputs every coassociativity route, here
and in ``comodule``, is one element identity per basis element
(``_certified_coassoc``); the sweeps decide the rest and every failure.
Every function here that reads Delta, the module-category ones included,
takes the run's Slicer for Delta, window and expansion.
"""

from __future__ import annotations

from itertools import product

from .linalg import GaussianSolver, SparseMatrix, vec_add, vec_axpy, vec_bilinear
from .algebra import (
    Algebra, Element, InputError, InvariantViolation, ModuleStructure, Verdict,
    WindowInsufficiency,
    joint_baseline, probe_window, reassociate_left, resolve_window, scalar_algebra,
    tensor_algebra, tensor_elem, tensor_module,
)
from .multiplier import (Multiplier, agrees_on_probes, basis_image, iota, iota_element,
                         iota_preimage, one, psi_embed)
from .extension import Extension


class SliceUndefined(RuntimeError):
    """The framed comultiplication is not iota of anything on the window.

    ``witness`` is the pair of basis elements that frame the slice.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class Slicer:
    """Slice calculator for one Delta with fixed window and expansion.

    ``delta`` is Delta bound to them (``Extension.at``), the one extension
    a run validates, lifts and tensors; a slice that is not an element
    raises SliceUndefined with the one report every check gives.  Slices
    are cached per (side, a, b), so one Slicer serves every check of a run.
    ``slice(..., verify=True)`` also checks an oracle slice against every
    window probe of A (x) A, once per cached slice; a slice that fails
    its probes is recomputed with the probes enforced at each tried window.
    Finite slices are exact (products when Delta is certified, else solves)
    and skip the probes.  Oracle slices contract against the
    expansion-scaled window, so they need an integer window.
    """

    def __init__(self, delta: Extension, window=None, expansion=2):
        self.alg = delta.source
        self.txt = delta.target
        factors = getattr(self.txt, "factors", None)
        if factors is None:
            raise InputError("slicing needs a tensor-algebra target")
        self.lfac, self.rfac = factors
        self.window = window if window is not None else delta.source_window
        self.expansion = expansion
        self.delta = delta.at(self.window, expansion)
        self.ids = resolve_window(self.alg, self.window)
        if not self.txt.finite and not isinstance(self.window, int):
            raise InputError(
                f"slicing {self.alg.name} needs an integer window: an explicit "
                "id tuple cannot be scaled by the expansion")
        self._probes = None if self.txt.finite else probe_window(self.txt, self.window)
        self._cache: dict = {}
        self._verified: set = set()
        self._frame_cache: dict = {}
        self._ones = (one(self.lfac), one(self.rfac))

    def _frame(self, side, frame_id) -> Multiplier:
        """Psi(1 (x) e_b) for side "right", Psi(e_a (x) 1) for side "left"."""
        # frames recur across every slice sharing the framing id: keeping
        # the multiplier keeps its memoised supports and unit contractions
        out = self._frame_cache.get((side, frame_id))
        if out is None:
            if side == "right":
                parts = (self._ones[0], iota(self.rfac, self.rfac.basis_element(frame_id)))
            else:
                parts = (iota(self.lfac, self.lfac.basis_element(frame_id)), self._ones[1])
            out = self._frame_cache[(side, frame_id)] = psi_embed(parts, into=self.txt)
        return out

    def _arg_cover(self, arg_id, frame_space, frame_id):
        """Smallest doubling of the base window containing both arguments.

        Slices of arguments beyond the base window (surjectivity columns
        use the scaled domain) need a correspondingly larger local-unit
        contraction, or the preimage would silently truncate.
        """
        n = self.window
        for _ in range(5):
            if arg_id in self.alg.window_ids(n) and frame_id in frame_space.window_ids(n):
                return n
            n *= 2
        raise WindowInsufficiency(
            f"slice arguments ({arg_id!r}, {frame_id!r}) exceed every tried window")

    def _framed(self, side, a_id, b_id):
        """(z, base): the framed product whose iota-preimage is the slice,
        and the base window its contraction scales (None when finite)."""
        if side == "right":
            z = self.delta.basis_multiplier(a_id) * self._frame("right", b_id)
            arg, fspace, fid = a_id, self.rfac, b_id
        else:
            z = self._frame("left", a_id) * self.delta.basis_multiplier(b_id)
            arg, fspace, fid = b_id, self.lfac, a_id
        return z, None if self.txt.finite else self._arg_cover(arg, fspace, fid)

    def _product(self, side, a_id, b_id):
        """c_a (1 (x) e_b) or (e_a (x) 1) c_b when Delta of the argument is a
        certified iota(c); None sends the slice to the solve."""
        c = iota_element(self.delta.basis_multiplier(a_id if side == "right" else b_id))
        if c is None:
            return None
        # only the framed leg multiplies: sum c_xy x (x) (y e_b), or (e_a x) (x) y
        f, acc, right = self.txt.field, {}, side == "right"
        for (x, y), v in c.coeffs.items():
            hit = self.rfac.basis_product(y, b_id) if right else self.lfac.basis_product(a_id, x)
            vec_axpy(f, acc, {((x, k) if right else (k, y)): w for k, w in hit.items()}, v)
        return Element(self.txt, acc)

    def _preimage(self, z: Multiplier, base, probe_ids=None):
        if self.txt.finite:
            return iota_preimage(self.txt, z)
        w1 = base * self.expansion
        u = iota_preimage(self.txt, z, window=w1, probe_ids=probe_ids)
        if u is not None and not u.is_zero():  # a truncated slice contracts to 0
            return u
        return iota_preimage(self.txt, z, window=w1 * 2, probe_ids=probe_ids)

    def slice(self, side, a_id, b_id, verify=False) -> Element:
        """Right: slice of Delta(e_a) framed by e_b on the right.

        Left: slice of Delta(e_b) framed by e_a on the left, i.e. the
        element b_(a,1) (x) b_(a,2).
        """
        key = (side, a_id, b_id)
        u = self._cache.get(key)
        if u is None and self.txt.finite:
            u = self._product(side, a_id, b_id)
        check = verify and not self.txt.finite and key not in self._verified
        if u is not None and not check:
            return self._cache.setdefault(key, u)
        z, base = self._framed(side, a_id, b_id)
        if u is None:
            u = self._preimage(z, base)
        if check and u is not None:
            if not agrees_on_probes(self.txt, u, z, self._probes):
                u = self._preimage(z, base, self._probes)
            if u is not None:
                self._verified.add(key)
        if u is None:
            frame, (fa, fb) = (("(1(x)b)", (self.alg, self.rfac)) if side == "right"
                               else ("(a(x)1)", (self.lfac, self.alg)))
            raise SliceUndefined(
                f"{self.delta.name} framed by {frame} is not iota of a window element "
                f"[side={side}, a={a_id}, b={b_id}]",
                (fa.basis_element(a_id), fb.basis_element(b_id)))
        self._cache[key] = u
        return u

    def slice_elem(self, side, a: Element, b: Element) -> Element:
        """``slice`` extended bilinearly to elements a, b of A."""
        return Element(self.txt, vec_bilinear(self.alg.field, a.coeffs, b.coeffs,
                                              lambda i, j: self.slice(side, i, j).coeffs))


def check_fons(slicer: Slicer) -> Verdict:
    """Both framed products land in iota(A (x) A) for every window pair.

    Each oracle slice is checked against the window probes too.
    """
    alg = slicer.alg
    label = alg.window_label(slicer.ids)
    for i in slicer.ids:
        for j in slicer.ids:
            try:
                slicer.slice("right", i, j, verify=True)
                slicer.slice("left", j, i, verify=True)
            except SliceUndefined as exc:
                return Verdict("slice membership", "failed", label,
                               witness=(alg.basis_element(i), alg.basis_element(j)),
                               detail=str(exc))
    return Verdict("slice membership", alg.baseline(slicer.ids), label)


def check_coassociative(slicer: Slicer) -> Verdict:
    """Sliced coassociativity over all window triples, inner slice first."""
    return _sliced_coassoc(slicer, slicer, slicer.ids, slicer.ids, "coassociativity",
                           slicer.alg.window_label(slicer.ids),
                           "slice-iterated sides differ: {} vs {}")


def _sliced_coassoc(gamma: Slicer, dsl: Slicer, ids, c_ids, axiom, label,
                    detail) -> Verdict:
    """Sliced coassociativity of a coaction B --> B (x) A.

    ``gamma`` slices the coaction and ``dsl`` slices Delta of A.  For a, b
    in ``ids`` (of B) and c in ``c_ids`` (of A) the two sides
    sum left(a, u) (x) v over u (x) v = right(b, c), and
    sum p (x) Delta-right(q, c) over p (x) q = left(a, b), are compared in
    (B (x) A) (x) A.  With gamma = dsl this is coassociativity of Delta.
    ``detail`` formats the two sides of the first unequal triple; an
    undefined slice fails with the Slicer's report, its pair as witness.
    """
    B, A = gamma.alg, dsl.alg
    status = joint_baseline((B, ids), (A, c_ids))
    if _certified_coassoc(gamma, dsl, ids):
        return Verdict(axiom, status, label)
    triple = tensor_algebra(gamma.txt, A)   # (B(x)A)(x)A
    f = B.field
    try:
        for a in ids:
            for b in ids:
                t = gamma.slice("left", a, b)
                for c in c_ids:
                    lhs: dict = {}
                    for (u, v), cs in gamma.slice("right", b, c).coeffs.items():
                        for w, cl in gamma.slice("left", a, u).coeffs.items():
                            vec_add(f, lhs, (w, v), f.mul(cs, cl))
                    rhs: dict = {}
                    for (p, q), ct in t.coeffs.items():
                        for (x, y), cr in dsl.slice("right", q, c).coeffs.items():
                            vec_add(f, rhs, ((p, x), y), f.mul(ct, cr))
                    left_side, right_side = Element(triple, lhs), Element(triple, rhs)
                    if left_side != right_side:
                        return Verdict(
                            axiom, "failed", label,
                            witness=(B.basis_element(a), B.basis_element(b),
                                     A.basis_element(c)),
                            detail=detail.format(left_side, right_side))
    except SliceUndefined as exc:
        return Verdict(axiom, "failed", label, witness=exc.witness, detail=str(exc))
    return Verdict(axiom, status, label)


def _certified_coassoc(gamma: Slicer, dsl: Slicer, ids) -> bool:
    """True when coassociativity holds on ``ids`` by one element identity per
    b; False leaves the verdict, and so every failure, to the caller's sweep.

    With a verified unit M = A: certified rho(e_b) = iota(c_b) and, for each
    term u (x) v of c_b, rho(e_u) = iota(c_u), Delta(e_v) = iota(d_v) make
    every slice a product (``Slicer._product``), and every check frames X =
    L_b = sum c_b[u,v] c_u (x) v or X = R_b = sum c_b[u,v] u (x) d_v: a sliced
    triple reads (e_a (x) 1 (x) 1) X (1 (x) 1 (x) e_c), the multiplier form
    iota(X (1 (x) 1 (x) e_a)), the framed one that after (e_c (x) 1 (x) 1).
    So L_b = R_b in (B (x) A) (x) A passes every triple, pair and probe."""
    f, rho, delta = gamma.alg.field, gamma.delta, dsl.delta
    for b in ids:
        c = iota_element(rho.basis_multiplier(b))
        if c is None:
            return False
        lhs, rhs = {}, {}
        for (u, v), k in c.coeffs.items():
            cu, dv = iota_element(rho.basis_multiplier(u)), iota_element(delta.basis_multiplier(v))
            if cu is None or dv is None:
                return False
            for xy, w in cu.coeffs.items():
                vec_add(f, lhs, (xy, v), f.mul(k, w))
            for (p, q), w in dv.coeffs.items():
                vec_add(f, rhs, ((u, p), q), f.mul(k, w))
        if lhs != rhs:
            return False
    return True


class Counit:
    """The counit eps: A --> k, given by its values eps(e_i).

    k is unital, so M(k) = k and a morphism into it is nothing more than
    its values on the basis.  ``table`` is a dict or a callable; ids a dict
    does not hold raise WindowInsufficiency (the synthesized region is only
    as large as the window that produced it).
    """

    def __init__(self, alg: Algebra, table):
        self.alg = alg
        self.table = table

    def value(self, bid):
        """eps(e_bid), coerced into the field."""
        if callable(self.table):
            val = self.table(bid)
        else:
            try:
                val = self.table[bid]
            except KeyError:
                raise WindowInsufficiency(
                    f"eps not synthesized at basis id {bid!r}") from None
        return self.alg.field.coerce(val)

    def __call__(self, elem: Element):
        """eps(elem) for an element of A."""
        f = self.alg.field
        acc = f.zero
        for bid, c in elem.coeffs.items():
            acc = f.add(acc, f.mul(c, self.value(bid)))
        return acc

    def witness(self, ids):
        """g = e_i / eps(e_i) for the first i in ``ids`` with eps(e_i) != 0, or None."""
        for bid in ids:
            val = self.value(bid)
            if val:
                return self.alg.basis_element(bid).scale(self.alg.field.inv(val))
        return None


def check_counit(slicer: Slicer, epsilon: Counit) -> Verdict:
    """eps(a_(1,b)) a_(2,b) = ab = a_(b,1) eps(a_(b,2)) on window pairs."""
    alg = slicer.alg
    ids = slicer.ids
    label = alg.window_label(ids)
    for a in ids:
        ea = alg.basis_element(a)
        for b in ids:
            eb = alg.basis_element(b)
            prod = ea * eb
            for side, eps_leg, law in (("right", "left", "(eps(x)id)"),
                                       ("left", "right", "(id(x)eps)")):
                try:
                    sl = slicer.slice(side, a, b)
                except SliceUndefined as exc:
                    return Verdict("counit", "failed", label, witness=exc.witness,
                                   detail=str(exc))
                got = _collapse(sl, epsilon, eps_leg)
                if got != prod:
                    return Verdict("counit", "failed", label, witness=(ea, eb),
                                   detail=f"{law} of {side} slice = {got}, ab = {prod}")
    return Verdict("counit", alg.baseline(ids), label)


def _collapse(pair_elem: Element, epsilon: Counit, eps_leg) -> Element:
    """Apply eps to the ``eps_leg`` ("left" or "right") of an element of X (x) Y."""
    x, y = pair_elem.space.factors
    keep_space, e = (y, 0) if eps_leg == "left" else (x, 1)
    f = keep_space.field
    acc: dict = {}
    for pair, c in pair_elem.coeffs.items():
        scal = epsilon.value(pair[e])
        if scal:
            vec_add(f, acc, pair[1 - e], f.mul(c, scal))
    return Element(keep_space, acc)


def solve_touched(field, entries: dict, rhs: dict, what, covered=False):
    """The solution of ``entries`` x = ``rhs`` on the unknowns it touches.

    ``entries`` maps (row, col) to a nonzero coefficient and ``rhs`` maps
    row to value; the rows are the row keys of both, the unknowns the
    columns of ``entries``.  A touched unknown left free raises
    WindowInsufficiency, unless the system is inconsistent and ``covered``
    says its rows are the identities over a whole finite basis: no larger
    window exists, so that is an answer.  Returns the solution (zero values
    omitted), or None when the system is inconsistent.

    Over a whole finite basis with a unit, a consistent counit system has no
    free unknown: rows for b = 1 and a = 1 give (d (x) id)Delta(x) = 0 =
    (id (x) d)Delta(x) for d the difference of two solutions, and with eps one
    of them d(x) = (eps (x) d)Delta(x) = eps((id (x) d)Delta(x)) = 0.
    Without a unit no such argument is at hand, and a free unknown raises.
    """
    rows = dict.fromkeys(r for r, _c in entries) | dict.fromkeys(rhs)
    solver = GaussianSolver(SparseMatrix(field, rows, dict.fromkeys(c for _r, c in entries),
                                         entries))
    sol = solver.solve(rhs)
    if solver.free_cols and not (covered and sol is None):
        raise WindowInsufficiency(
            f"{what} underdetermined on {len(solver.free_cols)} touched coordinates")
    return sol


def synthesize_counit(slicer: Slicer, why=None):
    """Solve the sliced counit identities for the values eps(e_i).

    Returns the Counit, or None when the identities are inconsistent or
    their solution is not multiplicative or vanishes on the window; the
    list ``why``, if given, then receives which.  Raises
    WindowInsufficiency when equation-touched unknowns remain free, and
    SliceUndefined when a window slice is not an element.
    """
    alg = slicer.alg
    ids = slicer.ids
    f = alg.field
    entries: dict = {}
    rhs: dict = {}
    for a in ids:
        for b in ids:
            prod = alg.mul_basis(a, b)
            # eps lands on leg 1 of the right slice and on leg 2 of the left
            # slice b_(a,1) (x) b_(a,2); the other leg is kept
            for tag, side, keep in (("vd2", "right", 1), ("vd1", "left", 0)):
                for pair, c in slicer.slice(side, a, b).coeffs.items():
                    entries[(tag, a, b, pair[keep]), pair[1 - keep]] = c
                for r, val in prod.coeffs.items():
                    rhs[(tag, a, b, r)] = val

    def failed(reason):
        if why is not None:
            why.append(reason)

    sol = solve_touched(f, entries, rhs, "counit", covered=alg.covers_fully(ids))
    if sol is None:
        return failed("the counit identities have no solution")
    table = {bid: sol.get(bid, f.zero) for bid in (*ids, *(c for _r, c in entries))}
    # multiplicativity is not linear in eps; verify it on window pairs
    for i in ids:
        for j in ids:
            lhs = f.zero
            for t, c in alg.mul_basis(i, j).coeffs.items():
                if t not in table:
                    raise WindowInsufficiency(
                        f"product {alg.fmt_id(i)}*{alg.fmt_id(j)} leaves the "
                        "synthesized counit window")
                lhs = f.add(lhs, f.mul(c, table[t]))
            if lhs != f.mul(table[i], table[j]):
                x, y = alg.fmt_id(i), alg.fmt_id(j)
                return failed("the solution of the counit identities is not "
                              f"multiplicative: eps({x}*{y}) != eps({x})eps({y})")
    counit = Counit(alg, table)
    # eps vanishing on the window is not surjective
    if counit.witness(ids) is None:
        return failed("the solution of the counit identities vanishes on the window")
    return counit


# ---------------------------------------------------------------------------
# the bundle


class MultiplierBialgebra:
    """Algebra + Delta + counit data, with default window configuration."""

    def __init__(self, algebra: Algebra, delta: Extension, epsilon: Counit | None,
                 counit_witness: Element, window=None, expansion=2, name=None,
                 antipode=None):
        self.algebra = algebra
        self.delta = delta
        self.epsilon = epsilon
        self.counit_witness = counit_witness
        self.window = window
        self.expansion = expansion
        self.name = name or algebra.name
        self.antipode = antipode  # optional declared antipode (a linear multiplier-valued map)
        self._slicers: dict = {}

    def slicer(self, window=None, expansion=None) -> Slicer:
        """The one Slicer of Delta per (window, expansion), the bundle's by default."""
        key = (self.window if window is None else window,
               self.expansion if expansion is None else expansion)
        sl = self._slicers.get(key)
        if sl is None:
            sl = self._slicers[key] = Slicer(self.delta, window=key[0], expansion=key[1])
        return sl


# ---------------------------------------------------------------------------
# induced module structure on tensor products


def tensor_module_action(slicer: Slicer, m: ModuleStructure,
                         n: ModuleStructure) -> ModuleStructure:
    """Right A-module on M (x) N through Delta = slicer.delta.

    (m (x) n) . a  =  sum (m_i (x) n_j) ((a_i (x) b_j) <| Delta(a))
    over decompositions m = sum m_i a_i, n = sum n_j b_j.  Decomposition
    searches draw m and n from the Slicer's window and the acting ids from
    its expansion-scaled version.
    """
    delta, alg, wa = slicer.delta, slicer.alg, slicer.window
    if m.algebra is not alg or n.algebra is not alg:
        raise InputError("tensor_module_action wants two right modules over A")
    if m.side != "right" or n.side != "right":
        raise InputError("tensor_module_action is for right modules")
    base = tensor_module(m, n)
    a_search = delta.source_search_ids
    m_ids = resolve_window(m.space, wa)
    n_ids = resolve_window(n.space, wa)
    f = alg.field

    def rule(mn_id, a_id):
        mi, nj = mn_id
        dec_m = m.decompose(m.space.basis_element(mi), m_ids, a_search)
        dec_n = n.decompose(n.space.basis_element(nj), n_ids, a_search)
        if dec_m is None or dec_n is None:
            raise WindowInsufficiency(
                f"tensor action: no decomposition for ({mi!r}, {nj!r})")
        da = delta.basis_multiplier(a_id)
        acc: dict = {}
        for c, mx, ap in dec_m:
            for d, ny, bq in dec_n:
                moved = da.apply("right", tensor_elem(alg.basis_element(ap),
                                                      alg.basis_element(bq), into=delta.target))
                hit = base.act(tensor_elem(m.space.basis_element(mx),
                                           n.space.basis_element(ny),
                                           into=base.space), moved)
                vec_axpy(f, acc, hit.coeffs, f.mul(c, d))
        return acc

    return ModuleStructure(base.space, alg, "right", rule,
                           name=f"({m.space.name}(x){n.space.name}) over Delta")


def epsilon_module(epsilon: Counit) -> ModuleStructure:
    """The base field as a right A-module through eps."""
    alg = epsilon.alg
    k = scalar_algebra(alg.field)

    def rule(_m_id, a_id):
        val = epsilon.value(a_id)
        return {"1": val} if val else {}

    return ModuleStructure(k, alg, "right", rule, name="k over eps")


def check_monoidal_instance(slicer: Slicer, epsilon: Counit,
                            counit_witness: Element, modules) -> list:
    """Associator and unit-constraint instances for a module family.

    Returns verdicts for: associator A-linearity on every ordered triple
    from ``modules``; the right and left unit constraints mediated by the
    counit witness g; and the tensor-of-extensions instance (the Delta
    bimodule actions on A (x) A validate as an extension of A).  A
    programming error inside a check propagates; it is not a verdict.  The
    Slicer's window must be None or an int: it is resolved on every tensor
    module too, where an id tuple of A names no ids.

    g is its own input, not eps.witness: eps' = 2 eps with g' = g / 2 passes
    every unit constraint, which reads eps and g only together; the module
    laws of k over eps (``epsilon_module``) catch it.
    """
    delta, alg, wa, a_ids = slicer.delta, slicer.alg, slicer.window, slicer.ids
    if wa is not None and not isinstance(wa, int):
        raise InputError(f"monoidal instances need an integer window, not {wa!r}")
    dec_ids = delta.source_search_ids
    f = alg.field
    g = counit_witness

    def associator_failures():
        for M, N, P in product(modules, repeat=3):
            NP = tensor_module_action(slicer, N, P)
            right = tensor_module_action(slicer, M, NP)
            MN = tensor_module_action(slicer, M, N)
            left = tensor_module_action(slicer, MN, P)
            ids = resolve_window(right.space, wa)
            for x_id, a in product(ids, a_ids):
                mi, (nj, pk) = x_id
                lhs = reassociate_left(right.act_basis(x_id, a), left.space)
                rhs = left.act_basis(((mi, nj), pk), a)
                if lhs != rhs:
                    yield Verdict("monoidal associator", "failed",
                                  f"{len(ids)} ids of {right.space.name}",
                                  witness=(right.space.basis_element(x_id),
                                           alg.basis_element(a)),
                                  detail=f"{lhs} vs {rhs}")

    def unit_failures(tag, eps_leg):
        # m . a against sum m_j . (id (x) eps on eps_leg)(legs <| Delta(a)),
        # m = sum m_j b_j and legs = b_j (x) g with g on the eps leg
        for M in modules:
            m_ids = resolve_window(M.space, wa)
            for mi in m_ids:
                m_elem = M.space.basis_element(mi)
                dec = M.decompose(m_elem, m_ids, dec_ids)
                if dec is None:
                    raise WindowInsufficiency(f"unit constraint: {m_elem} lacks M.A form")
                for a in a_ids:
                    da = delta.basis_multiplier(a)
                    acc: dict = {}
                    for c, mx, bj in dec:
                        eb = alg.basis_element(bj)
                        legs = (g, eb) if eps_leg == "left" else (eb, g)
                        kept = _collapse(da.apply("right", tensor_elem(*legs, into=delta.target)),
                                         epsilon, eps_leg)
                        vec_axpy(f, acc, M.act(M.space.basis_element(mx), kept).coeffs, c)
                    got = Element(M.space, acc)
                    want = M.act(m_elem, alg.basis_element(a))
                    if got != want:
                        yield Verdict(tag, "failed", f"{M.space.name}, {len(a_ids)} ids",
                                      witness=(m_elem, alg.basis_element(a)),
                                      detail=f"constraint image {got}, expected {want}")

    verdicts = [next(associator_failures(), None) or Verdict(
        "monoidal associator", alg.baseline(a_ids),
        f"{len(modules)}^3 triples, window {len(a_ids)} ids")]
    for tag, eps_leg in (("monoidal right unit", "right"), ("monoidal left unit", "left")):
        verdicts.append(next(unit_failures(tag, eps_leg), None) or Verdict(
            tag, alg.baseline(a_ids), f"{len(modules)} modules, witness g = {g}"))

    # tensor of two A-extensions is an A-extension: Delta's own bimodule actions
    # on A (x) A validated through the bimodule constructor
    try:
        Extension.from_bimodule(
            alg, delta.target,
            lambda b_id, p_id: basis_image(delta.basis_multiplier(b_id), "left", p_id),
            lambda p_id, b_id: basis_image(delta.basis_multiplier(b_id), "right", p_id),
            name="Delta-as-bimodule", source_window=delta.source_window,
            target_window=delta.target_window, expansion=slicer.expansion)
        verdicts.append(Verdict("tensor extension instance", alg.baseline(a_ids),
                                delta.window_label()))
    except InvariantViolation as exc:
        verdicts.append(Verdict("tensor extension instance", "failed",
                                delta.window_label(), witness=exc.verdict.witness,
                                detail=str(exc)))
    return verdicts
