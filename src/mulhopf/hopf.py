"""Canonical maps T1, T2, antipodes, and twisted convolution products.

For a comultiplication Delta: A --> M(A (x) A) the canonical maps on
A (x) A are

    T1(a (x) b) = Delta(a)(1 (x) b)      T2(a (x) b) = (a (x) 1)Delta(b)

(the two Sweedler slices read as linear maps).  Delta is a Hopf structure
exactly when both are bijective; the antipode S: A -> M(A) is the map with

    m(S (x) id)(T1(a (x) b)) = eps(a) b
    m(id (x) S)(T2(a (x) b)) = eps(b) a

Antipode synthesis inverts those identities as a linear system in the
unknown multipliers S(e_t), gated on windowed T1/T2 bijectivity so that
pseudo-solutions of non-Hopf structures are rejected.  It is the one
solve of counit synthesis (``bialgebra.solve_touched``), with its
touched-coordinate rule: a coordinate of S that some equation touches
and that the equations leave free raises WindowInsufficiency, so S is
unique on the touched coordinates, and the coordinates no window
equation sees are reported as zeroed, not as unique values.

The same slices define, for maps f, g: A -> M(A), frame-twisted
convolution products

    (f *^b g)(a) = sum f(a_(1,b)) g(a_(2,b))
    (f *_a g)(b) = sum f(b_(a,1)) g(b_(a,2))

with two-sided units alpha_b(a) = eps(a) iota(b); S is an antipode
exactly when S *^b iota = alpha_b and iota *_a S = alpha_a for all a, b.
"""

from __future__ import annotations

from .linalg import GaussianSolver, SparseMatrix, vec_add, vec_axpy, vec_canonical
from .algebra import Element, InputError, Verdict, WindowInsufficiency, scaled_window
from .multiplier import (Multiplier, MultiplierSpace, basis_image, combine, iota, iota_preimage,
                         multiplier_eq)
from .bialgebra import Counit, Slicer, solve_touched


class MultiplierMap:
    """Linear map A -> M(A) given on basis ids, values cached."""

    def __init__(self, alg, rule, name="f"):
        self.alg = alg
        self._rule = rule
        self._cache: dict = {}
        self.name = name

    def basis(self, bid) -> Multiplier:
        x = self._cache.get(bid)
        if x is None:
            x = self._cache[bid] = self._rule(bid)
        return x

    def apply(self, a: Element) -> Multiplier:
        if a.space is not self.alg:
            raise InputError(f"{self.name} wants elements of {self.alg.name}")
        return combine(self.alg, [(c, self.basis(bid)) for bid, c in a.sorted_items()])

    def __repr__(self):
        return f"<map {self.name}: {self.alg.name} -> M({self.alg.name})>"


def iota_map(alg) -> MultiplierMap:
    return MultiplierMap(alg, lambda bid: iota(alg, alg.basis_element(bid)),
                         name="iota")


_CANONICAL_SIDE = {"T1": "right", "T2": "left"}  # T1 = Delta(a)(1 (x) b), T2 = (a (x) 1)Delta(b)

# The antipode identity on each canonical map: the leg of a slice that S
# takes, the side S's value acts on the other leg from, and the law's name.
# On the pair (a, b) the identity reads (a, b)[1 - leg] eps((a, b)[leg]):
# m(S (x) id)T1(a (x) b) = eps(a) b and m(id (x) S)T2(a (x) b) = eps(b) a.
_ANTIPODE_LAWS = (("T1", 0, "left", "m(S(x)id)"),
                  ("T2", 1, "right", "m(id(x)S)"))


def _all_hold(axiom, window, parts) -> Verdict:
    """One verdict for a conjunction of ``parts``.

    Failed with the first failed part's witness and detail; otherwise
    proven only when every part is proven, else holds_on_window.
    """
    bad = next((v for v in parts if not v.ok), None)
    if bad is not None:
        return Verdict(axiom, "failed", window, witness=bad.witness, detail=bad.detail)
    return Verdict(axiom, "proven" if all(v.status == "proven" for v in parts)
                   else "holds_on_window", window)


def check_bijective(slicer: Slicer, which="T1") -> dict:
    """Injectivity and surjectivity verdicts for one canonical map.

    Injectivity is the kernel of the map restricted to window pairs (a
    kernel vector is a genuine global witness, since slices are exact).
    Surjectivity solves for each window pair as an image of the
    expansion-scaled domain; on an oracle algebra at expansion 1 a miss
    shows only a small window, so it raises unless injectivity failed.
    """
    alg, txt = slicer.alg, slicer.txt
    ids = slicer.ids
    pairs = [(a, b) for a in ids for b in ids]
    label = txt.window_label(pairs)
    side = _CANONICAL_SIDE[which]
    cols = [((a, b), slicer.slice(side, a, b).coeffs) for (a, b) in pairs]
    solver = GaussianSolver(SparseMatrix.from_columns(alg.field, cols))
    kern = solver.kernel_basis()
    if kern:
        wit = Element(txt, vec_canonical(alg.field, kern[0]))
        inj = Verdict(f"{which} injectivity", "failed", label, witness=(wit,),
                      detail=f"{which} maps this to zero")
    else:
        inj = Verdict(f"{which} injectivity", txt.baseline(pairs), label)

    scaled = scaled_window(alg, slicer.window, slicer.expansion)
    if tuple(scaled) == tuple(ids):  # the window's own factorisation serves
        domain_note = "window domain"
    else:
        wide = [((a, b), slicer.slice(side, a, b).coeffs) for a in scaled for b in scaled]
        solver = GaussianSolver(SparseMatrix.from_columns(alg.field, wide))
        domain_note = f"domain scaled to {len(scaled)}^2 pairs"
    sur = Verdict(f"{which} surjectivity", txt.baseline(pairs), label,
                  detail=domain_note)
    for (u, v) in pairs:
        if solver.solve({(u, v): alg.field.one}) is None:
            if not alg.finite and domain_note == "window domain" and inj.ok:
                raise WindowInsufficiency(f"{which} surjectivity: {txt.fmt_id((u, v))} is "
                                          "not hit over the window's own pairs; raise --expansion")
            sur = Verdict(f"{which} surjectivity", "failed", label,
                          witness=(Element(txt, {(u, v): alg.field.one}),),
                          detail=f"not hit by {which} over the {domain_note}")
            break

    return {"injectivity": inj, "surjectivity": sur,
            "bijectivity": _all_hold(f"{which} bijectivity", label, (inj, sur))}


def check_hopf(slicer: Slicer) -> dict:
    """Both canonical maps; "hopf" summarizes."""
    out = {"T1": check_bijective(slicer, "T1"), "T2": check_bijective(slicer, "T2")}
    t1c, t2c = out["T1"]["bijectivity"], out["T2"]["bijectivity"]
    out["hopf"] = _all_hold("canonical maps bijective", t1c.window, (t1c, t2c))
    return out


# ---------------------------------------------------------------------------
# antipodes


def check_antipode(slicer: Slicer, epsilon: Counit, s: MultiplierMap) -> Verdict:
    """Both defining identities on window pairs; witness is the failing pair."""
    alg = slicer.alg
    ids = slicer.ids
    label = alg.window_label(ids)
    f = alg.field
    for a in ids:
        for b in ids:
            for which, leg, acts, law in _ANTIPODE_LAWS:
                acc: dict = {}
                for pair, c in slicer.slice(_CANONICAL_SIDE[which], a, b).coeffs.items():
                    vec_axpy(f, acc, basis_image(s.basis(pair[leg]), acts, pair[1 - leg]), c)
                got = Element(alg, acc)
                want = alg.basis_element((a, b)[1 - leg]).scale(epsilon.value((a, b)[leg]))
                if got != want:
                    return Verdict("antipode", "failed", label,
                                   witness=(alg.basis_element(a), alg.basis_element(b)),
                                   detail=f"{law} on {which} gave {got}, want {want}")
    return Verdict("antipode", alg.baseline(ids), label)


class AntipodeSynthesis:
    """Outcome of synthesize_antipode.

    ``status`` is "synthesized" or "failed"; when synthesized, ``map`` is
    the MultiplierMap, ``table`` holds printable per-id values (elements
    when S lands in iota(A)), and ``verdicts`` carries the gate and the
    post-verification.
    """

    def __init__(self, status, smap, table, verdicts, detail=""):
        self.status = status
        self.map = smap
        self.table = table
        self.verdicts = verdicts
        self.detail = detail

    @property
    def ok(self):
        return self.status == "synthesized"

    def __repr__(self):
        return f"<antipode {self.status}: {self.detail or len(self.table or ())}>"


def synthesize_antipode(slicer: Slicer, epsilon: Counit, gate=None) -> AntipodeSynthesis:
    """Solve for S with values in M(A), gated on T1/T2 bijectivity.

    ``gate`` is a ``check_hopf`` result already computed on the same
    slicer.  S(e_t) is written in elements of A (M(A) = iota(A)) for oracle
    algebras and for finite algebras whose declared unit verifies; other
    finite algebras are solved over all of M(A) (``MultiplierSpace``).
    """
    alg = slicer.alg
    ids = slicer.ids
    f = alg.field

    gate = gate or check_hopf(slicer)
    verdicts = [gate["T1"]["bijectivity"], gate["T2"]["bijectivity"]]
    if not gate["hopf"].ok:
        return AntipodeSynthesis(
            "failed", None, None, verdicts,
            detail=f"no antipode: {gate['hopf'].detail or 'canonical map not bijective'}")

    msp = MultiplierSpace(alg) if alg.finite and alg.verified_unit is None else None
    t_ids = alg.basis.ids if alg.finite else scaled_window(alg, slicer.window, slicer.expansion)
    # S(e_t) = sum_k x_(t,k) m_k over the coordinate multipliers m_k
    if msp is not None:
        coords = list(enumerate(msp.basis))
    else:
        coords = [(w, Multiplier(alg, lambda v, w=w: alg.mul_basis(w, v),
                                 lambda p, w=w: alg.mul_basis(p, w)))
                  for w in t_ids]

    entries: dict = {}
    rhs: dict = {}
    for a in ids:
        for b in ids:
            for which, leg, acts, _law in _ANTIPODE_LAWS:
                for pair, c in slicer.slice(_CANONICAL_SIDE[which], a, b).coeffs.items():
                    for k, mk in coords:
                        for r, w in basis_image(mk, acts, pair[1 - leg]).items():
                            vec_add(f, entries, ((which, a, b, r), (pair[leg], k)), f.mul(c, w))
                vec_add(f, rhs, (which, a, b, (a, b)[1 - leg]), epsilon.value((a, b)[leg]))

    sol = solve_touched(f, entries, rhs, "antipode")
    if sol is None:
        return AntipodeSynthesis("failed", None, None, verdicts,
                                 detail="antipode equations are inconsistent")

    values: dict = {}  # S(e_t): an element u for S(e_t) = iota(u), else a multiplier
    for t in t_ids:
        if msp is None:
            values[t] = Element(alg, {k: sol[(t, k)] for k, _m in coords if (t, k) in sol})
        else:
            mult = combine(alg, [(sol.get((t, k), f.zero), m) for k, m in coords])
            pre = iota_preimage(alg, mult)
            values[t] = pre if pre is not None else mult
    # reported table: all of a finite basis, else the base window only,
    # which is fully constrained
    table = {t: values[t] for t in (t_ids if alg.finite else ids)}

    def rule(bid):
        v = values.get(bid)
        if v is None:
            raise WindowInsufficiency(f"antipode not synthesized at {bid!r}")
        return iota(alg, v) if isinstance(v, Element) else v

    smap = MultiplierMap(alg, rule, name="S")
    post = check_antipode(slicer, epsilon, smap)
    verdicts.append(post)
    touched = len({c for _r, c in entries})
    zeroed = len(t_ids) * len(coords) - touched
    detail = f"unique on {touched} touched coordinates"
    if zeroed:
        detail += f"; {zeroed} untouched coordinates zeroed"
    if not post.ok:
        return AntipodeSynthesis("failed", smap, table, verdicts,
                                 detail="solution fails re-verification: " + post.detail)
    return AntipodeSynthesis("synthesized", smap, table, verdicts, detail=detail)


# ---------------------------------------------------------------------------
# twisted convolution


def _as_elem(alg, x) -> Element:
    return x if isinstance(x, Element) else alg.basis_element(x)


def convolve(side, f: MultiplierMap, g: MultiplierMap, frame,
             slicer: Slicer) -> MultiplierMap:
    """sum c f(u) g(v) over the slice c (u (x) v) of each argument, framed on ``side``.

    Side "right" is (f *^b g)(a) = sum f(a_(1,b)) g(a_(2,b)) with frame b,
    side "left" is (f *_a g)(b) = sum f(b_(a,1)) g(b_(a,2)) with frame a.
    """
    alg = slicer.alg
    frame = _as_elem(alg, frame)

    def rule(bid):
        arg = alg.basis_element(bid)
        sl = (slicer.slice_elem(side, arg, frame) if side == "right"
              else slicer.slice_elem(side, frame, arg))
        return combine(alg, [(c, f.basis(u) * g.basis(v)) for (u, v), c in
                             sorted(sl.coeffs.items(), key=lambda kv: (
                                 alg.sort_key(kv[0][0]), alg.sort_key(kv[0][1])))])

    star = "*^b" if side == "right" else "*_a"
    return MultiplierMap(alg, rule, name=f"({f.name}{star} {g.name})")


def conv_unit(alg, epsilon: Counit, b) -> MultiplierMap:
    """alpha_b(a) = eps(a) iota(b), the two-sided twisted-convolution unit."""
    ib = iota(alg, _as_elem(alg, b))
    return MultiplierMap(alg, lambda bid: ib.scale(epsilon.value(bid)), name="alpha")


def map_eq(f: MultiplierMap, g: MultiplierMap, arg_ids, probes) -> Verdict:
    """Compare two maps A -> M(A) on arguments, multiplier-wise on probes;
    window-grade evidence (holds_on_window) when they agree."""
    alg, probes = f.alg, tuple(probes)
    label = f"{len(tuple(arg_ids))} args x {len(probes)} probes"
    for t in arg_ids:
        eq = multiplier_eq(f.basis(t), g.basis(t), probes)
        if not eq.ok:
            return Verdict("map equality", "failed", label,
                           witness=(alg.basis_element(t),) + tuple(eq.witness or ()),
                           detail=f"{f.name} and {g.name} differ: {eq.detail}")
    return Verdict("map equality", "holds_on_window", label)


def check_convolution_inverse(slicer: Slicer, epsilon: Counit, f: MultiplierMap,
                              g: MultiplierMap) -> Verdict:
    """f *^b g = alpha_b and g *_a f = alpha_a for all window frames.

    With f = S and g = iota this is the convolution characterization of
    the antipode.
    """
    alg = slicer.alg
    ids = slicer.ids
    label = alg.window_label(ids)
    for frame in ids:
        al = conv_unit(alg, epsilon, frame)
        v = map_eq(convolve("right", f, g, frame, slicer), al, ids, ids)
        if not v.ok:
            return Verdict("convolution inverse", "failed", label,
                           witness=(alg.basis_element(frame),) + tuple(v.witness or ()),
                           detail=f"f*^b g != alpha_b: {v.detail}")
        v = map_eq(convolve("left", g, f, frame, slicer), al, ids, ids)
        if not v.ok:
            return Verdict("convolution inverse", "failed", label,
                           witness=(alg.basis_element(frame),) + tuple(v.witness or ()),
                           detail=f"g*_a f != alpha_a: {v.detail}")
    return Verdict("convolution inverse", alg.baseline(ids), label)
