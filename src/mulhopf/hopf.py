"""Canonical maps T1, T2, antipodes, and twisted convolution products.

For a comultiplication Delta: A --> M(A (x) A) the canonical maps on
A (x) A are

    T1(a (x) b) = Delta(a)(1 (x) b)      T2(a (x) b) = (a (x) 1)Delta(b)

(the two Sweedler slices read as linear maps).  Delta is a Hopf structure
exactly when both are bijective; the antipode S: A -> M(A) is the map with

    m(S (x) id)(T1(a (x) b)) = eps(a) b
    m(id (x) S)(T2(a (x) b)) = eps(b) a

Antipode synthesis inverts those identities as a linear system in the
unknown values S(e_t) in iota(A) (all of M(A) for a finite algebra that
passes the gate, ``synthesize_antipode``), gated on windowed T1/T2
bijectivity so that pseudo-solutions of non-Hopf structures are rejected.
It is the one solve of counit synthesis (``bialgebra.solve_touched``),
with its touched-coordinate rule: a coordinate of S that some equation
touches and that the equations leave free raises WindowInsufficiency, so
S is unique on the touched coordinates, and the coordinates no window
equation sees are reported as zeroed, not as unique values.

The same slices define, for maps f, g: A -> M(A) (``Extension``s, as S,
iota and alpha_b are), frame-twisted convolution products

    (f *^b g)(a) = sum f(a_(1,b)) g(a_(2,b))
    (f *_a g)(b) = sum f(b_(a,1)) g(b_(a,2))

with two-sided units alpha_b(a) = eps(a) iota(b); S is an antipode
exactly when S *^b iota = alpha_b and iota *_a S = alpha_a for all a, b.

On a finite algebra the convolution law is first compared frame by frame
as identities of elements (``_frames_certified``), and a square T with no
kernel is onto without solves (``_square_injective``); every failure still
comes from the scans.
"""

from __future__ import annotations

from .linalg import GaussianSolver, SparseMatrix, vec_add, vec_axpy, vec_canonical
from .algebra import Element, Verdict, WindowInsufficiency, probe_window
from .multiplier import basis_image, combine, iota, iota_element, multiplier_eq
from .extension import Extension
from .bialgebra import Counit, SliceUndefined, Slicer, solve_touched


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


def _square_injective(alg, pairs, wide, kern) -> bool:
    """On finite A, with no scaled domain, as many columns as dim A (x) A and
    no kernel, the map is an injective endomorphism of A (x) A, so onto:
    every surjectivity solve would succeed."""
    return alg.finite and wide is None and not kern and len(pairs) == len(alg.basis.ids) ** 2


def check_bijective(slicer: Slicer, which="T1") -> dict:
    """Injectivity and surjectivity verdicts for one canonical map.

    Injectivity is the kernel of the map restricted to window pairs (a
    kernel vector is a genuine global witness, since slices are exact).
    Surjectivity solves for each window pair as an image of the
    expansion-scaled domain; on an oracle algebra at expansion 1 a miss
    shows only a small window, so it raises unless injectivity failed.  A
    finite square map with no kernel is onto (``_square_injective``) and
    skips the solves, so a surjectivity witness always comes from one.
    A slice that is not an element fails all three with its pair as witness.
    """
    alg, txt = slicer.alg, slicer.txt
    ids = slicer.ids
    pairs = [(a, b) for a in ids for b in ids]
    label = txt.window_label(pairs)
    side = _CANONICAL_SIDE[which]
    scaled = slicer.delta.source_search_ids
    try:
        cols = [((a, b), slicer.slice(side, a, b).coeffs) for (a, b) in pairs]
        wide = (None if tuple(scaled) == tuple(ids) else  # the window's own factorisation serves
                [((a, b), slicer.slice(side, a, b).coeffs) for a in scaled for b in scaled])
    except SliceUndefined as exc:
        return {part: Verdict(f"{which} {part}", "failed", label, witness=exc.witness,
                              detail=str(exc))
                for part in ("injectivity", "surjectivity", "bijectivity")}
    solver = GaussianSolver(SparseMatrix.from_columns(alg.field, cols))
    kern = solver.kernel_basis()
    if kern:
        wit = Element(txt, vec_canonical(alg.field, kern[0]))
        inj = Verdict(f"{which} injectivity", "failed", label, witness=(wit,),
                      detail=f"{which} maps this to zero")
    else:
        inj = Verdict(f"{which} injectivity", txt.baseline(pairs), label)

    if wide is None:
        domain_note = "window domain"
    else:
        solver = GaussianSolver(SparseMatrix.from_columns(alg.field, wide))
        domain_note = f"domain scaled to {len(scaled)}^2 pairs"
    sur = Verdict(f"{which} surjectivity", txt.baseline(pairs), label,
                  detail=domain_note)
    for (u, v) in () if _square_injective(alg, pairs, wide, kern) else pairs:
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


def check_antipode(slicer: Slicer, epsilon: Counit, s: Extension) -> Verdict:
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
                    image = basis_image(s.basis_multiplier(pair[leg]), acts, pair[1 - leg])
                    vec_axpy(f, acc, image, c)
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
    the Extension, ``table`` holds the elements u with S(e_t) = iota(u),
    and ``verdicts`` carries the gate and the post-verification.
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
    """Solve for S(e_t) = iota(sum_k x_(t,k) e_k), gated on T1/T2 bijectivity.

    ``gate`` is a ``check_hopf`` result already computed on the same
    slicer; k runs over the basis (finite) or the expansion-scaled window
    (oracle).  Past the gate, iota(A) = M(A) for finite non-degenerate A, by the

    Theorem: a finite non-degenerate A whose slices are elements and whose
    T1 is bijective is unital.  T1 is right A-linear, so on
    A (x) A = sum_k e_k (x) A it is a matrix m of left multipliers m_kj;
    (x (x) 1)T1(e_j (x) b) = T2(x (x) e_j)(1 (x) b) with T2(x (x) e_j) an
    element; apply theta (x) id, and as the a |-> theta(xa) span A*
    (non-degeneracy), each m_kj is left multiplication by some c_kj in A.
    m' = T1^-1 is again a matrix of left multipliers, so (m'm)_11 = id is
    left multiplication by c = sum_j m'_1j(c_j1): cb = b for all b, and
    (ac - a)A = 0 gives ac = a.
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

    t_ids = alg.basis.ids if alg.finite else slicer.delta.source_search_ids
    mul = alg.basis_product
    entries: dict = {}
    rhs: dict = {}
    for a in ids:
        for b in ids:
            for which, leg, acts, _law in _ANTIPODE_LAWS:
                for pair, c in slicer.slice(_CANONICAL_SIDE[which], a, b).coeffs.items():
                    # unknown (t, k), t = pair[leg]: iota(e_k) in S(e_t), acting as e_k y or y e_k
                    y = pair[1 - leg]
                    for k in t_ids:
                        for r, w in (mul(k, y) if acts == "left" else mul(y, k)).items():
                            vec_add(f, entries, ((which, a, b, r), (pair[leg], k)), f.mul(c, w))
                vec_add(f, rhs, (which, a, b, (a, b)[1 - leg]), epsilon.value((a, b)[leg]))

    sol = solve_touched(f, entries, rhs, "antipode")
    if sol is None:
        return AntipodeSynthesis("failed", None, None, verdicts,
                                 detail="antipode equations are inconsistent")

    # S(e_t) = iota(values[t])
    values = {t: Element(alg, {k: sol[(t, k)] for k in t_ids if (t, k) in sol}) for t in t_ids}
    # reported table: all of a finite basis, else the base window only,
    # which is fully constrained
    table = {t: values[t] for t in (t_ids if alg.finite else ids)}

    def rule(bid):
        v = values.get(bid)
        if v is None:
            raise WindowInsufficiency(f"antipode not synthesized at {bid!r}")
        return iota(alg, v)

    smap = Extension(alg, alg, rule, name="S")
    post = check_antipode(slicer, epsilon, smap)
    verdicts.append(post)
    touched = len({c for _r, c in entries})
    zeroed = len(t_ids) ** 2 - touched
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


def convolve(side, f: Extension, g: Extension, frame,
             slicer: Slicer) -> Extension:
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
        return combine(alg, [(c, f.basis_multiplier(u) * g.basis_multiplier(v))
                             for (u, v), c in
                             sorted(sl.coeffs.items(), key=lambda kv: (
                                 alg.sort_key(kv[0][0]), alg.sort_key(kv[0][1])))])

    star = "*^b" if side == "right" else "*_a"
    return Extension(alg, alg, rule, name=f"({f.name}{star} {g.name})")


def conv_unit(alg, epsilon: Counit, b) -> Extension:
    """alpha_b(a) = eps(a) iota(b), the two-sided twisted-convolution unit."""
    ib = iota(alg, _as_elem(alg, b))
    return Extension(alg, alg, lambda bid: ib.scale(epsilon.value(bid)), name="alpha")


def map_eq(f: Extension, g: Extension, arg_ids, probes) -> Verdict:
    """Compare two maps A -> M(A) on arguments, multiplier-wise on probes;
    window-grade evidence (holds_on_window) when they agree."""
    alg, probes = f.source, probe_window(f.source, probes)  # one Window for every argument
    label = f"{len(tuple(arg_ids))} args x {probes.size} probes"
    for t in arg_ids:
        eq = multiplier_eq(f.basis_multiplier(t), g.basis_multiplier(t), probes)
        if not eq.ok:
            return Verdict("map equality", "failed", label,
                           witness=(alg.basis_element(t),) + tuple(eq.witness or ()),
                           detail=f"{f.name} and {g.name} differ: {eq.detail}")
    return Verdict("map equality", "holds_on_window", label)


def _frames_certified(slicer: Slicer, epsilon: Counit, f: Extension,
                      g: Extension) -> int:
    """How many leading window frames pass both convolution identities as
    identities of elements: 0 without a finite verified unit, else up to the
    first frame b, argument a or slice value that fails.

    With f(e_t) = iota(x_t) and g(e_t) = iota(y_t) recorded (``iota_element``)
    on the slice c (u (x) v) of ("right", a, b), resp. ("left", b, a), the
    frame needs sum c x_u y_v = eps(a) e_b, resp. sum c y_u x_v = eps(a) e_b.
    iota is multiplicative and a recorded value acts on every basis probe
    as its element does, from both sides, so the convolution product acts
    as iota of the sum and alpha_b(a) as iota(eps(a) e_b): equal elements
    leave ``map_eq`` no differing probe on that frame.
    """
    alg, ids = slicer.alg, slicer.ids
    if not alg.finite or alg.verified_unit is None:
        return 0
    for n, frame in enumerate(ids):
        for a in ids:
            want = alg.basis_element(frame).scale(epsilon.value(a))
            for side, key, (p, q) in (("right", (a, frame), (f, g)),
                                      ("left", (frame, a), (g, f))):
                acc: dict = {}
                for (u, v), c in slicer.slice(side, *key).coeffs.items():
                    x = iota_element(p.basis_multiplier(u))
                    y = iota_element(q.basis_multiplier(v))
                    if x is None or y is None:
                        return n
                    vec_axpy(alg.field, acc, (x * y).coeffs, c)
                if Element(alg, acc) != want:
                    return n
    return len(ids)


def check_convolution_inverse(slicer: Slicer, epsilon: Counit, f: Extension,
                              g: Extension) -> Verdict:
    """f *^b g = alpha_b and g *_a f = alpha_a for all window frames.

    With f = S and g = iota this is the convolution characterization of
    the antipode.  The frames ``_frames_certified`` decides are not swept:
    their sweeps agree, so the first failure is the full sweep's.
    """
    alg = slicer.alg
    ids = slicer.ids
    label = alg.window_label(ids)
    for frame in ids[_frames_certified(slicer, epsilon, f, g):]:
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
