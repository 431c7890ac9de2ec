"""Algebra extensions: morphisms B -> M(A) inducing a good bimodule on A.

``Extension`` is the one linear map f: B -> M(A) given on basis ids: Delta,
coactions, and the antipode, convolution maps and iota of ``hopf``.  It is
an extension, a morphism B --> A of the category the package works in,
when it is an algebra map whose induced actions b.a = f(b) |> a and
a.b = a <| f(b) make A an idempotent non-degenerate B-bimodule.

The central tool is the lift to M(B): with a = sum_i b_i . a_i in B.A and
a = sum_j a'_j . b'_j in A.B,

    fbar(x) |> a = sum_i f(lam_x(b_i)) |> a_i
    a <| fbar(x) = sum_j a'_j <| f(rho_x(b'_j))

which is well defined independently of the decompositions.  Oracle-tier
decomposition searches draw the B side from the expansion-scaled window,
since products routinely leave the base window (the certificates stay
tagged with the base window).  A tensor f (x) g acts componentwise,
Psi(x (x) y) |> (a (x) b) = (x |> a) (x) (y |> b) (``multiplier.psi_embed``),
so its spans are built from the factors' hits.

On finite B and A with verified units, validation first tries the unital
certificate f(1_B) = 1_A, read from the recorded iota preimages c_k of the f(e_k):
then a = f(1) |> a = a <| f(1) decomposes on both sides and no nonzero a
is killed, so idempotency and non-degeneracy hold with no span solved and
no kernel scanned.  Without it the decomposition and annihilator scans run.
"""

from __future__ import annotations

from copy import copy
from itertools import product

from .linalg import PairSpan, vec_axpy
from .algebra import (
    Algebra, Element, InputError, InvariantViolation, ModuleStructure, Verdict,
    WindowInsufficiency, _outer, annihilated, joint_baseline, probe_window, resolve_window,
    scaled_window, tensor_algebra,
)
from .multiplier import (Multiplier, act_on_module, basis_image, combine, iota, iota_element,
                         multiplier_eq, psi_embed)

# the decomposition a side's span gives: b.a = f(b) |> a, a.b = a <| f(b)
_FORM = {"left": "B.A", "right": "A.B"}


class Extension:
    """The linear map f: B -> M(A) given on basis ids, values cached.

    ``rule`` maps a source basis id to a Multiplier on the target.
    Constructing one gives the map; ``validate`` is the one certificate that
    it is an extension (``from_map`` constructs and certifies).  The monoidal
    check's tensor-extension instance is Delta's: (iota (x) iota) o Delta = Delta.
    """

    def __init__(self, source: Algebra, target: Algebra, rule, name="f",
                 source_window=None, target_window=None, expansion=2):
        self.source = source
        self.target = target
        self._rule = rule
        self.name = name
        self.expansion = expansion
        self.source_window = source_window
        self.target_window = target_window
        self._mult_cache: dict = {}
        self._spans: dict = {}
        self._lift_decs: dict = {}

    # -- windows ------------------------------------------------------------

    @property
    def source_ids(self):
        return resolve_window(self.source, self.source_window)

    @property
    def target_ids(self):
        return resolve_window(self.target, self.target_window)

    @property
    def source_search_ids(self):
        return scaled_window(self.source, self.source_window, self.expansion)

    def at(self, window, expansion) -> "Extension":
        """Delta on ``window`` of A and its pairs in A (x) A, searching at
        ``expansion``: itself if so bound, else a copy that shares its basis
        multipliers.  An int window of A (x) A is already the pairs'."""
        pairs = window if window is None or isinstance(window, int) else tuple(
            product(window, repeat=2))
        if (self.source_window, self.target_window, self.expansion) == (window, pairs, expansion):
            return self
        ext = copy(self)
        ext.source_window, ext.target_window = window, pairs
        ext.expansion, ext._spans, ext._lift_decs = expansion, {}, {}
        return ext

    def window_label(self):
        return (f"{self.source.window_label(self.source_ids)} -> "
                f"{self.target.window_label(self.target_ids)}")

    # -- the map ------------------------------------------------------------

    def basis_multiplier(self, bid) -> Multiplier:
        x = self._mult_cache.get(bid)
        if x is None:
            x = self._mult_cache[bid] = self._rule(bid)
        return x

    def apply(self, b: Element) -> Multiplier:
        """Linear extension of the basis rule; value in M(target)."""
        if b.space is not self.source:
            raise InputError(f"{self.name} wants elements of {self.source.name}")
        return combine(self.target, [(c, self.basis_multiplier(bid))
                                     for bid, c in b.sorted_items()])

    # -- decompositions over B.A and A.B -------------------------------------

    def _span(self, side) -> PairSpan:
        span = self._spans.get(side)
        if span is None:
            span = self._spans[side] = PairSpan(self.target.field, self._columns(side),
                                                self.source.sort_key, self.target.sort_key)
        return span

    def _columns(self, side):
        """Nonzero f(e_i) |> e_j (side "left") or e_j <| f(e_i), keyed (i, j), i
        outer: this column order fixes every decomposition."""
        hits = self._hits(side, self.source_search_ids, self.target_ids)
        return [((i, j), hit) for i, row in hits.items() for j, hit in row.items()]

    def _hits(self, side, source_ids, target_ids) -> dict:
        """source id -> {target id: its nonzero hit}, both in the given order."""
        table = {}
        for i in source_ids:
            fi = self.basis_multiplier(i)
            table[i] = {j: hit for j in target_ids if (hit := basis_image(fi, side, j))}
        return table

    def decompose(self, a: Element, side):
        """a = sum c * (f(e_i) |> e_j) (side "left", over B.A) or sum c *
        (e_j <| f(e_i)) (side "right", over A.B), pivot-order first solution, or None."""
        return self._span(side).decompose(a.coeffs)

    # -- lift to M(B) --------------------------------------------------------

    def lift(self, x: Multiplier) -> Multiplier:
        """fbar(x) in M(target) for x in M(source); fbar o iota_B = f."""
        if x.alg is not self.source:
            raise InputError("lift wants a multiplier on the source algebra")
        return Multiplier(self.target, self._lift_rule(x, "left"), self._lift_rule(x, "right"),
                          name=f"{self.name}-bar({x.name or '?'})")

    def _lift_rule(self, x: Multiplier, side):
        """The basis action on ``side`` of the lift of x, over ``_FORM[side]``.

        The decomposition of a target basis id depends only on the side, so
        it is solved once per extension and shared by every lifted multiplier.
        """
        src, tgt, field = self.source, self.target, self.target.field

        def rule(bid):
            dec = self._lift_decs.get((side, bid))
            if dec is None:
                a = tgt.basis_element(bid)
                dec = self.decompose(a, side)
                if dec is None:
                    raise InvariantViolation(self._undecomposable(a, _FORM[side]))
                self._lift_decs[(side, bid)] = dec
            # f(x |> e_i) |> e_j summed term by term over x |> e_i = sum d e_k
            acc: dict = {}
            for c, i, j in dec:
                for k, d in Element(src, basis_image(x, side, i)).sorted_items():
                    hit = basis_image(self.basis_multiplier(k), side, j)
                    if hit:
                        vec_axpy(field, acc, hit, field.mul(c, d))
            return Element(tgt, acc)

        return rule

    # -- validation ----------------------------------------------------------

    def validate(self) -> list:
        """Certificate verdicts over every window pair; WindowInsufficiency on a
        miss that a larger window may mend."""
        src_ids = self.source_ids
        base = joint_baseline((self.source, src_ids), (self.target, self.target_ids))
        label = self.window_label()

        pairs = [(i, j) for i in src_ids for j in src_ids]
        probes = probe_window(self.target, self.target_window)
        mult_v = Verdict("extension multiplicativity", base, label,
                         detail=f"{len(pairs)} pairs")
        for i, j in pairs:
            e_ij = self.source.mul_basis(i, j)
            cs = [iota_element(self.basis_multiplier(k)) for k in (i, j, *e_ij.coeffs)]
            if None not in cs and cs[0] * cs[1] == sum(
                    (c.scale(m) for c, m in zip(cs[2:], e_ij.coeffs.values())),
                    self.target.zero()):
                continue  # every f(e_k) = iota(c_k), iota injective: holds at (i, j)
            prod = self.apply(e_ij)
            direct = self.basis_multiplier(i) * self.basis_multiplier(j)
            eq = multiplier_eq(prod, direct, probes)
            if not eq.ok:
                mult_v = Verdict(
                    "extension multiplicativity", "failed", label,
                    witness=(self.source.basis_element(i), self.source.basis_element(j)),
                    detail=f"f(ei*ej) != f(ei)f(ej) at probe {eq.witness[0]}")
                break

        # f(1) = 1 on finite, fully covered windows decides the two scans
        unital = base == "proven" and self._maps_unit_to_unit()
        idem_v = Verdict("extension idempotency", base, label)
        for j in () if unital else self.target_ids:
            a = self.target.basis_element(j)
            missing = next((s for s in _FORM if self.decompose(a, s) is None), None)
            if missing:
                idem_v = self._undecomposable(a, _FORM[missing])
                break

        nondeg_v = Verdict("extension non-degeneracy", base, label)
        for side in () if unital else ("right", "left"):
            w = annihilated(self.target, self.target_ids, self.source_search_ids,
                            lambda t, i, side=side: basis_image(self.basis_multiplier(i), side, t))
            if w is not None:
                if base != "proven" and self.source.finite and self.target.finite:
                    raise WindowInsufficiency(f"{w} is killed by every f(b) on the {side} over "
                                              f"{label}; enlarge the window")
                nondeg_v = Verdict("extension non-degeneracy", "failed", label,
                                   witness=(w,),
                                   detail=f"killed by every f(b) on the {side}")
                break
        return [mult_v, idem_v, nondeg_v]

    def _maps_unit_to_unit(self) -> bool:
        """f(1_B) = 1_A: each f(e_k), k in the support of B's verified unit u,
        is a certified iota(c_k), and sum u_k c_k is A's verified unit."""
        u = self.source.verified_unit
        if u is None:
            return False
        acc: dict = {}
        for k, uk in u.coeffs.items():
            c = iota_element(self.basis_multiplier(k))
            if c is None:
                return False
            vec_axpy(self.target.field, acc, c.coeffs, uk)
        return Element(self.target, acc) == self.target.verified_unit

    def _undecomposable(self, a, what) -> Verdict:
        """Idempotency fails at a, with no ``what`` ("B.A" or "A.B") decomposition;
        a window short of its basis, oracle or id tuple, may just be too small
        (WindowInsufficiency)."""
        if not (self.source.covers_fully(self.source_ids)
                and self.target.covers_fully(self.target_ids)):
            raise WindowInsufficiency(f"{a} of {self.target.name} has no {what} decomposition "
                                      f"over {self.window_label()}; enlarge the window")
        return Verdict("extension idempotency", "failed", self.window_label(), witness=(a,),
                       detail=f"no {what} decomposition")

    def ensure_valid(self) -> "Extension":
        """``validate``, raising InvariantViolation on the first failed certificate."""
        for v in self.validate():
            if not v.ok:
                raise InvariantViolation(v)
        return self

    @classmethod
    def from_map(cls, source, target, rule, name="f"):
        return cls(source, target, rule, name=name).ensure_valid()


def identity_extension(alg: Algebra, window=None, expansion=2) -> Extension:
    """iota: A -> M(A), the identity morphism A --> A."""
    return Extension(alg, alg, lambda bid: iota(alg, alg.basis_element(bid)), name="iota",
                     source_window=window, target_window=window, expansion=expansion)


def compose_extensions(f: Extension, g: Extension) -> Extension:
    """g after f: the structure map is gbar o f, from B into M(R)."""
    if f.target is not g.source:
        raise InputError("compose_extensions: target of f must be source of g")
    return Extension(
        f.source, g.target, lambda bid: g.lift(f.basis_multiplier(bid)),
        name=f"{g.name}o{f.name}", source_window=f.source_window,
        target_window=g.target_window, expansion=max(f.expansion, g.expansion))


class TensorExtension(Extension):
    """f (x) g: B (x) B' --> A (x) A', structure map Psi o (f (x) g).

    Psi(x (x) y) |> (a (x) b) = (x |> a) (x) (y |> b), so every span column
    is the tensor of two factor hits.  Each factor's nonzero hits are
    tabulated once over the components of this extension's ids, and no
    Psi multiplier is applied to a basis element of A (x) A'.
    """

    def __init__(self, f: Extension, g: Extension):
        super().__init__(
            tensor_algebra(f.source, g.source), tensor_algebra(f.target, g.target),
            lambda bid: psi_embed((f.basis_multiplier(bid[0]), g.basis_multiplier(bid[1]))),
            name=f"{f.name}(x){g.name}",
            source_window=_join_windows(f.source_window, g.source_window),
            target_window=_join_windows(f.target_window, g.target_window),
            expansion=max(f.expansion, g.expansion))
        self.factors = (f, g)

    def _columns(self, side):
        # product windows: each row's pairs of factor hits come in target order
        src, tgt = (probe_window(sp, ids) for sp, ids in (
            (self.source, self.source_search_ids), (self.target, self.target_ids)))
        h1, h2 = (fac._hits(side, s.ids, t.ids)
                  for fac, s, t in zip(self.factors, src.factors, tgt.factors))
        field = self.target.field
        return [(((i1, i2), (t, u)), _outer(field, h1[i1][t], h2[i2][u]))
                for i1, i2 in src for t, u in product(h1[i1], h2[i2])]


def _join_windows(w1, w2):
    """The smaller int window, else None (an explicit id tuple does not join)."""
    ints = [w for w in (w1, w2) if isinstance(w, int)]
    return min(ints) if ints else None


def restrict_module(ext: Extension, module: ModuleStructure) -> ModuleStructure:
    """Pull a target-algebra module back to the source along the extension,
    on the module's side: m . b = m <| f(b), or f(b) |> m.  m decomposes
    over the source window and the target's expansion-scaled window."""
    if module.algebra is not ext.target:
        raise InputError("restrict_module: module is not over the extension target")
    a_ids = scaled_window(ext.target, ext.target_window, ext.expansion)

    def rule(m_id, b_id):
        m = module.space.basis_element(m_id)
        return act_on_module(module, m, ext.basis_multiplier(b_id),
                             window_m=ext.source_window, window_a=a_ids).coeffs

    return ModuleStructure(module.space, ext.source, module.side, rule,
                           name=f"{module.name} along {ext.name}")
