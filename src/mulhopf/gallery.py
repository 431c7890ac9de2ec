"""Worked examples: finite function algebras, finitely supported function
algebras on countable monoids, matrix-unit algebras, and the small
degenerate algebras used as negative controls.

Every entry is exact.  The infinite-dimensional entries are oracle
algebras with certified local units (indicator sums over the window), so
all window computations downstream are exact too.

``build("kfun_cyclic(4)")`` style names are what the command line accepts;
the Python builders take keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .algebra import (
    Algebra, Element, InputError, finite_algebra, oracle_algebra, tensor_algebra,
)
from .multiplier import Multiplier, iota
from .extension import Extension
from .bialgebra import Counit, MultiplierBialgebra


@dataclass
class GalleryEntry:
    name: str
    algebra: Algebra
    bialgebra: MultiplierBialgebra | None = None
    default_window: int | None = None
    coaction: Extension | None = None  # a declared coaction B --> M(B (x) A)


# ---------------------------------------------------------------------------
# k-valued functions on Z/n: finite, unital, the everything-works example


def kfun_cyclic(n: int, field=QQ) -> GalleryEntry:
    """Functions on the cyclic group of order n, pointwise product.

    delta(d_k) = sum_{i+j=k} d_i (x) d_j, eps(d_k) = [k = 0],
    S(d_k) = d_{-k}; a finite multiplier Hopf structure (everything is
    honest and unital here, which makes it the base case the oracle
    entries are checked against).
    """
    if n < 1:
        raise InputError("kfun_cyclic needs n >= 1")
    ids = list(range(n))
    one = field.one
    table = {(i, i): {i: one} for i in ids}
    unit = {i: one for i in ids}
    A = finite_algebra(field, ids, table, unit=unit,
                       name=f"kfun_cyclic({n})", fmt_id=lambda i: f"d{i}")
    AA = tensor_algebra(A, A)

    def delta_rule(k):
        elem = Element(AA, {(i, (k - i) % n): one for i in ids})
        return iota(AA, elem)

    delta = Extension(A, AA, delta_rule, name="Delta")
    eps = Counit(A, {k: (one if k == 0 else field.zero) for k in ids})
    smap = Extension(A, A, lambda t: iota(A, A.basis_element((n - t) % n)), name="S")
    bundle = MultiplierBialgebra(A, delta, eps, A.basis_element(0),
                                 name=f"kfun_cyclic({n})", antipode=smap)
    return GalleryEntry(f"kfun_cyclic({n})", A, bundle)


# ---------------------------------------------------------------------------
# finitely supported functions on Z: the flagship oracle example


def _kfin_monoid(field, window, name, describe, member, span) -> MultiplierBialgebra:
    """Finitely supported functions on an additive monoid of integers.

    ``member(i)`` says which integers belong to the monoid and ``span(n)``
    lists window n.  Pointwise product with indicator-sum local units,
    delta(d_k) the indicator of i + j = k, eps(d_k) = [k = 0]; no antipode.
    """
    one = field.one
    A = oracle_algebra(
        field,
        contains=lambda bid: isinstance(bid, int) and not isinstance(bid, bool) and member(bid),
        window=span,
        mul_rule=lambda i, j: ({i: one} if i == j else {}),
        local_unit_for=lambda ids: {i: one for i in ids},
        describe=describe, name=name, fmt_id=lambda i: f"d{i}")
    AA = tensor_algebra(A, A)

    def delta_rule(k):
        def lam(bid):
            return Element(AA, {bid: one} if bid[0] + bid[1] == k else {})
        return Multiplier(AA, lam, lam, name=f"Delta(d{k})")

    delta = Extension(A, AA, delta_rule, name="Delta",
                      source_window=window, target_window=window)
    eps = Counit(A, lambda bid: one if bid == 0 else field.zero)
    return MultiplierBialgebra(A, delta, eps, A.basis_element(0), window=window, name=name)


def kfin_Z(field=QQ, window=4) -> GalleryEntry:
    """Finitely supported functions on the integers, pointwise product.

    No unit, but indicator sums over any window are local units.  The
    additive-group comultiplication delta(d_k) acts as the indicator of
    i + j = k; eps(d_k) = [k = 0]; S(d_k) = d_{-k}.  Infinite-dimensional,
    so every verdict is window-relative.
    """
    bundle = _kfin_monoid(field, window, "kfin_Z", "K(Z)",
                          lambda i: True, lambda n: range(-n, n + 1))
    A = bundle.algebra
    bundle.antipode = Extension(A, A, lambda t: iota(A, A.basis_element(-t)), name="S")
    return GalleryEntry("kfin_Z", A, bundle, default_window=window)


def kfin_N(field=QQ, window=4) -> GalleryEntry:
    """Finitely supported functions on the naturals.

    Same pointwise product and additive comultiplication as kfin_Z, but
    the monoid has no inverses: T1 degenerates (d_0 (x) d_1 maps to zero)
    and no antipode exists.  Its role is to exercise the failure paths.
    """
    bundle = _kfin_monoid(field, window, "kfin_N", "K(N)",
                          lambda i: i >= 0, lambda n: range(0, n + 1))
    return GalleryEntry("kfin_N", bundle.algebra, bundle, default_window=window)


# ---------------------------------------------------------------------------
# matrix units over N x N: non-commutative oracle algebra


def matfin(field=QQ, window=3) -> GalleryEntry:
    """Matrix units E_ij, i, j natural numbers, E_ij E_kl = [j=k] E_il.

    Finitely supported infinite matrices; sum of E_ii over the window
    indices is a local unit.  Associative, idempotent, non-degenerate,
    and non-commutative; no comultiplication is bundled.
    """
    one = field.one

    def contains(bid):
        return (isinstance(bid, tuple) and len(bid) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) and x >= 0
                        for x in bid))

    def local(ids):
        diag = sorted({x for pair in ids for x in pair})
        return {(i, i): one for i in diag}

    A = oracle_algebra(
        field, contains=contains,
        window=lambda n: tuple((i, j) for i in range(n + 1) for j in range(n + 1)),
        mul_rule=lambda p, q: ({(p[0], q[1]): one} if p[1] == q[0] else {}),
        local_unit_for=local,
        describe="MatFin(N)", name="matfin",
        fmt_id=lambda p: f"E({p[0]},{p[1]})")
    return GalleryEntry("matfin", A, default_window=window)


# ---------------------------------------------------------------------------
# negative controls


def rowalg2(field=QQ) -> GalleryEntry:
    """Span of E11, E12 inside 2x2 matrices.

    Has left local units (E11) but no right ones; E12 annihilates the
    whole algebra from the left, so non-degeneracy fails with witness E12.
    """
    one = field.one
    A = finite_algebra(
        field, ["E11", "E12"],
        {("E11", "E11"): {"E11": one}, ("E11", "E12"): {"E12": one}},
        name="rowalg2")
    return GalleryEntry("rowalg2", A)


def zero1(field=QQ) -> GalleryEntry:
    """One-dimensional algebra with zero multiplication; fails idempotency."""
    A = finite_algebra(field, ["z"], {}, name="zero1")
    return GalleryEntry("zero1", A)


def nand_delta_bundle(field=QQ) -> MultiplierBialgebra:
    """Perturbed coproduct on kfun_cyclic(2): delta(d_k) = indicator of
    NAND(i, j) = k.

    A perfectly valid extension (the fibers partition the square), but
    NAND is not associative, so sliced coassociativity fails; the first
    witness triple in scan order is (d0, d0, d1).
    """
    base = kfun_cyclic(2, field=field)
    A = base.algebra
    AA = tensor_algebra(A, A)
    one = field.one
    fibers = {0: [(1, 1)], 1: [(0, 0), (0, 1), (1, 0)]}

    def delta_rule(k):
        return iota(AA, Element(AA, {p: one for p in fibers[k]}))

    delta = Extension(A, AA, delta_rule, name="Delta~")
    eps = base.bialgebra.epsilon
    return MultiplierBialgebra(A, delta, eps, A.basis_element(0),
                               name="kfun_cyclic(2)+nand-delta")


def nand_delta(field=QQ) -> GalleryEntry:
    b = nand_delta_bundle(field)
    return GalleryEntry("nand_delta", b.algebra, bialgebra=b)


# ---------------------------------------------------------------------------
# registry


# name -> (builder, integer parameter names, whether it takes a window)
_BUILDERS = {
    "kfun_cyclic": (kfun_cyclic, ("n",), False),
    "kfin_Z": (kfin_Z, (), True),
    "kfin_N": (kfin_N, (), True),
    "matfin": (matfin, (), True),
    "rowalg2": (rowalg2, (), False),
    "zero1": (zero1, (), False),
    "nand_delta": (nand_delta, (), False),
}


def gallery_names():
    return tuple(_BUILDERS)


def build(spec: str) -> GalleryEntry:
    """Resolve "name" or "name(args)" against the registry."""
    spec = spec.strip()
    if "(" in spec:
        if not spec.endswith(")"):
            raise InputError(f"malformed gallery name {spec!r}")
        name, argstr = spec[:-1].split("(", 1)
        args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    else:
        name, args = spec, []
    try:
        values = [int(a) for a in args]
    except ValueError:
        raise InputError(f"gallery parameters must be integers: {spec!r}") from None
    return build_entry(name, values)


def build_entry(name: str, params=(), field=QQ, window=None) -> GalleryEntry:
    """Registry entry ``name`` over ``field`` from its integer ``params``.

    Windowed builders get ``window`` when one is given, else their default.
    """
    entry = _BUILDERS.get(name)
    if entry is None:
        raise InputError(
            f"unknown gallery entry {name!r}; known: {', '.join(sorted(gallery_names()))}")
    builder, param_names, windowed = entry
    if len(params) != len(param_names):
        raise InputError(f"{name} takes {len(param_names)} parameter(s), "
                         f"got {len(params)}")
    if not windowed or window is None:
        return builder(*params, field=field)
    return builder(*params, field=field, window=window)
