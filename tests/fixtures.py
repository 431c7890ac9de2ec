"""Helpers that only the tests call: seeded random algebras and extensions
(deterministic per seed), a damaged antipode, derived structures on
bundles, the non-commutative Hopf algebra kS3 as spec text, canonical maps,
and maps for the twisted convolution calculus."""

from __future__ import annotations

import random

from mulhopf.algebra import (
    Algebra, Element, InputError, ModuleStructure, finite_algebra, resolve_window,
    tensor_algebra,
)
from mulhopf.bialgebra import MultiplierBialgebra, Slicer
from mulhopf.extension import Extension, identity_extension
from mulhopf.fields import QQ
from mulhopf.hopf import _CANONICAL_SIDE, _as_elem
from mulhopf.linalg import vec_axpy
from mulhopf.multiplier import combine, iota
from mulhopf.specfile import build_bundle, parse_spec


# ---------------------------------------------------------------------------
# derived structures on bundles


def perturb_antipode_map(bundle: MultiplierBialgebra, seed: int) -> Extension:
    """Deterministically damaged copy of the bundled antipode.

    Either scales one window value or adds a stray iota term; since the
    antipode of a Hopf structure is unique, either change must fail the
    defining identities.
    """
    if bundle.antipode is None:
        raise InputError(f"{bundle.name} has no antipode to perturb")
    alg = bundle.algebra
    rng = random.Random(seed)
    ids = list(resolve_window(alg, bundle.window))
    t = rng.choice(ids)
    true_s = bundle.antipode
    if rng.random() < 0.5:
        c = alg.field.coerce(rng.randint(2, 7))
        changed = true_s.basis_multiplier(t).scale(c)
        tag = f"scaled by {alg.field.format(c)}"
    else:
        u = rng.choice(ids)
        changed = true_s.basis_multiplier(t) + iota(alg, alg.basis_element(u))
        tag = f"shifted by iota({alg.fmt_id(u)})"

    def rule(bid):
        return changed if bid == t else true_s.basis_multiplier(bid)

    return Extension(alg, alg, rule, name=f"S-perturbed[{alg.fmt_id(t)} {tag}]")


def self_comodule(bundle: MultiplierBialgebra) -> tuple:
    """Every comultiplication makes its algebra a comodule algebra over itself:
    (gamma, dsl) are both Delta's Slicer on the bundle's window."""
    sl = bundle.slicer()
    return sl, sl


def trivial_module_algebra(bundle: MultiplierBialgebra) -> ModuleStructure:
    """A acting on itself through eps: r <| a = eps(a) r; a module algebra."""
    A = bundle.algebra

    def rule(r_id, a_id):
        v = bundle.epsilon(A.basis_element(a_id))
        return {r_id: v} if v else {}

    return ModuleStructure(A, A, "right", rule, name=f"{A.name} via eps")


def every_pair_product(x: Element, y: Element) -> Element:
    """x * y the plain way, the reference for element products: every term
    pair through ``basis_product``, x's terms outer and y's inner, no filter."""
    alg = x.space
    f, acc = alg.field, {}
    for i, ci in x.coeffs.items():
        for j, cj in y.coeffs.items():
            vec_axpy(f, acc, alg.basis_product(i, j), f.mul(ci, cj))
    return Element(alg, acc)


# ---------------------------------------------------------------------------
# a non-commutative Hopf input


S3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def s3_id(p) -> str:
    """Basis id of a permutation of {0, 1, 2} in one-line notation: p012 is 1."""
    return "p" + "".join(map(str, p))


def s3_mul(p, q) -> tuple:
    """pq: q first, then p."""
    return tuple(p[i] for i in q)


def s3_inv(p) -> tuple:
    return tuple(sorted(range(3), key=p.__getitem__))


def ks3_spec() -> str:
    """Spec text of the group algebra kS3 over Q, Delta(g) = g (x) g.

    36 ``mul`` lines from the permutation table, the unit, and 216 ``delta``
    lines Delta(g)(p (x) q) = gp (x) gq.  No counit or antipode line: both
    are synthesized.  kS3 is non-commutative and cocommutative, so a left
    and a right action differ on it where on K(Z/n) they agree.
    """
    lines = ["field Q", "basis " + " ".join(map(s3_id, S3))]
    lines += [f"mul {s3_id(p)} {s3_id(q)} = 1*{s3_id(s3_mul(p, q))}" for p in S3 for q in S3]
    lines.append(f"unit = 1*{s3_id(S3[0])}")
    lines += [f"delta {s3_id(g)} ({s3_id(p)},{s3_id(q)}) = "
              f"1*({s3_id(s3_mul(g, p))},{s3_id(s3_mul(g, q))})"
              for g in S3 for p in S3 for q in S3]
    return "\n".join(lines) + "\n"


def ks3_bundle() -> MultiplierBialgebra:
    """kS3 built from ``ks3_spec``, its counit and antipode left to synthesis."""
    return build_bundle(parse_spec(ks3_spec()), name="kS3").bialgebra


def adjoint_module(alg: Algebra, side) -> ModuleStructure:
    """kS3 acting on itself by conjugation: g |> b = g b g^-1 on the left,
    b <| g = g^-1 b g on the right; a module algebra on either side."""
    perm = {s3_id(p): p for p in S3}

    def rule(b_id, g_id):
        g, b = perm[g_id], perm[b_id]
        inner, outer = (g, s3_inv(g)) if side == "left" else (s3_inv(g), g)
        return {s3_id(s3_mul(s3_mul(inner, b), outer)): alg.field.one}

    return ModuleStructure(alg, alg, side, rule, name=f"{alg.name} ({side} adjoint)")


# ---------------------------------------------------------------------------
# seeded random families (property-test fodder, deterministic per seed)


_STRUCTURES = ("diagonal", "cyclic_group", "upper_triangular", "full_matrix")


def random_algebra(seed: int, field=QQ) -> Algebra:
    """Known-good structure conjugated by a seeded invertible basis change.

    Base structures are k^n, the group algebra of Z/n, upper-triangular
    2x2 matrices, or all of M_2(k); all associative, idempotent, and
    non-degenerate, properties a basis change preserves.
    """
    rng = random.Random(seed)
    kind = rng.choice(_STRUCTURES)
    if kind == "diagonal":
        dim = rng.randint(2, 4)
        structure = {(i, i, i): field.one for i in range(dim)}
    elif kind == "cyclic_group":
        dim = rng.randint(2, 4)
        structure = {(i, j, (i + j) % dim): field.one
                     for i in range(dim) for j in range(dim)}
    else:
        units = ([(0, 0), (0, 1), (1, 1)] if kind == "upper_triangular"
                 else [(0, 0), (0, 1), (1, 0), (1, 1)])
        dim = len(units)
        structure = {}
        for a, (ra, ca) in enumerate(units):
            for b, (rb, cb) in enumerate(units):
                if ca == rb:
                    structure[(a, b, units.index((ra, cb)))] = field.one
    P, Pinv = _random_change(rng, field, dim)
    table: dict = {}
    for i in range(dim):
        for j in range(dim):
            acc = [field.zero] * dim
            for a in range(dim):
                if not P[i][a]:
                    continue
                for b in range(dim):
                    c = field.mul(P[i][a], P[j][b])
                    if not c:
                        continue
                    for (sa, sb, sc), v in structure.items():
                        if sa == a and sb == b:
                            for t in range(dim):
                                acc[t] = field.add(
                                    acc[t], field.mul(c, field.mul(v, Pinv[sc][t])))
            coeffs = {t: acc[t] for t in range(dim) if acc[t]}
            if coeffs:
                table[(i, j)] = coeffs
    return finite_algebra(field, list(range(dim)), table,
                          name=f"rand[{seed}:{kind}]", fmt_id=lambda i: f"f{i}")


def _random_change(rng, field, dim):
    """Invertible P (unit-triangular product) and its exact inverse."""
    lower = [[field.one if i == j else
              (field.coerce(rng.randint(-2, 2)) if i > j else field.zero)
              for j in range(dim)] for i in range(dim)]
    upper = [[field.one if i == j else
              (field.coerce(rng.randint(-2, 2)) if i < j else field.zero)
              for j in range(dim)] for i in range(dim)]

    def matmul(X, Y):
        return [[_dot(field, X[i], [Y[k][j] for k in range(dim)])
                 for j in range(dim)] for i in range(dim)]

    def inv_unit_tri(M, lower_tri):
        # forward substitution column by column; diagonal is all ones
        N = [[field.one if i == j else field.zero for j in range(dim)]
             for i in range(dim)]
        order = tuple(range(dim)) if lower_tri else tuple(range(dim - 1, -1, -1))
        for col in range(dim):
            for i in order:
                s = field.zero
                for k in (range(i) if lower_tri else range(i + 1, dim)):
                    s = field.add(s, field.mul(M[i][k], N[k][col]))
                N[i][col] = field.sub(field.one if i == col else field.zero, s)
        return N

    P = matmul(lower, upper)
    Pinv = matmul(inv_unit_tri(upper, False), inv_unit_tri(lower, True))
    return P, Pinv


def _dot(field, xs, ys):
    acc = field.zero
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def random_extension(seed: int, field=QQ) -> Extension:
    """Seeded extension drawn from four shapes.

    Identity on a random algebra; a coordinate projection k^d -> k^d'
    (dual to an injection of point sets); a block-diagonal embedding
    k^d' -> k^d (dual to a surjection); or the group-algebra map induced
    by Z/n ->> Z/m for m dividing n.
    """
    rng = random.Random(seed)
    shape = rng.choice(("identity", "projection", "blocks", "group_quotient"))
    one = field.one
    if shape == "identity":
        return identity_extension(random_algebra(rng.randint(0, 10**6), field=field))
    if shape == "projection":
        d = rng.randint(2, 4)
        dp = rng.randint(1, d)
        B = _kpow(field, d, f"kp{d}")
        A = _kpow(field, dp, f"kp{dp}x")
        return Extension(B, A,
                         lambda i: (iota(A, A.basis_element(i)) if i < dp
                                    else combine(A, ())),
                         name=f"proj[{seed}]")
    if shape == "blocks":
        dp = rng.randint(1, 3)
        sizes = [rng.randint(1, 2) for _ in range(dp)]
        d = sum(sizes)
        B = _kpow(field, dp, f"kp{dp}")
        A = _kpow(field, d, f"kp{d}y")
        starts = [sum(sizes[:i]) for i in range(dp)]

        def rule(i):
            block = Element(A, {starts[i] + r: one for r in range(sizes[i])})
            return iota(A, block)

        return Extension(B, A, rule, name=f"blocks[{seed}]")
    m = rng.randint(1, 3)
    n = m * rng.randint(1, 3)
    B = _group_algebra(field, n)
    A = _group_algebra(field, m)
    return Extension(B, A, lambda i: iota(A, A.basis_element(i % m)),
                     name=f"quot[{seed}]")


def random_coproduct_bundle(seed: int, unital=False) -> MultiplierBialgebra:
    """Delta(e_k) = iota(t_k), t_k seeded in A (x) A, on random_algebra(seed);
    with ``unital``, on k^d with the last t_k set so that Delta(1) = 1 (x) 1.

    Every slice exists, and coassociativity usually fails somewhere.
    """
    rng = random.Random(seed)
    A = _kpow(QQ, rng.randint(2, 3), f"kp[{seed}]") if unital else random_algebra(seed)
    AA = tensor_algebra(A, A)
    ids = A.basis.ids
    t = {k: AA.element({(i, j): rng.randint(-1, 1) for i in ids for j in ids})
         for k in ids}
    if unital:
        *rest, last = ids
        t[last] = AA.element({(i, j): QQ.one for i in ids for j in ids})
        for k in rest:
            t[last] = t[last] - t[k]
    delta = Extension(A, AA, lambda k: iota(AA, t[k]), name=f"Delta[{seed}]")
    return MultiplierBialgebra(A, delta, None)


def _kpow(field, d, name):
    return finite_algebra(
        field, list(range(d)), {(i, i): {i: field.one} for i in range(d)},
        unit={i: field.one for i in range(d)}, name=name,
        fmt_id=lambda i: f"p{i}")


def _group_algebra(field, n):
    return finite_algebra(
        field, list(range(n)),
        {(i, j): {(i + j) % n: field.one} for i in range(n) for j in range(n)},
        unit={0: field.one}, name=f"k[Z/{n}]", fmt_id=lambda i: f"g{i}")


# ---------------------------------------------------------------------------
# canonical maps, and maps A -> M(A) for the twisted convolution calculus


def span_map(alg, rng, ids):
    """a -> iota(c * a * c') with small seeded window elements c, c'."""
    c = alg.element({i: QQ.coerce(rng.randint(-2, 2)) for i in ids})
    cp = alg.element({i: QQ.coerce(rng.randint(-2, 2)) for i in ids})
    return Extension(alg, alg, lambda bid: iota(alg, (c * alg.basis_element(bid)) * cp),
                         name="span")


def canonical_map(slicer: Slicer, which, x: Element) -> Element:
    """Apply T1 or T2 to an element of A (x) A."""
    if x.space is not slicer.txt:
        raise InputError("canonical maps act on A (x) A")
    acc: dict = {}
    for (a, b), c in x.coeffs.items():
        vec_axpy(slicer.alg.field, acc, slicer.slice(_CANONICAL_SIDE[which], a, b).coeffs, c)
    return Element(slicer.txt, acc)


def source_twist(f: Extension, left=None, right=None) -> Extension:
    """(b . f . b')(a) = f(b' a b) with left=b, right=b'."""
    alg = f.source
    b = _as_elem(alg, left) if left is not None else None
    bp = _as_elem(alg, right) if right is not None else None

    def rule(bid):
        x = alg.basis_element(bid)
        if bp is not None:
            x = bp * x
        if b is not None:
            x = x * b
        return f.apply(x)

    return Extension(alg, alg, rule, name=f"twist({f.name})")


def target_frame(f: Extension, left=None, right=None) -> Extension:
    """(b ⇀ f ↼ b')(a) = iota(b) f(a) iota(b')."""
    alg = f.source
    ib = iota(alg, _as_elem(alg, left)) if left is not None else None
    ibp = iota(alg, _as_elem(alg, right)) if right is not None else None

    def rule(bid):
        x = f.basis_multiplier(bid)
        if ib is not None:
            x = ib * x
        if ibp is not None:
            x = x * ibp
        return x

    return Extension(alg, alg, rule, name=f"frame({f.name})")
