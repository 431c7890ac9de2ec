"""Comodule algebras and module algebras over a comultiplication.

A right comodule algebra over (A, Delta) is an algebra B with an
extension rho: B --> B (x) A that is coassociative and counital.  Both
laws are checked in their framed multiplier forms, for all window pairs
(b in B, a in A):

    (rho (x) id)-bar( rho(b)(1 (x) a) )
        = (id (x) Delta)-bar( rho(b) ) (1 (x) 1 (x) a)       [coassociativity]

    (id (x) eps)-bar( rho(b)(1 (x) a) ) = eps(a) iota(b)     [counit law]

The coassociativity left side uses the slice rho(b)(1 (x) a) when it is
iota of an element, else the lift; the right side lifts rho(b) along
id (x) Delta.  A framed variant with an extra (c (x) 1 (x) 1) replaces the
lift by a left slice on capped probes, and the element form compares
elements of B (x) A (x) A built from slices.  That is ``bialgebra``'s one
sliced-coassociativity engine, and the counit law uses its eps-contraction:
A over itself with rho = Delta is the regular comodule, whose laws are
Delta's.  On certified finite inputs all three forms are decided by one
element identity per basis element (``bialgebra._certified_coassoc``), so
the framed variant is an independent computation route only where slices
are not certified; every failure still comes from the sweeps.

Every check takes the run's Slicers as handles: ``gamma`` slices the
coaction and ``dsl`` slices Delta, each bound to its window and expansion,
which the lifts search at too; the regular comodule passes Delta's as both.

A right module algebra is a right A-module on an algebra B whose
multiplication intertwines the diagonal action:

    mu((b (x) b') <| Delta(a)) = (b b') <| a.
"""

from __future__ import annotations

from .linalg import vec_axpy
from .algebra import (
    Algebra, Element, InputError, InvariantViolation, ModuleStructure, Verdict, joint_baseline,
    probe_window, resolve_window, tensor_algebra, tensor_elem, tensor_module,
)
from .multiplier import act_on_module, basis_image, iota, one, psi_embed, sweep
from .extension import TensorExtension, identity_extension
from .bialgebra import (
    Counit, Slicer, SliceUndefined, _certified_coassoc, _collapse, _sliced_coassoc,
)


def _check_target(gamma: Slicer, A: Algebra) -> None:
    if gamma.lfac is not gamma.alg or gamma.rfac is not A:
        raise InputError("coaction must land in M(B (x) A)")


def _coassoc_setup(gamma: Slicer, dsl: Slicer, max_probes):
    """What both multiplier forms of coassociativity share.

    Returns (B (x) A) (x) A, rho (x) id, id (x) Delta, the frames
    Psi(1 (x) 1 (x) e_a) per window id a, the number of capped probes of
    (B (x) A) (x) A, the window status, and ``differs(lhs, rhs)``: the
    first probe on which the two sides act differently and on which side
    ("left" or "right"), or None.  The probes are the first ``max_probes`` of
    two product windows, ((b, a), a') and (b, (a, a')) for rhs, in step.
    """
    B, A = gamma.alg, dsl.alg
    _check_target(gamma, A)
    triple_l = tensor_algebra(gamma.txt, A)  # (B(x)A)(x)A
    triple_r = tensor_algebra(B, dsl.txt)    # B(x)(A(x)A)
    rho_x_id = TensorExtension(
        gamma.delta, identity_extension(A, window=dsl.window, expansion=dsl.expansion))
    id_x_delta = TensorExtension(
        identity_extension(B, window=gamma.window, expansion=gamma.expansion), dsl.delta)
    one_a = one(A)
    frames = {a: psi_embed([one(B), psi_embed([one_a, iota(A, A.basis_element(a))])],
                           into=triple_r) for a in dsl.ids}
    probes, probes_r = (probe_window(t, gamma.window, max_probes) for t in (triple_l, triple_r))
    status = joint_baseline((B, gamma.ids), (A, dsl.ids), (triple_l, probes))

    def differs(lhs, rhs):
        for n, side in sweep((lhs, probes), (rhs, probes_r)):
            got = {((i, j), k): v for (i, (j, k)), v in
                   basis_image(rhs, side, probes_r.ids[n]).items()}
            if got != basis_image(lhs, side, probes.ids[n]):
                return triple_l.basis_element(probes.ids[n]), side
        return None

    return triple_l, rho_x_id, id_x_delta, frames, probes.size, status, differs


def check_comodule_coassoc(gamma: Slicer, dsl: Slicer) -> Verdict:
    """Framed coassociativity of the coaction on all window pairs.

    ``gamma`` slices the coaction B --> B (x) A and ``dsl`` slices Delta
    of A.  The pair form is checked against every window probe; the right
    side is lifted along id (x) Delta, so no iota membership is needed (a
    finite lift that does not exist fails, the undecomposable id as witness).
    """
    _t, rho_x_id, id_x_delta, frames, n_probes, status, differs = \
        _coassoc_setup(gamma, dsl, None)
    B, A = gamma.alg, dsl.alg
    label = f"{B.window_label(gamma.ids)} / {A.window_label(dsl.ids)}, {n_probes} probes"
    if _certified_coassoc(gamma, dsl, gamma.ids):
        return Verdict("comodule coassociativity", status, label)
    for b in gamma.ids:
        rho_b = gamma.delta.basis_multiplier(b)
        lifted = id_x_delta.lift(rho_b)
        for a in dsl.ids:
            try:
                lhs = rho_x_id.apply(gamma.slice("right", b, a))
            except SliceUndefined:
                lhs = rho_x_id.lift(rho_b * gamma._frame("right", a))
            try:
                bad = differs(lhs, lifted * frames[a])
                detail = bad and f"sides differ as {bad[1]} multipliers"
            except InvariantViolation as exc:  # a finite lift with no decomposition
                bad, detail = exc.verdict.witness, f"lift undefined: {exc.verdict.detail}"
            if bad is not None:
                return Verdict("comodule coassociativity", "failed", label,
                               witness=(B.basis_element(b), A.basis_element(a), bad[0]),
                               detail=detail)
    return Verdict("comodule coassociativity", status, label)


def check_comodule_coassoc_framed(gamma: Slicer, dsl: Slicer, max_probes=24) -> Verdict:
    """(c (x) 1 (x) 1)-framed variant, cross-checked on capped probes.

    Replaces the lift on the right side by the left slice (c (x) 1)rho(b):
    an independent computation route where slices are not certified.
    """
    triple_l, rho_x_id, id_x_delta, frames, n_probes, status, differs = \
        _coassoc_setup(gamma, dsl, max_probes)
    B, A, b_ids = gamma.alg, dsl.alg, gamma.ids
    label = f"{len(b_ids)}^2 x {len(dsl.ids)} framed triples, {n_probes} probes"
    if _certified_coassoc(gamma, dsl, b_ids):
        return Verdict("comodule coassociativity (framed)", status, label)
    one_a = one(A)
    left_frames = {c: psi_embed([iota(B, B.basis_element(c)), one_a, one_a], into=triple_l)
                   for c in b_ids}  # c (x) 1 (x) 1 on (B (x) A) (x) A
    try:
        for b in b_ids:
            for a in dsl.ids:
                base_lhs = rho_x_id.apply(gamma.slice("right", b, a))
                for c in b_ids:
                    lhs = left_frames[c] * base_lhs
                    bad = differs(lhs, id_x_delta.apply(gamma.slice("left", c, b)) * frames[a])
                    if bad is not None:
                        return Verdict(
                            "comodule coassociativity (framed)", "failed", label,
                            witness=(B.basis_element(c), B.basis_element(b), A.basis_element(a),
                                     bad[0]),
                            detail="framed sides differ on probe")
    except SliceUndefined as exc:
        return Verdict("comodule coassociativity (framed)", "failed", label,
                       witness=exc.witness, detail=str(exc))
    return Verdict("comodule coassociativity (framed)", status, label)


def check_comodule_coassoc_element(gamma: Slicer, dsl: Slicer) -> Verdict:
    """Coassociativity as an equality of elements of B (x) A (x) A.

    Frames the left leg as well and compares the honest elements built
    from slices (``bialgebra``'s sliced engine); it fails outright when a
    needed slice does not exist.
    """
    B, A = gamma.alg, dsl.alg
    _check_target(gamma, A)
    return _sliced_coassoc(gamma, dsl, gamma.ids, dsl.ids,
                           "comodule coassociativity (element)",
                           f"{B.window_label(gamma.ids)}^2 x {A.window_label(dsl.ids)}",
                           "sliced sides differ")


def check_comodule_counit(gamma: Slicer, epsilon: Counit | None) -> Verdict:
    """(id (x) eps)-bar(rho(b)(1 (x) a)) = eps(a) iota(b) on window pairs.

    Both sides are iota of elements of B, so this is an element equality:
    sum b_(0,a) eps(b_(1,a)) = eps(a) b.  A missing slice fails the law
    with the Slicer's report, as every sliced check does.  With no
    ``epsilon`` (none declared, none synthesized) the law fails for want
    of a counit.
    """
    B, A = gamma.alg, gamma.rfac
    _check_target(gamma, A if epsilon is None else epsilon.alg)
    b_ids, a_ids = gamma.ids, resolve_window(A, gamma.window)
    label = f"{B.window_label(b_ids)} / {A.window_label(a_ids)}"
    if epsilon is None:
        return Verdict("comodule counit", "failed", label,
                       detail="no counit: none declared and none synthesized")
    for b in b_ids:
        eb = B.basis_element(b)
        for a in a_ids:
            ea = A.basis_element(a)
            try:
                s = gamma.slice("right", b, a)
            except SliceUndefined as exc:
                return Verdict("comodule counit", "failed", label, witness=exc.witness,
                               detail=str(exc))
            got = _collapse(s, epsilon, "right")
            want = eb.scale(epsilon.value(a))
            if got != want:
                return Verdict("comodule counit", "failed", label,
                               witness=(eb, ea),
                               detail=f"(id(x)eps) of slice = {got}, want {want}")
    return Verdict("comodule counit", joint_baseline((B, b_ids), (A, a_ids)), label)


def check_module_algebra(module: ModuleStructure, slicer: Slicer) -> Verdict:
    """mu((b (x) b') <| Delta(a)) = (b b') <| a on window triples.

    ``module`` is a right module over A = slicer.alg whose carrier is
    itself an algebra; the left side moves b (x) b' with the diagonal
    action on the tensor module.
    """
    A, delta, window = slicer.alg, slicer.delta, slicer.window
    B = module.space
    if not isinstance(B, Algebra):
        raise InputError("module-algebra check needs an algebra carrier")
    if module.algebra is not A or module.side != "right":
        raise InputError("module-algebra check wants a right A-module")
    T = tensor_module(module, module)
    b_ids = resolve_window(B, window)
    a_ids = slicer.ids
    pair_window = [(i, j) for i in b_ids for j in b_ids]
    scaled = delta.source_search_ids
    aa_window = [(i, j) for i in scaled for j in scaled]
    label = f"{B.window_label(b_ids)} / {A.window_label(a_ids)}"
    for bi in b_ids:
        for bj in b_ids:
            x = tensor_elem(B.basis_element(bi), B.basis_element(bj), into=T.space)
            for a in a_ids:
                moved = act_on_module(T, x, delta.basis_multiplier(a),
                                      window_m=pair_window, window_a=aa_window)
                acc: dict = {}
                for (p, q), c in moved.coeffs.items():
                    vec_axpy(B.field, acc, B.mul_basis(p, q).coeffs, c)
                lhs = Element(B, acc)
                rhs = module.act(B.basis_element(bi) * B.basis_element(bj),
                                 A.basis_element(a))
                if lhs != rhs:
                    return Verdict(
                        "module algebra", "failed", label,
                        witness=(B.basis_element(bi), B.basis_element(bj),
                                 A.basis_element(a)),
                        detail=f"mu of moved tensor = {lhs}, (bb')<|a = {rhs}")
    return Verdict("module algebra", joint_baseline((B, b_ids), (A, a_ids)), label)
