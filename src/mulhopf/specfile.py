"""Line-oriented text format for algebras and their coproduct data.

A file either declares a finite algebra by structure constants or names a
built-in oracle family.  Statements, one per line, `#` starts a comment:

    field Q                      | field Fp <p>
    basis <id> <id> ...          | oracle <name> [<int> ...]
    mul <i> <j> = <element>
    unit = <element>
    delta <i> (<j>,<k>) = <element of A(x)A>
    epsilon <i> = <scalar>
    antipode <i> = <element>
    coaction <i> (<j>,<k>) = <element of A(x)A>
    window <n>
    expansion <n>

Elements are written `<coeff>*<id> + <coeff>*<id> + ...` (or `0`); tensor
ids are `(<i>,<j>)`.  This matches how elements print, so tables written
by the tool parse back.  Products and coproduct slices default to zero on
pairs with no line, which keeps the rules total on the declared basis.

The `delta` line tabulates the framed coproduct from the left,
`Delta(e_i) (e_j (x) e_k)`; the matching right action is derived by
solving the two-sided multiplier compatibility, so a table that cannot
be completed to a multiplier is rejected.  `coaction` tabulates a framed
coaction of the algebra on itself the same way.
"""

from __future__ import annotations

import re

from .fields import GF, QQ, FieldError
from .linalg import vec_add
from .algebra import Element, InputError, finite_algebra, tensor_algebra
from .multiplier import Multiplier, in_solve_order, iota, unital_certificate
from .extension import Extension
from .bialgebra import Counit, MultiplierBialgebra
from .hopf import MultiplierMap
from . import gallery


class SpecError(InputError):
    """Syntax or declaration error at a specific line of the input."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_ID_RE = re.compile(rf"^{_ID}$")
_PAIR_RE = re.compile(rf"^\(\s*({_ID})\s*,\s*({_ID})\s*\)$")
_TERM_RE = re.compile(rf"^(?P<coeff>[^*\s]+)\s*\*\s*(?P<id>{_ID}|\(\s*{_ID}\s*,\s*{_ID}\s*\))$")


class SpecFile:
    """Parsed form of one input file; build_bundle turns it into objects."""

    def __init__(self):
        self.field = None
        self.window = None
        self.expansion = None
        self.oracle = None          # (name, [int params]) or None
        self.ids = None             # declared order, finite case
        self.mul = {}               # (i, j) -> {k: scalar}
        self.unit = None            # {k: scalar} or None
        self.delta = {}             # i -> {(j, k): {(p, q): scalar}}
        self.epsilon = {}           # i -> scalar
        self.antipode = {}          # i -> {k: scalar}
        self.coaction = {}          # i -> {(j, k): {(p, q): scalar}}

    @property
    def finite(self):
        return self.ids is not None


def _scalar(field, text, line_no):
    try:
        return field.parse(text)
    except FieldError as exc:
        raise SpecError(line_no, str(exc)) from None


def _split_terms(text):
    # top-level split on +; minus signs live inside the coefficient token
    return [t.strip() for t in text.split("+")]


def _parse_id(token, declared, line_no):
    m = _PAIR_RE.match(token)
    if m:
        i, j = m.group(1), m.group(2)
        for part in (i, j):
            if part not in declared:
                raise SpecError(line_no, f"undeclared basis id {part!r}")
        return (i, j)
    if not _ID_RE.match(token):
        raise SpecError(line_no, f"malformed basis id {token!r}")
    if token not in declared:
        raise SpecError(line_no, f"undeclared basis id {token!r}")
    return token


def _parse_element(field, text, declared, line_no, pair=False):
    """``coeff*id + ...`` as a coefficient dict; '0' is the zero element."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m:
            raise SpecError(line_no, f"malformed term {term!r} (want coeff*id)")
        bid = _parse_id(m.group("id"), declared, line_no)
        if pair != isinstance(bid, tuple):
            want = "tensor ids (i,j)" if pair else "plain ids"
            raise SpecError(line_no, f"this rule takes {want}, got {m.group('id')!r}")
        vec_add(field, out, bid, _scalar(field, m.group("coeff"), line_no))
    return out


def parse_spec(text: str) -> SpecFile:
    spec = SpecFile()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()

        if head == "field":
            if spec.field is not None:
                raise SpecError(line_no, "duplicate field declaration")
            toks = rest.split()
            if toks == ["Q"]:
                spec.field = QQ
            elif len(toks) == 2 and toks[0] == "Fp":
                try:
                    spec.field = GF(int(toks[1]))
                except ValueError:
                    raise SpecError(line_no, f"bad modulus {toks[1]!r}") from None
                except FieldError as exc:
                    raise SpecError(line_no, str(exc)) from None
            else:
                raise SpecError(line_no, "expected `field Q` or `field Fp <p>`")
            continue

        if spec.field is None:
            raise SpecError(line_no, "field declaration must come first")

        if head == "basis":
            if spec.ids is not None:
                raise SpecError(line_no, "duplicate basis declaration")
            if spec.oracle is not None:
                raise SpecError(line_no, "oracle specs take no basis line")
            toks = rest.split()
            if not toks:
                raise SpecError(line_no, "empty basis declaration")
            for t in toks:
                if not _ID_RE.match(t):
                    raise SpecError(line_no, f"malformed basis id {t!r}")
            if len(set(toks)) != len(toks):
                raise SpecError(line_no, "repeated basis id")
            spec.ids = toks
            continue

        if head == "oracle":
            if spec.oracle is not None:
                raise SpecError(line_no, "duplicate oracle declaration")
            if spec.ids is not None or spec.mul or spec.delta:
                raise SpecError(line_no, "oracle specs take no structure lines")
            toks = rest.split()
            if not toks:
                raise SpecError(line_no, "oracle needs a family name")
            try:
                params = [int(t) for t in toks[1:]]
            except ValueError:
                raise SpecError(line_no, "oracle parameters must be integers") from None
            spec.oracle = (toks[0], params)
            continue

        if head in ("window", "expansion"):
            try:
                n = int(rest)
            except ValueError:
                raise SpecError(line_no, f"{head} takes an integer") from None
            if n < 1:
                raise SpecError(line_no, f"{head} must be positive")
            setattr(spec, head, n)
            continue

        # everything below is a structure rule on a declared finite basis
        if spec.oracle is not None:
            raise SpecError(line_no, "oracle specs take no structure lines")
        if spec.ids is None:
            raise SpecError(line_no, "basis declaration must precede rules")
        declared = spec.ids

        if head == "mul":
            lhs, eq, rhs = line.partition("=")
            toks = lhs.split()[1:]
            if not eq or len(toks) != 2:
                raise SpecError(line_no, "expected `mul <i> <j> = <element>`")
            i = _parse_id(toks[0], declared, line_no)
            j = _parse_id(toks[1], declared, line_no)
            if (i, j) in spec.mul:
                raise SpecError(line_no, f"duplicate product rule for {i} {j}")
            spec.mul[(i, j)] = _parse_element(spec.field, rhs, declared, line_no)
            continue

        if head == "unit":
            lhs, eq, rhs = line.partition("=")
            if not eq or lhs.split() != ["unit"]:
                raise SpecError(line_no, "expected `unit = <element>`")
            if spec.unit is not None:
                raise SpecError(line_no, "duplicate unit declaration")
            spec.unit = _parse_element(spec.field, rhs, declared, line_no)
            continue

        if head in ("delta", "coaction"):
            lhs, eq, rhs = line.partition("=")
            toks = lhs.split()[1:]
            if not eq or len(toks) < 2:
                raise SpecError(line_no, f"expected `{head} <i> (<j>,<k>) = <element>`")
            i = _parse_id(toks[0], declared, line_no)
            frame = _parse_id("".join(toks[1:]), declared, line_no)
            if not isinstance(frame, tuple):
                raise SpecError(line_no, f"{head} frame must be a tensor id (j,k)")
            table = getattr(spec, head).setdefault(i, {})
            if frame in table:
                raise SpecError(line_no, f"duplicate {head} rule for {i} at {frame}")
            table[frame] = _parse_element(spec.field, rhs, declared, line_no, pair=True)
            continue

        if head == "epsilon":
            lhs, eq, rhs = line.partition("=")
            toks = lhs.split()[1:]
            if not eq or len(toks) != 1:
                raise SpecError(line_no, "expected `epsilon <i> = <scalar>`")
            i = _parse_id(toks[0], declared, line_no)
            if i in spec.epsilon:
                raise SpecError(line_no, f"duplicate epsilon rule for {i}")
            spec.epsilon[i] = _scalar(spec.field, rhs.strip(), line_no)
            continue

        if head == "antipode":
            lhs, eq, rhs = line.partition("=")
            toks = lhs.split()[1:]
            if not eq or len(toks) != 1:
                raise SpecError(line_no, "expected `antipode <i> = <element>`")
            i = _parse_id(toks[0], declared, line_no)
            if i in spec.antipode:
                raise SpecError(line_no, f"duplicate antipode rule for {i}")
            spec.antipode[i] = _parse_element(spec.field, rhs, declared, line_no)
            continue

        raise SpecError(line_no, f"unknown statement {head!r}")

    if spec.field is None:
        raise SpecError(1, "missing field declaration")
    if spec.ids is None and spec.oracle is None:
        raise SpecError(1, "missing basis or oracle declaration")
    if spec.coaction and not spec.delta:
        raise SpecError(1, "coaction rules need delta rules for the same algebra")
    return spec


# ---------------------------------------------------------------------------
# building objects from a parsed spec


def derive_rho(T, lam_table, what="delta"):
    """Complete a left slice table to a multiplier's right action.

    ``lam_table`` maps basis ids of T to the element `m (e_bid)`; the
    right action is the unique solution of `x m(y) = (x m) y`.  Raises
    when the algebra has right annihilators (no unique completion) or
    the table is incompatible with being a multiplier.

    On a unital T, rho(e_p) = e_p c, c = m(1), once m(e_y) = c e_y for all y
    (``unital_certificate``): m is iota(c), certified by this pass.  A solve
    forces the same (put 1 into x e_y = e_p m(y)), so it runs only to raise.
    Returns (rho, c), with c None when rho was solved for.
    """
    ids = list(T.basis.ids)
    c = unital_certificate(T, lambda y: Element(T, lam_table.get(y, {})))
    if c is not None:
        return {p: in_solve_order(T.basis_element(p) * c).coeffs for p in ids}, c
    solver = T.regular_solver(sides=("L",))  # row ("L", y, r): e_r in e_t * e_y
    if solver.free_cols:
        raise InputError(
            f"{what} table cannot be completed: the algebra has right annihilators")
    # frames with an empty table entry contribute only zero products
    frames = [(y, Element(T, lam_table[y])) for y in ids if lam_table.get(y)]
    rho = {}
    for p in ids:
        rhs = {}
        for y, m_y in frames:
            prod = T.basis_element(p) * m_y
            for r, v in prod.coeffs.items():
                rhs[("L", y, r)] = v
        sol = solver.solve(rhs)
        if sol is None:
            raise InputError(
                f"{what} table is not a two-sided multiplier (fails at {T.fmt_id(p)})")
        rho[p] = {t: c for t, c in sol.items() if c}
    return rho, None


def _slice_extension(A, T, tables, name):
    """Extension A -> M(T) from per-generator left slice tables; on a unital
    T each keeps ``derive_rho``'s certificate iota(c), c = m(1).  With a
    verified unit ``derive_rho`` certifies c or raises, so an uncertified c
    is never kept."""
    mults = {}
    for i in A.basis.ids:
        lam_table = {frame: dict(coeffs)
                     for frame, coeffs in tables.get(i, {}).items()}
        rho_table, c = derive_rho(T, lam_table, what=f"{name} {A.fmt_id(i)}")
        mults[i] = m = Multiplier(
            T,
            lambda bid, _t=lam_table: Element(T, _t.get(bid, {})),
            lambda bid, _t=rho_table: Element(T, _t.get(bid, {})),
            name=f"{name}({A.fmt_id(i)})")
        m._iota = c
    return Extension(A, T, lambda i: mults[i], name=name)


def _oracle_entry(spec: SpecFile, window) -> gallery.GalleryEntry:
    """The registry entry an ``oracle`` spec names, built on ``window``."""
    family, params = spec.oracle
    entry = gallery.build_entry(family, params, field=spec.field, window=window)
    if window is not None:
        entry.default_window = window
    if spec.expansion is not None and entry.bialgebra is not None:
        entry.bialgebra.expansion = spec.expansion
    entry.rebuild = lambda w: _oracle_entry(spec, w)
    return entry


def build_bundle(spec: SpecFile, name="specfile") -> gallery.GalleryEntry:
    """Algebra (and bialgebra pieces, if declared) from a parsed spec."""
    if spec.oracle is not None:
        return _oracle_entry(spec, spec.window)

    field = spec.field
    A = finite_algebra(field, spec.ids, spec.mul, unit=spec.unit, name=name)
    bialgebra = None
    if spec.delta:
        T = tensor_algebra(A, A)
        delta = _slice_extension(A, T, spec.delta, "Delta")
        epsilon = witness = None
        if spec.epsilon:
            epsilon = Counit(A, dict(spec.epsilon))
            witness = epsilon.witness(i for i in spec.ids if i in spec.epsilon)
        smap = None
        if spec.antipode:
            tables = {i: Element(A, spec.antipode.get(i, {})) for i in spec.ids}
            smap = MultiplierMap(A, lambda t: iota(A, tables[t]), name="S")
        bialgebra = MultiplierBialgebra(
            A, delta, epsilon, witness, window=spec.window,
            expansion=spec.expansion or 2, name=name, antipode=smap)
    entry = gallery.GalleryEntry(name, A, bialgebra,
                                 default_window=spec.window)
    if spec.coaction:
        T = tensor_algebra(A, A)
        entry.params["coaction"] = _slice_extension(A, T, spec.coaction, "rho")
    return entry
