"""Line-oriented text format for algebras and their coproduct data.

A file either declares a finite algebra by structure constants or names a
built-in oracle family.  Statements, one per line, `#` starts a comment:

    field Q                      | field Fp <p>
    basis <id> <id> ...          | oracle <name> [<int> ...]
    window <n>
    expansion <n>
    unit = <element>
    mul <i> <j> = <element>
    delta <i> (<j>,<k>) = <element of A(x)A>
    coaction <i> (<j>,<k>) = <element of A(x)A>
    epsilon <i> = <scalar>
    antipode <i> = <element>

Elements are written `<coeff>*<id> + <coeff>*<id> + ...` (or `0`); tensor
ids are `(<i>,<j>)`.  This matches how elements print, so tables written
by the tool parse back.  Products, slices, counit values and antipode
images read zero on ids with no line: every rule is total on the basis.

Tensor ids go only in the frame of a `delta` or `coaction` line and in
the terms of its element; every other id position takes a plain id.  Each
header statement (`field` to `unit` above) appears at most once, and so
does each rule for the same ids.  A malformed line raises `SpecError`
naming its line number, and the command line exits 3 on it.

The `delta` line tabulates the framed coproduct from the left,
`Delta(e_i) (e_j (x) e_k)`, and ``derive_rho`` completes it to a
multiplier: iota(c), c = Delta(e_i)(1 (x) 1), once c is certified on a
unital algebra (there M(A (x) A) = A (x) A), else the table with its
right action solved from the two-sided compatibility, so a table that
cannot be completed to a multiplier is rejected.  `coaction` tabulates a
framed coaction of the algebra on itself the same way.
"""

from __future__ import annotations

import re

from .fields import GF, QQ, FieldError
from .linalg import vec_add
from .algebra import Element, InputError, finite_algebra, tensor_algebra
from .multiplier import Multiplier, iota, unital_certificate
from .extension import Extension
from .bialgebra import Counit, MultiplierBialgebra
from . import gallery


class SpecError(InputError):
    """Syntax or declaration error at a specific line of the input."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_ID_RE = re.compile(rf"^({_ID})$")
_PAIR_RE = re.compile(rf"^\(\s*({_ID})\s*,\s*({_ID})\s*\)$")
_TERM_RE = re.compile(rf"^(?P<coeff>[^*\s]+)\s*\*\s*(?P<id>{_ID}|\(\s*{_ID}\s*,\s*{_ID}\s*\))$")
_LHS_TOKEN_RE = re.compile(r"\(.*?\)|\S+")  # a tensor id stays one token

_TENSOR = "element of A(x)A"
# rule statement -> (per id position left of `=`: takes a tensor id?,
# kind of the value right of it, first id keys an outer table?)
_RULES = {
    "unit": ((), "element", False),
    "mul": ((False, False), "element", False),
    "delta": ((False, True), _TENSOR, True),
    "coaction": ((False, True), _TENSOR, True),
    "epsilon": ((False,), "scalar", False),
    "antipode": ((False,), "element", False),
}
# statements that may appear once -> the SpecFile attribute each sets
_ONCE = {"field": "field", "basis": "ids", "oracle": "oracle",
         "window": "window", "expansion": "expansion", "unit": "unit"}


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


def _parse_id(token, tensor, declared, line_no):
    """A plain id, or with ``tensor`` an (i, j) pair, each part declared."""
    m = (_PAIR_RE if tensor else _ID_RE).match(token)
    if not m:
        want = "a tensor id (i,j)" if tensor else "a plain id"
        raise SpecError(line_no, f"malformed basis id {token!r} (want {want})")
    for part in m.groups():
        if part not in declared:
            raise SpecError(line_no, f"undeclared basis id {part!r}")
    return m.groups() if tensor else token


def _parse_element(field, text, declared, line_no, tensor=False):
    """``coeff*id + ...`` as a coefficient dict; '0' is the zero element."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in map(str.strip, text.split("+")):  # minus signs sit in coefficients
        m = _TERM_RE.match(term)
        if not m:
            raise SpecError(line_no, f"malformed term {term!r} (want coeff*id)")
        bid = _parse_id(m.group("id"), tensor, declared, line_no)
        vec_add(field, out, bid, _scalar(field, m.group("coeff"), line_no))
    return out


def _usage(head):
    """``mul <i> <j> = <element>``: the shape _RULES gives a statement."""
    shapes, kind, _ = _RULES[head]
    names = iter("ijk")
    slots = [f"(<{next(names)}>,<{next(names)}>)" if tensor else f"<{next(names)}>"
             for tensor in shapes]
    return " ".join([head, *slots, "=", f"<{kind}>"])


def _parse_rule(spec, head, line, line_no):
    """Split a rule line, check its arity and ids, and store its value."""
    shapes, kind, nested = _RULES[head]
    lhs, eq, rhs = line.partition("=")
    toks = _LHS_TOKEN_RE.findall(lhs)[1:]
    if not eq or len(toks) != len(shapes):
        raise SpecError(line_no, f"expected `{_usage(head)}`")
    ids = [_parse_id(t, tensor, spec.ids, line_no) for t, tensor in zip(toks, shapes)]
    value = (_scalar(spec.field, rhs.strip(), line_no) if kind == "scalar" else
             _parse_element(spec.field, rhs, spec.ids, line_no, tensor=kind == _TENSOR))
    if not ids:  # unit: one element, not a table
        spec.unit = value
        return
    table = getattr(spec, head)
    if nested:
        table = table.setdefault(ids.pop(0), {})
    key = tuple(ids) if len(ids) > 1 else ids[0]
    if key in table:
        raise SpecError(line_no, f"duplicate {head} rule for {' '.join(toks)}")
    table[key] = value


def parse_spec(text: str) -> SpecFile:
    spec = SpecFile()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        toks = rest.split()
        if head != "field" and spec.field is None:
            raise SpecError(line_no, "field declaration must come first")
        if head in _ONCE and getattr(spec, _ONCE[head]) is not None:
            raise SpecError(line_no, f"duplicate {head} declaration")
        if head in ("basis", "oracle") and (spec.ids or spec.oracle):
            raise SpecError(line_no, "oracle specs take no basis line")

        if head == "field":
            if toks != ["Q"] and (len(toks) != 2 or toks[0] != "Fp"):
                raise SpecError(line_no, "expected `field Q` or `field Fp <p>`")
            try:
                spec.field = QQ if toks == ["Q"] else GF(int(toks[1]))
            except ValueError:
                raise SpecError(line_no, f"bad modulus {toks[1]!r}") from None
            except FieldError as exc:
                raise SpecError(line_no, str(exc)) from None
        elif head == "basis":
            if not toks:
                raise SpecError(line_no, "empty basis declaration")
            if len(set(toks)) != len(toks):
                raise SpecError(line_no, "repeated basis id")
            spec.ids = [_parse_id(t, False, toks, line_no) for t in toks]
        elif head == "oracle":
            if not toks:
                raise SpecError(line_no, "oracle needs a family name")
            try:
                spec.oracle = (toks[0], [int(t) for t in toks[1:]])
            except ValueError:
                raise SpecError(line_no, "oracle parameters must be integers") from None
        elif head in ("window", "expansion"):
            n = int(toks[0]) if len(toks) == 1 and toks[0].isdecimal() else 0
            if n < 1:
                raise SpecError(line_no, f"{head} takes a positive integer")
            setattr(spec, head, n)
        elif head in _RULES:
            if spec.oracle is not None:
                raise SpecError(line_no, "oracle specs take no structure lines")
            if spec.ids is None:
                raise SpecError(line_no, "basis declaration must precede rules")
            _parse_rule(spec, head, line, line_no)
        else:
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


def derive_rho(T, lam_table, what="delta") -> Multiplier:
    """Complete a left slice table to a multiplier on T.

    ``lam_table`` maps basis ids of T to the element `m (e_bid)`.  On a
    unital T, M(T) = T: m is iota(c), c = m(1), once m(e_y) = c e_y for all
    y (``unital_certificate``).  Else the right action is the unique
    solution of `x m(y) = (x m) y`.  Raises when T has right annihilators
    (no unique completion) or the table is not a two-sided multiplier, the
    one outcome of that solve on a unital T (1 in x e_y = e_p m(y)).
    """
    c = unital_certificate(T, lam_table)
    if c is not None:
        return iota(T, c)
    ids = list(T.basis.ids)
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
    return Multiplier(T, lambda bid: Element(T, lam_table.get(bid, {})),
                      lambda bid: Element(T, rho[bid]))


def _slice_extension(A, T, tables, name):
    """Extension A -> M(T) from per-generator left slice tables, each
    completed by ``derive_rho`` (iota(c), c = m(1), on a unital T)."""
    mults = {}
    for i in A.basis.ids:
        m = mults[i] = derive_rho(T, tables.get(i, {}), what=f"{name} {A.fmt_id(i)}")
        m.name = f"{name}({A.fmt_id(i)})"
    return Extension(A, T, lambda i: mults[i], name=name)


def _oracle_entry(spec: SpecFile) -> gallery.GalleryEntry:
    """The registry entry an ``oracle`` spec names, built on its window."""
    family, params = spec.oracle
    entry = gallery.build_entry(family, params, field=spec.field, window=spec.window)
    if spec.window is not None:  # a finite family records it too
        entry.default_window = spec.window
    if spec.expansion is not None and entry.bialgebra is not None:
        entry.bialgebra.expansion = spec.expansion
    return entry


def build_bundle(spec: SpecFile, name="specfile") -> gallery.GalleryEntry:
    """Algebra (and bialgebra pieces, if declared) from a parsed spec."""
    if spec.oracle is not None:
        return _oracle_entry(spec)

    field = spec.field
    A = finite_algebra(field, spec.ids, spec.mul, unit=spec.unit, name=name)
    bialgebra = None
    if spec.delta:
        T = tensor_algebra(A, A)
        delta = _slice_extension(A, T, spec.delta, "Delta")
        epsilon = witness = None
        if spec.epsilon:
            epsilon = Counit(A, {i: spec.epsilon.get(i, field.zero) for i in spec.ids})
            witness = epsilon.witness(spec.ids)
        smap = None
        if spec.antipode:
            tables = {i: Element(A, spec.antipode.get(i, {})) for i in spec.ids}
            smap = Extension(A, A, lambda t: iota(A, tables[t]), name="S")
        bialgebra = MultiplierBialgebra(
            A, delta, epsilon, witness, window=spec.window,
            expansion=spec.expansion or 2, name=name, antipode=smap)
    entry = gallery.GalleryEntry(name, A, bialgebra, default_window=spec.window)
    if spec.coaction:
        entry.coaction = _slice_extension(A, tensor_algebra(A, A), spec.coaction, "rho")
    return entry
