"""Seeded inputs for the three benchmark workloads, with their known answers.

``generate(workload, seed)`` returns a list of cases.  Each case names the
spec file it needs (``file``/``spec``), the command line handed to
``mulhopf.cli.main`` (``argv``) and what a correct report must say
(``expect``, read only by ``checker.py``).  The seed changes coefficients,
primes, the assignment of sizes to files and, in the sweep, the command
order; the mix of commands, families and negative controls is fixed, so
every seed asks for the same kind and amount of work.  The two big inputs
of ``finite_q`` and the three of ``window_z`` keep a fixed order, because
their order alone moves peak RSS by 5-10% (memory an earlier input leaves
behind); ``window_z`` has no coefficients, so its seed changes nothing.

All finite families are rescaled function algebras on Z/n: with d_i the
indicator of i, the basis is e_i = c_i d_i, so

    e_i e_i = c_i e_i,   unit = sum_i (1/c_i) e_i,
    Delta(e_k)(e_j (x) e_l) = [j + l = k] c_k (e_j (x) e_l),
    eps(e_k) = c_0 [k = 0],   S(e_k) = (c_k / c_{n-k}) e_{n-k},

which puts the seeded scalars into every table the program reads or writes.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("finite_q", "window_z", "sweep_fp")

PRIMES = (5, 7, 11, 13)
# sizes n of Z/n per positive sweep kind; fixed so each seed does the same work
SWEEP_SIZES = (2, 3, 4, 5, 6, 7, 4, 5, 6, 7)
# check-comodule costs about 1.5 s at n = 7, so its files stay smaller
COMODULE_SIZES = (2, 3, 4, 5, 2, 3, 4, 5, 3, 4)
CONTROL_SIZES = (3, 4, 5, 3, 4, 5, 3, 4, 5, 3, 4, 5, 4)

# (kind, command, declared tables, expected report tables)
SWEEP_KINDS = (
    ("classify", "classify", (), ("epsilon", "antipode")),
    ("hopf_declared", "check-hopf", ("epsilon", "antipode"), ()),
    ("hopf_synth_eps", "check-hopf", ("antipode",), ("epsilon",)),
    ("bialgebra", "check-bialgebra", (), ("epsilon",)),
    ("counit", "synthesize-counit", (), ("epsilon",)),
    ("antipode", "synthesize-antipode", (), ("epsilon", "antipode")),
    ("algebra", "check-algebra", (), ()),
    # check-comodule needs a declared counit: without one it raises
    # AttributeError in check_comodule_counit
    ("comodule", "check-comodule", ("epsilon",), ()),
)

FINITE_HOPF = "multiplier Hopf algebra (proven; finite)"
KNOWN_DEFECT_UNIT = ("declared unit is trusted without being checked, so "
                     "non-degeneracy reads proven (ROADMAP item 3)")


class Scalars:
    """Exact arithmetic on the declared field: Q as Fraction, F_p as int."""

    def __init__(self, p=None):
        self.p = p
        self.decl = "field Q" if p is None else f"field Fp {p}"

    def norm(self, x):
        return Fraction(x) if self.p is None else x % self.p

    def inv(self, x):
        return 1 / Fraction(x) if self.p is None else pow(x, self.p - 2, self.p)

    def mul(self, x, y):
        return self.norm(x * y)

    def text(self, x):
        return str(self.norm(x))

    def draw(self, rng):
        if self.p is None:
            return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        return rng.randint(1, self.p - 1)


def _table_expect(scalars, cs):
    return {"field": scalars.p, "c": [str(c) for c in cs], "prefix": "e"}


def rescaled_cyclic(scalars, cs, declare=(), perturb=None):
    """Spec text of the rescaled function algebra on Z/len(cs).

    ``declare`` names the tables to write into the file (epsilon,
    antipode); ``perturb = (t, lam)`` multiplies the declared S(e_t) by lam.
    """
    n = len(cs)
    ids = [f"e{i}" for i in range(n)]
    lines = [scalars.decl, "basis " + " ".join(ids)]
    lines += [f"mul e{i} e{i} = {scalars.text(c)}*e{i}" for i, c in enumerate(cs)]
    lines.append("unit = " + " + ".join(
        f"{scalars.text(scalars.inv(c))}*e{i}" for i, c in enumerate(cs)))
    for k in range(n):
        for j in range(n):
            l = (k - j) % n
            lines.append(f"delta e{k} (e{j},e{l}) = {scalars.text(cs[k])}*(e{j},e{l})")
    if "epsilon" in declare:
        lines += [f"epsilon e{k} = {scalars.text(cs[0]) if k == 0 else 0}"
                  for k in range(n)]
    if "antipode" in declare:
        for k in range(n):
            m = (n - k) % n
            s = scalars.mul(cs[k], scalars.inv(cs[m]))
            if perturb is not None and perturb[0] == k:
                s = scalars.mul(s, perturb[1])
            lines.append(f"antipode e{k} = {scalars.text(s)}*e{m}")
    return "\n".join(lines) + "\n"


def nand_spec(scalars, cs):
    """Rescaled functions on Z/2 with Delta(d_k) the indicator of NAND(i, j) = k."""
    lines = [scalars.decl, "basis d0 d1"]
    lines += [f"mul d{i} d{i} = {scalars.text(c)}*d{i}" for i, c in enumerate(cs)]
    lines.append("unit = " + " + ".join(
        f"{scalars.text(scalars.inv(c))}*d{i}" for i, c in enumerate(cs)))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                if (0 if i == j == 1 else 1) == k:
                    lines.append(f"delta d{k} (d{i},d{j}) = {scalars.text(cs[k])}*(d{i},d{j})")
    return "\n".join(lines) + "\n"


def rowalg2_spec(scalars, a, false_unit=False):
    """Rescaled span of E11, E12: E12 annihilates from the left."""
    lines = [scalars.decl, "basis E11 E12",
             f"mul E11 E11 = {scalars.text(a)}*E11",
             f"mul E11 E12 = {scalars.text(a)}*E12"]
    if false_unit:  # a left unit only, declared as a unit
        lines.append(f"unit = {scalars.text(scalars.inv(a))}*E11")
    return "\n".join(lines) + "\n"


def _case(name, argv, expect, spec=None):
    case = {"name": name, "argv": list(argv), "expect": expect}
    if spec is not None:
        case["file"] = f"{name}.spec"
        case["spec"] = spec
    return case


def _finite_q(rng):
    q = Scalars()
    c16 = [q.draw(rng) for _ in range(16)]
    c12 = [q.draw(rng) for _ in range(12)]
    cases = [
        _case("q16_classify", ["classify", "q16_classify.spec"], {
            "exit": 0, "classification": FINITE_HOPF, "all_status": "proven",
            "tables": {"epsilon": _table_expect(q, c16),
                       "antipode": _table_expect(q, c16)}},
            rescaled_cyclic(q, c16)),
        _case("q12_hopf", ["check-hopf", "q12_hopf.spec"], {
            "exit": 0, "all_status": "proven",
            "tables": {"epsilon": _table_expect(q, c12)}},
            rescaled_cyclic(q, c12, declare=("antipode",))),
    ]
    return cases


def _window_z(_rng):
    kfin = {"field": None, "family": "kfin"}
    cases = [
        _case("z6_classify", ["classify", "z6_classify.spec"], {
            "exit": 0, "no_failures": True,
            "classification": "multiplier Hopf algebra (holds_on_window 6)",
            "tables": {"epsilon": kfin, "antipode": kfin}},
            "field Q\noracle kfin_Z\nwindow 6\n"),
        _case("z3_comodule", ["check-comodule", "z3_comodule.spec"], {
            "exit": 0, "no_failures": True},
            "field Q\noracle kfin_Z\nwindow 3\n"),
        # K(N): T1 sends d0 (x) d1 to zero, so no antipode exists
        _case("n4_classify", ["classify", "gallery:kfin_N", "--window", "4"], {
            "exit": 1,
            "classification": "multiplier bialgebra (holds_on_window 4)",
            "statuses": {"T1 bijectivity": "failed", "T2 bijectivity": "failed"},
            "witnesses": {"T1 bijectivity": "1*(d0,d1)", "T2 bijectivity": "1*(d1,d0)"},
            "tables": {"epsilon": kfin}}),
    ]
    return cases


def _sweep_fp(rng):
    cases = []
    for kind, command, declare, tables in SWEEP_KINDS:
        sizes = list(COMODULE_SIZES if kind == "comodule" else SWEEP_SIZES)
        rng.shuffle(sizes)
        for i, n in enumerate(sizes):
            fp = Scalars(rng.choice(PRIMES))
            cs = [fp.draw(rng) for _ in range(n)]
            name = f"{kind}_{i}"
            expect = {"exit": 0, "all_status": "proven",
                      "tables": {t: _table_expect(fp, cs) for t in tables}}
            if command == "classify":
                expect["classification"] = FINITE_HOPF
            if command == "check-comodule":
                # the framed check samples probes, so it may only hold on them
                del expect["all_status"]
                expect["no_failures"] = True
                expect["statuses"] = {"comodule coassociativity": "proven",
                                      "comodule counit": "proven"}
            cases.append(_case(name, [command, f"{name}.spec"], expect,
                               rescaled_cyclic(fp, cs, declare=declare)))

    sizes = list(CONTROL_SIZES)
    rng.shuffle(sizes)
    for i, n in enumerate(sizes):
        # S(e_t) scaled by lam != 1.  check_antipode scans (a, b) in order;
        # the first pair whose identities apply S(e_t) to a nonzero product
        # is (e0, e_{n-t}), so that is the witness
        fp = Scalars(rng.choice(PRIMES))
        cs = [fp.draw(rng) for _ in range(n)]
        t, lam = rng.randrange(n), rng.randint(2, fp.p - 1)
        name = f"bad_antipode_{i}"
        cases.append(_case(name, ["check-hopf", f"{name}.spec"], {
            "exit": 1, "statuses": {"antipode": "failed"},
            "witnesses": {"antipode": f"1*e0, 1*e{(n - t) % n}"}},
            rescaled_cyclic(fp, cs, declare=("epsilon", "antipode"), perturb=(t, lam))))
    for i in range(13):
        fp = Scalars(rng.choice(PRIMES))
        name = f"nand_{i}"
        command = "check-bialgebra" if i < 7 else "classify"
        expect = {"exit": 1, "statuses": {"coassociativity": "failed"},
                  "witnesses": {"coassociativity": "1*d0, 1*d0, 1*d1"}}
        if command == "classify":
            expect["classification"] = ("non-degenerate idempotent algebra "
                                        "(coproduct fails its axioms)")
        cases.append(_case(name, [command, f"{name}.spec"], expect,
                           nand_spec(fp, [fp.draw(rng), fp.draw(rng)])))
    for i in range(14):
        fp = Scalars(rng.choice(PRIMES))
        false_unit = i == 13
        name = "rowalg2_false_unit" if false_unit else f"rowalg2_{i}"
        command = "classify" if 7 <= i < 13 else "check-algebra"
        expect = {"exit": 1, "statuses": {"non-degeneracy": "failed"},
                  "witnesses": {"non-degeneracy": "1*E12"}}
        if command == "classify":
            expect["classification"] = "not a non-degenerate idempotent algebra"
        if false_unit:
            expect["known_defect"] = KNOWN_DEFECT_UNIT
        cases.append(_case(name, [command, f"{name}.spec"], expect,
                           rowalg2_spec(fp, fp.draw(rng), false_unit=false_unit)))
    rng.shuffle(cases)
    return cases


_GENERATORS = {"finite_q": _finite_q, "window_z": _window_z, "sweep_fp": _sweep_fp}


def generate(workload: str, seed: int) -> list:
    """The cases of one workload, in run order; identical for identical seeds."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
