"""Command line front end.

Inputs are either ``gallery:<name>(<params>)`` for a built-in example or
a path to a spec file.  Every command emits a report (text by default,
``--report json`` for the machine-readable document) and exits with

    0   every check passed (possibly only on the window)
    1   a check failed; the report carries the witness
    2   the window was too small to decide something
    3   bad input (unparseable file, unknown gallery name, missing data)

Checks run one after another in a fixed order, sharing one slice cache
per run, so output is deterministic.  One parser serves a process's calls.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .algebra import (
    InputError, Verdict, WindowInsufficiency,
    check_associativity, check_idempotent, check_local_units,
    check_nondegenerate,
)
from .bialgebra import (SliceUndefined, Slicer, check_coassociative, check_counit, check_fons,
                        synthesize_counit)
from .comodule import (
    check_comodule_coassoc, check_comodule_coassoc_element, check_comodule_coassoc_framed,
    check_comodule_counit,
)
from .extension import identity_extension
from .hopf import check_antipode, check_convolution_inverse, check_hopf, synthesize_antipode
from . import gallery, specfile
from .report import Report, digest


def _positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process (parsing leaves no state); help reads COLUMNS when printed."""
    parser = argparse.ArgumentParser(
        prog="mulhopf",
        description="check and synthesize multiplier bialgebra structure")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "check-algebra": "associativity, idempotency, non-degeneracy, local units",
        "check-bialgebra": "algebra checks plus coproduct axioms",
        "check-hopf": "bialgebra checks plus canonical maps and antipode",
        "check-comodule": "coaction axioms (declared coaction, or the algebra over itself)",
        "synthesize-counit": "solve for the counit values and verify them",
        "synthesize-antipode": "solve for the antipode and verify it",
        "classify": "run the whole ladder and name the strongest structure",
    }
    common = argparse.ArgumentParser(add_help=False)  # every command's options
    common.add_argument("input", help="gallery:<name>(<params>) or a spec file path")
    common.add_argument("--window", type=_positive,
                        help="basis window for infinite families")
    common.add_argument("--expansion", type=_positive,
                        help="window scale factor for searches (default 2)")
    common.add_argument("--report", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, help="recorded in the report")
    common.add_argument("--timing", action="store_true",
                        help="include per-check timings in the report")
    for name, help_text in commands.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def resolve_input(text):
    """(gallery entry, display source, content digest)."""
    if text.startswith("gallery:"):
        expr = text[len("gallery:"):]
        return gallery.build(expr), text, digest(text)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            content = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {text}: {exc.strerror}") from None
    spec = specfile.parse_spec(content)
    return specfile.build_bundle(spec, name=text), text, digest(content)


class Runner:
    """Executes check groups, adding each verdict to ``report`` in order."""

    def __init__(self, report: Report, timing=False):
        self.report = report
        self.timing = timing

    def group(self, tasks) -> list:
        """Run tasks in order (each returns a Verdict or a list), record results.

        A task's time is stamped on its first verdict, the rest read 0.0,
        so the timings add up to the time spent in tasks.
        """
        out = []
        for task in tasks:
            t0 = time.perf_counter()
            verdicts = task()
            dt = (time.perf_counter() - t0) * 1000.0 if self.timing else None
            for v in verdicts if isinstance(verdicts, list) else [verdicts]:
                self.report.add(v, dt)
                out.append(v)
                dt = None if dt is None else 0.0
        return out


def _require_bialgebra(entry):
    if entry.bialgebra is None:
        raise InputError(f"{entry.name} declares no coproduct")
    return entry.bialgebra


def _table(alg, table, fmt):
    """``table`` in basis order, ids and values printed (a value by ``fmt``)."""
    return {alg.fmt_id(k): fmt(table[k]) for k in sorted(table, key=alg.sort_key)}


# --- stages ----------------------------------------------------------------
# Each command makes its Slicer once (``bundle.slicer``); a stage takes it as
# the one statement of Delta, window and expansion.


def stage_algebra(run: Runner, alg, window) -> list:
    return run.group([
        lambda: check_associativity(alg, window),
        lambda: check_idempotent(alg, window),
        lambda: check_nondegenerate(alg, window),
        lambda: check_local_units(alg, window),
    ])


def stage_bialgebra(run: Runner, sl) -> list:
    return run.group([
        lambda: sl.delta.validate(),
        lambda: check_fons(sl),
        lambda: check_coassociative(sl),
    ])


def stage_counit(run: Runner, sl, report: Report):
    """Synthesize the counit and verify the laws.

    Returns (Counit or None, verdicts recorded for this stage).
    """
    label = sl.alg.window_label(sl.ids)
    syn = None

    def synthesis():
        nonlocal syn
        why = []
        try:
            syn = synthesize_counit(sl, why)
        except SliceUndefined as exc:
            return Verdict("counit synthesis", "failed", label, witness=exc.witness,
                           detail=str(exc))
        if syn is None:
            return Verdict("counit synthesis", "failed", label, detail=why[0])
        return Verdict("counit synthesis", sl.alg.baseline(sl.ids),
                       label, detail=f"solved on {len(syn.table)} ids")

    vs = run.group([synthesis])
    if syn is None:
        return None, vs
    vs += run.group([lambda: check_counit(sl, syn)])
    report.add_table("epsilon", _table(sl.alg, syn.table, sl.alg.field.format))
    return syn, vs


def _epsilon(run: Runner, sl, declared, report: Report, check_declared=False):
    """The ``declared`` counit, else one synthesized by ``stage_counit``.

    ``check_declared`` also checks the counit laws of a declared counit.
    Returns None when none is declared and synthesis finds none.
    """
    if declared is None:
        return stage_counit(run, sl, report)[0]
    if check_declared:
        run.group([lambda: check_counit(sl, declared)])
    return declared


def stage_antipode(run: Runner, sl, epsilon, report: Report, gate=None):
    """Synthesize the antipode and verify it.

    ``gate`` is a ``check_hopf`` result whose verdicts are already
    recorded; only the verdicts after it are recorded then.  A synthesis
    that fails with no failed verdict adds an "antipode synthesis" row.
    """
    syn = None

    def synthesis():
        nonlocal syn
        syn = synthesize_antipode(sl, epsilon, gate=gate)
        vs = syn.verdicts if gate is None else syn.verdicts[2:]
        if not syn.ok and all(v.ok for v in syn.verdicts):
            vs = vs + [Verdict("antipode synthesis", "failed",
                               sl.alg.window_label(sl.ids), detail=syn.detail)]
        return vs

    run.group([synthesis])
    if syn.table is not None:
        report.add_table("antipode", _table(sl.alg, syn.table, str))
    return syn


# --- commands --------------------------------------------------------------


def cmd_check_algebra(entry, run, report, window, expansion):
    stage_algebra(run, entry.algebra, window)


def cmd_check_bialgebra(entry, run, report, window, expansion):
    bundle = _require_bialgebra(entry)
    stage_algebra(run, entry.algebra, window)
    sl = bundle.slicer(window, expansion)
    stage_bialgebra(run, sl)
    _epsilon(run, sl, bundle.epsilon, report, check_declared=True)


def cmd_check_hopf(entry, run, report, window, expansion):
    bundle = _require_bialgebra(entry)
    stage_algebra(run, entry.algebra, window)
    sl = bundle.slicer(window, expansion)
    stage_bialgebra(run, sl)
    epsilon = _epsilon(run, sl, bundle.epsilon, report, check_declared=True)
    if epsilon is None:
        return
    gate = None

    def bijectivity():
        nonlocal gate
        gate = check_hopf(sl)
        return [gate["T1"]["bijectivity"], gate["T2"]["bijectivity"], gate["hopf"]]

    run.group([bijectivity])
    if not gate["hopf"].ok:
        return
    if bundle.antipode is not None:
        s = bundle.antipode
        run.group([
            lambda: check_antipode(sl, epsilon, s),
            lambda: check_convolution_inverse(sl, epsilon, s, identity_extension(bundle.algebra)),
        ])
    else:
        stage_antipode(run, sl, epsilon, report, gate=gate)


def cmd_check_comodule(entry, run, report, window, expansion):
    bundle = _require_bialgebra(entry)
    dsl = bundle.slicer(window, expansion)
    gamma = dsl if entry.coaction is None else Slicer(entry.coaction, dsl.window, dsl.expansion)
    # with no counit the comodule counit law reads failed; the others still run
    epsilon = _epsilon(run, dsl, bundle.epsilon, report)
    run.group([lambda: gamma.delta.validate()])
    run.group([
        lambda: check_comodule_coassoc(gamma, dsl),
        lambda: check_comodule_coassoc_framed(gamma, dsl),
        lambda: check_comodule_coassoc_element(gamma, dsl),
        lambda: check_comodule_counit(gamma, epsilon),
    ])


def cmd_synthesize_counit(entry, run, report, window, expansion):
    stage_counit(run, _require_bialgebra(entry).slicer(window, expansion), report)


def cmd_synthesize_antipode(entry, run, report, window, expansion):
    bundle = _require_bialgebra(entry)
    sl = bundle.slicer(window, expansion)
    epsilon = _epsilon(run, sl, bundle.epsilon, report)
    if epsilon is None:
        return
    stage_antipode(run, sl, epsilon, report)


def cmd_classify(entry, run, report, window, expansion):
    alg = entry.algebra
    tier = stage_algebra(run, alg, window)
    qual_window = window if window is not None else "declared basis"
    if any(not v.ok for v in tier):
        report.set_classification("not a non-degenerate idempotent algebra")
        return
    all_proven = all(v.status == "proven" for v in tier)

    if entry.bialgebra is None:
        report.set_classification(_qualify("non-degenerate idempotent algebra",
                                           alg, all_proven, qual_window))
        return
    sl = entry.bialgebra.slicer(window, expansion)
    tier = stage_bialgebra(run, sl)
    if any(not v.ok for v in tier):
        report.set_classification(
            "non-degenerate idempotent algebra (coproduct fails its axioms)")
        return
    all_proven = all_proven and all(v.status == "proven" for v in tier)

    syn, counit_vs = stage_counit(run, sl, report)
    if syn is None or any(not v.ok for v in counit_vs):
        report.set_classification("coassociative comultiplication without counit")
        return
    all_proven = all_proven and all(v.status == "proven" for v in counit_vs)

    asyn = stage_antipode(run, sl, syn, report)
    if not all(v.ok for v in asyn.verdicts[:2]) or not asyn.ok:
        report.set_classification(_qualify("multiplier bialgebra", alg,
                                           all_proven, qual_window))
        return
    all_proven = all_proven and all(v.status == "proven" for v in asyn.verdicts)
    report.set_classification(_qualify("multiplier Hopf algebra", alg,
                                       all_proven, qual_window))


def _qualify(name, alg, proven, window):
    """``proven`` is a theorem only about a finite algebra."""
    if proven and alg.finite:
        return f"{name} (proven; finite)"
    return f"{name} (holds_on_window {window})"


_COMMANDS = {
    "check-algebra": cmd_check_algebra,
    "check-bialgebra": cmd_check_bialgebra,
    "check-hopf": cmd_check_hopf,
    "check-comodule": cmd_check_comodule,
    "synthesize-counit": cmd_synthesize_counit,
    "synthesize-antipode": cmd_synthesize_antipode,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        entry, source, source_digest = resolve_input(args.input)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    # the run's Slicer binds Delta (or a coaction) to this window and expansion
    window = args.window if args.window is not None else entry.default_window
    expansion = args.expansion
    if expansion is None:
        expansion = entry.bialgebra.expansion if entry.bialgebra else 2
    report = Report(args.command, source, source_digest,
                    window=window, expansion=expansion, seed=args.seed)
    run = Runner(report, timing=args.timing)
    try:
        _COMMANDS[args.command](entry, run, report, window, expansion)
    except WindowInsufficiency as exc:
        _emit(report, args.report)
        print(f"window insufficient: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(report, args.report)
    return report.exit_code


def _emit(report: Report, kind: str):
    sys.stdout.write(report.to_json() if kind == "json" else report.to_text())
