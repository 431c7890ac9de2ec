"""Known-answer checker for mulhopf JSON reports.

It recomputes the expected tables from the seeded coefficients with
``fractions`` and modular arithmetic and reads the report as plain JSON; it
imports nothing from ``mulhopf``.  ``check_case`` returns the list of
mismatches for one input (empty when the report is right).  Mismatches are
counted by the caller, never raised.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_ID_NUM = re.compile(r"^[A-Za-z]+(-?\d+)$")


def _scalar(field, text):
    if field is None:
        return Fraction(text)
    return int(text) % field


def _element(field, text):
    """'c*id + c*id' (or '0') as {id: scalar}."""
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        coeff, _, bid = term.partition("*")
        if not bid:
            raise ValueError(f"malformed term {term!r}")
        out[bid] = _scalar(field, coeff)
    return out


def expected_table(name, spec, keys):
    """Expected values ({key: scalar or {id: scalar}}) of one report table.

    ``spec`` is the table entry of a case's ``expect``; ``keys`` are the
    keys the report printed, used only for the window-relative K(Z) family,
    whose synthesized window is not fixed in advance.
    """
    field = spec["field"]
    if spec.get("family") == "kfin":
        out = {}
        for key in keys:
            m = _ID_NUM.match(key)
            if m is None:
                raise ValueError(f"unexpected table key {key!r}")
            k = int(m.group(1))
            out[key] = (Fraction(int(k == 0)) if name == "epsilon"
                        else {f"d{-k}": Fraction(1)})
        if "d0" not in out:
            raise ValueError("table misses d0")
        return out
    cs = [_scalar(field, c) for c in spec["c"]]
    n, prefix = len(cs), spec["prefix"]

    def div(a, b):
        return a / b if field is None else a * pow(b, field - 2, field) % field

    if name == "epsilon":
        zero = Fraction(0) if field is None else 0
        return {f"{prefix}{k}": (cs[0] if k == 0 else zero) for k in range(n)}
    return {f"{prefix}{k}": {f"{prefix}{(n - k) % n}": div(cs[k], cs[(n - k) % n])}
            for k in range(n)}


def _check_table(name, spec, got):
    try:
        want = expected_table(name, spec, list(got))
    except ValueError as exc:
        return [f"table {name}: {exc}"]
    problems = []
    if set(got) != set(want):
        problems.append(f"table {name}: keys {sorted(got)} != {sorted(want)}")
    for key in sorted(set(got) & set(want)):
        try:
            value = (_scalar(spec["field"], got[key]) if name == "epsilon"
                     else _element(spec["field"], got[key]))
        except ValueError as exc:
            problems.append(f"table {name}[{key}]: cannot parse {got[key]!r}: {exc}")
            continue
        if value != want[key]:
            problems.append(f"table {name}[{key}]: {got[key]!r}, want {want[key]!r}")
    return problems


def check_case(expect, exit_code, report_text):
    """Mismatches between one run and its known answer.

    ``exit_code`` is what ``cli.main`` returned (None if it raised);
    ``report_text`` is what it wrote to stdout.
    """
    if exit_code is None:
        return ["raised instead of returning an exit code"]
    problems = []
    if exit_code != expect["exit"]:
        problems.append(f"exit code {exit_code}, want {expect['exit']}")
    try:
        report = json.loads(report_text)
    except ValueError:
        return problems + ["report is not JSON"]
    entries = report.get("entries", [])
    first = {}
    for e in entries:
        first.setdefault(e["axiom"], e)

    if "classification" in expect and report.get("classification") != expect["classification"]:
        problems.append(f"classification {report.get('classification')!r}, "
                        f"want {expect['classification']!r}")
    if expect.get("no_failures"):
        problems += [f"{e['axiom']}: failed" for e in entries if e["status"] == "failed"]
    if "all_status" in expect:
        problems += [f"{e['axiom']}: {e['status']}, want {expect['all_status']}"
                     for e in entries if e["status"] != expect["all_status"]]
    for axiom, status in expect.get("statuses", {}).items():
        got = first.get(axiom, {}).get("status")
        if got != status:
            problems.append(f"{axiom}: {got}, want {status}")
    for axiom, witness in expect.get("witnesses", {}).items():
        got = first.get(axiom, {}).get("witness")
        if got != witness:
            problems.append(f"{axiom} witness {got!r}, want {witness!r}")

    tables = report.get("tables", {})
    want_tables = expect.get("tables", {})
    if set(tables) != set(want_tables):
        problems.append(f"tables {sorted(tables)}, want {sorted(want_tables)}")
    for name in sorted(set(tables) & set(want_tables)):
        problems += _check_table(name, want_tables[name], tables[name])
    return problems
