"""Run reports: a stable JSON document and a one-line-per-check text form.

The JSON is deterministic for identical inputs and seeds: entries keep
the pipeline order, dictionary keys are sorted on serialization, and timings are null unless explicitly
requested, so repeated runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import Verdict, witness_text

TOOL_NAME = "mulhopf"
TOOL_VERSION = "0.1.0"


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return "sha256:" + hashlib.sha256(data).hexdigest()


class Report:
    def __init__(self, command: str, source: str, source_digest: str,
                 window=None, expansion=None, seed=None):
        self.data = {
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "command": command,
            "input": {
                "source": source,
                "digest": source_digest,
                "window": window,
                "expansion": expansion,
                "seed": seed,
            },
            "entries": [],
            "tables": {},
            "classification": None,
        }

    def add(self, verdict: Verdict, timing_ms=None):
        self.data["entries"].append({
            "axiom": verdict.axiom,
            "status": verdict.status,
            "window": verdict.window,
            "witness": witness_text(verdict.witness)
                       if verdict.witness is not None else None,
            "detail": verdict.detail or None,
            "timing_ms": timing_ms,
        })

    def add_table(self, name: str, mapping: dict):
        """A synthesized value table; keys and values must be strings."""
        self.data["tables"][name] = dict(mapping)

    def set_classification(self, text: str):
        self.data["classification"] = text

    @property
    def failed(self):
        return [e for e in self.data["entries"] if e["status"] == "failed"]

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2,
                          default=str) + "\n"

    def to_text(self) -> str:
        d = self.data
        opts = []
        if d["input"]["window"] is not None:
            opts.append(f"window={d['input']['window']}")
        if d["input"]["expansion"] is not None:
            opts.append(f"expansion={d['input']['expansion']}")
        if d["input"]["seed"] is not None:
            opts.append(f"seed={d['input']['seed']}")
        head = f"{TOOL_NAME} {d['command']} {d['input']['source']}"
        if opts:
            head += "  (" + ", ".join(opts) + ")"
        lines = [head]
        for e in d["entries"]:
            line = f"  {e['axiom']}: {e['status']} [{e['window']}]"
            if e["witness"]:
                line += f" witness={e['witness']}"
            if e["detail"]:
                line += f" ({e['detail']})"
            if e["timing_ms"] is not None:
                line += f" {e['timing_ms']:.1f}ms"
            lines.append(line)
        for name, table in sorted(d["tables"].items()):
            lines.append(f"  {name} table:")
            for k, v in table.items():
                lines.append(f"    {k} -> {v}")
        if d["classification"]:
            lines.append(f"classification: {d['classification']}")
        return "\n".join(lines) + "\n"
