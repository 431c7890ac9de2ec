"""In-memory spans and counters attached to a program from outside.

A ``Tracer`` replaces functions and methods with wrappers that record one
span per call (name, start, end, parent) or bump a counter, and puts the
originals back on ``restore``.  It knows nothing about the program it
traces; ``layers.py`` says what to wrap.

Spans live in parallel arrays indexed by span id, in start order, so a
parent always precedes its children.  ``outer`` marks the spans with no
ancestor of the same name, which are the ones a name's total counts, so
recursion is not counted twice.
"""

from __future__ import annotations

import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []       # span name per name index
        self._index: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")    # span id, or -1 for a top-level span
        self.outer = array("b")
        self._depth: list = []      # open spans per name index
        self._stack: list = []      # ids of the open spans
        self._cells: dict = {}      # counter key -> [count]
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def _intern(self, name) -> int:
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return ix

    def cell(self, key) -> list:
        """The one-element list holding counter ``key``."""
        return self._cells.setdefault(key, [0])

    def add(self, key, n=1):
        self.cell(key)[0] += n

    def open(self, name) -> int:
        """Start a span by hand; returns its id for ``close``."""
        ix = self._intern(name)
        sid = len(self.name)
        self.name.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[ix] == 0)
        self.end.append(0.0)
        self._depth[ix] += 1
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid):
        self.end[sid] = self.clock()
        self._stack.pop()
        self._depth[self.name[sid]] -= 1

    def spanned(self, fn, name, note=None):
        """``fn`` wrapped in a span; ``note(args, result)`` runs after a return."""
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            sid = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if note is not None:
                note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key):
        """``fn`` wrapped so that every call bumps counter ``key``."""
        cell = self.cell(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_method(self, cls, attr, make):
        """Wrap ``cls.attr`` (defined on ``cls`` itself) with ``make(original)``."""
        self.patch(cls, attr, make(cls.__dict__[attr]))

    def patch_function(self, home, attr, make, modules):
        """Wrap function ``home.attr`` in every module that holds it by name."""
        original = getattr(home, attr)
        wrapper = make(original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self.patch(mod, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def counts(self) -> dict:
        return {key: cell[0] for key, cell in self._cells.items()}

    def self_times(self) -> list:
        """Per span id: duration minus the durations of its child spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def summary(self) -> dict:
        """Per span name: calls, total seconds (outermost spans) and self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        own = self.self_times()
        for sid, ix in enumerate(self.name):
            row = out[self.names[ix]]
            row["calls"] += 1
            row["self_s"] += own[sid]
            if self.outer[sid]:
                row["total_s"] += self.end[sid] - self.start[sid]
        return out

    def top_level_s(self) -> float:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def parents_with_child(self, parent_name, child_name) -> int:
        """Number of ``parent_name`` spans that have a ``child_name`` child."""
        pix, cix = self._index.get(parent_name), self._index.get(child_name)
        if pix is None or cix is None:
            return 0
        return len({p for ix, p in zip(self.name, self.parent)
                    if ix == cix and p >= 0 and self.name[p] == pix})
