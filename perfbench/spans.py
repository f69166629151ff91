"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer of the package: its name, start, end, parent
span and run id.  Spans are kept in memory and written out once the run ends.
A layer's self time is its span's duration minus the part of that interval its
child spans cover.

The recorder wraps a function by rebinding module (or class) attributes, so it
sees a call only when the caller looks the name up at call time, as in
``ops.assemble_full_2d(...)``.  A ``from .x import f`` in another package
module is a second attribute holding the same function; ``wrap`` rebinds every
such alias in the modules it is given.  Spans nest through one stack, so the
traced code must call the wrapped functions from a single thread.
"""

from __future__ import annotations

import functools
import json
import time


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.overhead_s = 0.0  # the recorder's own bookkeeping time
        self._stack: list = []
        self._undo: list = []
        self._next_id = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, owner, attr: str, alias_modules=()) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        Every attribute of ``alias_modules`` that holds the same function is
        rebound too.  ``restore`` undoes all rebinding.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        targets = [(owner, attr)]
        for module in alias_modules:
            targets += [(module, key) for key, val in vars(module).items()
                        if val is original and (module, key) != (owner, attr)]
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    def restore(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


class _Span:
    __slots__ = ("rec", "name", "entry", "record")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.entry = time.perf_counter()
        rec = self.rec
        self.record = {
            "id": rec._next_id,
            "name": self.name,
            "parent": rec._stack[-1]["id"] if rec._stack else None,
            "run": rec.run_id,
        }
        rec._next_id += 1
        rec._stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self.rec
        self.record["end"] = end
        rec._stack.pop()
        rec.spans.append(self.record)
        rec.overhead_s += (self.record["start"] - self.entry
                           + time.perf_counter() - end)
        return False


def covered(interval, others) -> float:
    """Length of the part of ``interval`` that the union of ``others`` covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others)
    total, reach = 0.0, lo
    for a, b in clipped:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_totals(spans) -> dict:
    """{name: (self time in s, number of calls)} over the recorded spans."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict = {}
    for s in spans:
        own = (s["end"] - s["start"]
               - covered((s["start"], s["end"]), children.get(s["id"], ())))
        t, n = out.get(s["name"], (0.0, 0))
        out[s["name"]] = (t + own, n + 1)
    return out
