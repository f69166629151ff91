"""Span recorder: self-time arithmetic and attribute wrapping."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import spans  # noqa: E402


def _span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "run": "t"}


def test_self_time_subtracts_children_union():
    recorded = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "leaf", 2.0, 3.0, parent=1),
        # overlaps a: the union of the children, not their sum, is removed
        _span(3, "b", 3.0, 6.0, parent=0),
        _span(4, "a", 7.0, 8.0, parent=0),
    ]
    totals = spans.layer_totals(recorded)
    assert totals["root"] == (pytest.approx(10.0 - 5.0 - 1.0), 1)
    assert totals["a"] == (pytest.approx(2.0 + 1.0), 2)
    assert totals["leaf"] == (pytest.approx(1.0), 1)
    assert totals["b"] == (pytest.approx(3.0), 1)


def test_covered_clips_to_the_interval():
    assert spans.covered((2.0, 5.0), [(0.0, 3.0), (4.0, 9.0)]) == 2.0
    assert spans.covered((2.0, 5.0), []) == 0.0


def test_wrap_records_nested_calls_and_aliases_then_restores():
    lib = types.ModuleType("lib")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", lib.__dict__)
    alias = types.ModuleType("alias")
    alias.inner_copy = lib.inner
    originals = (lib.inner, lib.outer)

    rec = spans.Recorder("t")
    rec.wrap("lib.inner", lib, "inner", alias_modules=[lib, alias])
    rec.wrap("lib.outer", lib, "outer", alias_modules=[lib, alias])
    with rec.span("root"):
        assert lib.outer(1) == 4
        assert alias.inner_copy(1) == 2
    rec.restore()

    assert (lib.inner, lib.outer) == originals
    assert alias.inner_copy is originals[0]
    by_id = {s["id"]: s for s in rec.spans}
    names = sorted((s["name"], by_id[s["parent"]]["name"] if s["parent"]
                    is not None else None) for s in rec.spans)
    assert names == [("lib.inner", "lib.outer"), ("lib.inner", "root"),
                     ("lib.outer", "root"), ("root", None)]
    totals = spans.layer_totals(rec.spans)
    root = next(s for s in rec.spans if s["name"] == "root")
    assert sum(t for t, _ in totals.values()) == pytest.approx(
        root["end"] - root["start"])
    assert rec.overhead_s > 0
