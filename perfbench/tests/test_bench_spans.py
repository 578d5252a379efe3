"""The span recorder: self-time arithmetic, totals, dumps and wrapper removal."""

from array import array

import pytest

import layers
import spans


def recorder(rows):
    """A Recorder holding (name, start, end, parent) rows as spans of run 0."""
    rec = spans.Recorder()
    for name, start, end, parent in rows:
        rec.name.append(rec.name_id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.run.append(0)
    return rec


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 10] has children [1, 4] and [3, 6] that overlap on [3, 4]:
    # together they cover [1, 6], so root keeps 10 - 5 = 5; [1, 4] has a
    # child [2, 3], and a child sticking out of its parent counts only inside
    start = array("d", [0.0, 1.0, 3.0, 2.0, 5.0])
    end = array("d", [10.0, 4.0, 6.0, 3.0, 8.0])
    parent = array("i", [-1, 0, 0, 1, 2])
    assert spans.self_times(start, end, parent) == [5.0, 2.0, 2.0, 1.0, 3.0]


def test_summary_counts_nested_calls_of_one_function_once():
    rec = recorder([("bench.iteration", 0.0, 10.0, -1),
                    ("ratlinalg.rank", 1.0, 5.0, 0),
                    ("ratlinalg.rank", 2.0, 3.0, 1),
                    ("ratlinalg.rref", 6.0, 8.0, 0)])
    s = spans.summarize(rec)
    assert s["ratlinalg.rank"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert s["ratlinalg.rref"]["self_s"] == 2.0
    by_layer = spans.layer_self_times(s)
    assert by_layer == {"unattributed": 4.0, "ratlinalg": 6.0}
    assert sum(by_layer.values()) == 10.0


def test_dump_round_trip(tmp_path):
    rec = recorder([("bench.setup", 0.5, 2.5, -1), ("algebra.ambient", 1.0, 2.0, 0)])
    rec.count(spans.NODES, 7)
    rec.dump(tmp_path / "spans.gz")
    back = spans.load(tmp_path / "spans.gz")
    assert back.names == rec.names and back.counts == rec.counts
    for field in ("name", "start", "end", "parent", "run"):
        assert getattr(back, field) == getattr(rec, field)


def test_wrappers_record_spans_and_are_restored():
    mods, expr = layers.package_modules()
    rl = mods["ratlinalg"]
    before = spans.attribute_snapshot(list(mods.values()) + [expr])
    original_rref = rl.rref
    rec = spans.Recorder()
    with spans.Instrumentation(rec, mods, expr):
        assert rl.rref is not original_rref
        assert rl.rank([[1, 2], [2, 4], [0, 1]]) == 2
        assert expr.parse("x * (y + 1)")({"x": 2.0, "y": 3.0}) == 8.0
    assert rl.rref is original_rref
    assert spans.same_attributes(
        before, spans.attribute_snapshot(list(mods.values()) + [expr]))
    s = spans.summarize(rec)
    assert s["ratlinalg.rank"]["calls"] == 1 and s["ratlinalg.rref"]["calls"] == 1
    assert rec.counts[spans.CELLS] == 6
    # one top-level evaluation of a tree of five nodes
    assert s["expr.eval"]["calls"] == 1 and rec.counts[spans.NODES] == 5


def test_wrappers_are_restored_after_an_exception():
    mods, expr = layers.package_modules()
    before = spans.attribute_snapshot(list(mods.values()) + [expr])
    rec = spans.Recorder()
    with pytest.raises(ValueError, match="singular"):
        with spans.Instrumentation(rec, mods, expr):
            mods["ratlinalg"].invert([[0]])
    assert all(e >= s for s, e in zip(rec.start, rec.end))
    assert spans.same_attributes(
        before, spans.attribute_snapshot(list(mods.values()) + [expr]))
