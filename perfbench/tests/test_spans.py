"""Span self-time arithmetic and patch installation."""

import warnings

import pytest

import spans
from spans import LAYER, NAME, Recorder, covered, per_op_means, self_times


def span(ident, parent, op, name, layer, start, end):
    return [ident, parent, op, name, layer, start, end]


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-1.0, 0.5)]) == pytest.approx(5.5)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_is_duration_minus_direct_children():
    tree = [
        span(0, -1, 0, "op", "perfbench", 0.0, 10.0),
        span(1, 0, 0, "run", "distributed", 1.0, 9.0),
        span(2, 1, 0, "kernel", "network", 2.0, 8.0),
        span(3, 2, 0, "grad", "dnn", 3.0, 4.0),
        span(4, 2, 0, "grad", "dnn", 5.0, 7.0),
    ]
    own = self_times(tree)
    assert own == {0: 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0}
    assert sum(own.values()) == pytest.approx(10.0), "self times tile the op"
    by_name, calls = per_op_means(tree, NAME, {0: 1.0})
    assert by_name["grad"] == 3.0 and calls["grad"] == 2
    by_layer, _ = per_op_means(tree, LAYER, {0: 1.0})
    assert by_layer == {"perfbench": 2.0, "distributed": 2.0, "network": 3.0, "dnn": 3.0}
    second_op = [[s[0] + 5, max(s[1], -1) + 5 * (s[1] >= 0), 1, *s[3:]] for s in tree]
    seconds, calls = per_op_means(tree + second_op, NAME, {0: 1.0, 1: 3.0})
    assert calls["grad"] == 2, "means are per operation"
    assert seconds["grad"] == 6.0, "each operation's seconds carry its own calibration"


def test_recorder_nests_and_tags_operations():
    rec = Recorder()
    with rec.operation(7):
        with rec.span("a", "core"):
            with rec.span("b", "hardware"):
                pass
    root, a, b = rec.spans
    assert (root[spans.NAME], root[spans.PARENT], root[spans.OP]) == ("op", -1, 7)
    assert a[spans.PARENT] == root[spans.ID] and b[spans.PARENT] == a[spans.ID]
    assert b[spans.OP] == 7
    assert root[spans.START] <= a[spans.START] <= b[spans.START] <= b[spans.END] <= a[spans.END] <= root[spans.END]


def test_install_wraps_every_alias_and_uninstall_restores():
    import repro.transport
    import repro.transport.endpoint as endpoint
    import repro.transport.wire as wire
    from repro.core.registry import StreamProfile

    original, method = wire.build_wire_message, StreamProfile.compress
    rec = Recorder()
    undo, missing = spans.install(rec)
    try:
        assert missing == []
        assert wire.build_wire_message is not original
        assert endpoint.build_wire_message is wire.build_wire_message
        assert repro.transport.build_wire_message is wire.build_wire_message
        with rec.operation(0):
            wire.build_wire_message(0, 1, nbytes=100)
        assert [s[NAME] for s in rec.spans] == ["op", "transport.build_wire_message"]
    finally:
        spans.uninstall(undo)
    assert wire.build_wire_message is original
    assert endpoint.build_wire_message is original
    assert StreamProfile.compress is method


def test_missing_patch_point_warns_and_is_reported(monkeypatch):
    gone = ("gone.span", "core", "repro.core.registry", "StreamProfile.no_such_method")
    monkeypatch.setattr(spans, "PATCH_POINTS", (gone,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        undo, missing = spans.install(Recorder())
    assert (undo, missing) == ([], ["gone.span"])
    assert "is gone" in str(caught[0].message)
