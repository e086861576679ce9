"""Tracer core behavior: spans, instants, queries, phase totals."""

import pytest

from repro.obs import (
    CAT_MESSAGE,
    CAT_PHASE,
    CAT_RING,
    PH_INSTANT,
    PH_SPAN,
    Tracer,
)


def test_span_records_all_fields():
    tracer = Tracer()
    event = tracer.span(
        "ring.step", cat=CAT_RING, ts=1.5, dur=0.25, node=2, step=3
    )
    assert event.ph == PH_SPAN
    assert event.ts == 1.5
    assert event.dur == 0.25
    assert event.node == 2
    assert event.args == {"step": 3}
    assert tracer.events == [event]


def test_instant_has_no_duration_in_dict():
    tracer = Tracer()
    event = tracer.instant("msg.send", cat=CAT_MESSAGE, ts=0.0, msg=1)
    assert event.ph == PH_INSTANT
    record = event.to_dict()
    assert "dur" not in record
    assert record["args"] == {"msg": 1}


def test_to_dict_omits_empty_optionals():
    tracer = Tracer()
    record = tracer.instant("msg.send", cat=CAT_MESSAGE, ts=0.5).to_dict()
    assert record == {"name": "msg.send", "cat": CAT_MESSAGE, "ph": "i", "ts": 0.5}


def test_events_in_filters_category_and_name():
    tracer = Tracer()
    tracer.instant("msg.send", cat=CAT_MESSAGE, ts=0.0)
    tracer.instant("msg.deliver", cat=CAT_MESSAGE, ts=1.0)
    tracer.span("ring.step", cat=CAT_RING, ts=0.0, dur=1.0)
    assert tracer.count(CAT_MESSAGE) == 2
    assert tracer.count(CAT_MESSAGE, "msg.send") == 1
    assert [e.name for e in tracer.events_in(CAT_RING)] == ["ring.step"]


def test_phase_totals_sums_in_record_order():
    tracer = Tracer()
    tracer.span("forward", cat=CAT_PHASE, ts=0.0, dur=0.1, node=0)
    tracer.span("forward", cat=CAT_PHASE, ts=1.0, dur=0.2, node=0)
    tracer.span("update", cat=CAT_PHASE, ts=2.0, dur=0.05, node=1)
    totals = tracer.phase_totals()
    assert totals["forward"] == pytest.approx(0.1 + 0.2)
    assert totals["update"] == 0.05


def test_phase_totals_filters_by_node():
    tracer = Tracer()
    tracer.span("update", cat=CAT_PHASE, ts=0.0, dur=1.0, node=0)
    tracer.span("update", cat=CAT_PHASE, ts=0.0, dur=2.0, node=1)
    assert tracer.phase_totals(node=0) == {"update": 1.0}


def test_phase_totals_ignores_other_categories_and_instants():
    tracer = Tracer()
    tracer.span("ring.step", cat=CAT_RING, ts=0.0, dur=9.0)
    tracer.instant("forward", cat=CAT_PHASE, ts=0.0)
    assert tracer.phase_totals() == {}


def test_len_counts_events():
    tracer = Tracer()
    assert len(tracer) == 0
    tracer.instant("msg.send", cat=CAT_MESSAGE, ts=0.0)
    assert len(tracer) == 1
