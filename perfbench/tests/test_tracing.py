"""Span bookkeeping: self time, adoption of worker spans, Chrome export."""

import pytest

from pb.tracing import Tracer, chrome_trace, layer_self_times, self_times


def span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "run": "r", "pid": 1}


def test_self_time_subtracts_children():
    spans = [span(1, "campaign.run", 0.0, 10.0),
             span(2, "unsync.run", 1.0, 4.0, parent=1),
             span(3, "reunion.run", 5.0, 7.0, parent=1)]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(2.0)


def test_overlapping_children_count_once():
    # two trials in parallel pool workers under one wave
    spans = [span(1, "campaign.wave", 0.0, 10.0),
             span(2, "campaign.trial", 1.0, 6.0, parent=1),
             span(3, "campaign.trial", 4.0, 8.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent():
    spans = [span(1, "service.job", 0.0, 2.0),
             span(2, "service.status", 1.5, 3.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.5)


def test_grandchildren_only_reduce_their_own_parent():
    spans = [span(1, "campaign.run", 0.0, 10.0),
             span(2, "unsync.run", 0.0, 6.0, parent=1),
             span(3, "checkpoint.capture", 1.0, 3.0, parent=2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(2.0)


def test_layer_self_times_group_by_first_component():
    spans = [span(1, "campaign.run", 0.0, 10.0),
             span(2, "campaign.store_append", 1.0, 2.0, parent=1),
             span(3, "unsync.run", 2.0, 6.0, parent=1)]
    layers = layer_self_times(spans)
    assert layers["campaign"] == pytest.approx(6.0)
    assert layers["unsync"] == pytest.approx(4.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_run_id():
    tracer = Tracer("run-1")
    with tracer.span("campaign.run") as outer:
        with tracer.span("unsync.run") as inner:
            pass
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
    assert {s["run"] for s in tracer.spans} == {"run-1"}
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_wrap_records_a_span_per_call():
    tracer = Tracer("r")
    traced = tracer.wrap(lambda x: x + 1, "isa.step")
    assert traced(1) == 2
    assert [s["name"] for s in tracer.spans] == ["isa.step"]


def test_adopt_renumbers_and_reparents_worker_spans():
    tracer = Tracer("parent")
    with tracer.span("campaign.wave") as wave:
        pass
    worker = [span(7, "campaign.trial", 0.1, 0.5, parent=99),
              span(8, "unsync.run", 0.2, 0.4, parent=7)]
    tracer.adopt(worker, wave["id"])
    trial, run = tracer.spans[-2:]
    assert trial["parent"] == wave["id"]
    assert run["parent"] == trial["id"]
    assert len({s["id"] for s in tracer.spans}) == 3
    assert {s["run"] for s in tracer.spans} == {"parent"}


def test_chrome_trace_events():
    spans = [span(1, "campaign.run", 1.0, 3.0),
             span(2, "unsync.run", 1.5, 2.0, parent=1)]
    events = chrome_trace(spans)["traceEvents"]
    assert [e["name"] for e in events] == ["campaign.run", "unsync.run"]
    assert events[0]["ts"] == 0.0
    assert events[0]["dur"] == pytest.approx(2e6)
    assert events[0]["args"]["self_us"] == pytest.approx(1.5e6)
    assert events[1]["args"]["parent"] == 1
    assert all(e["ph"] == "X" for e in events)
