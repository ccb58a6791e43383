"""Unit tests for the observability layer (repro.datacutter.obs)."""

import json

import pytest

from repro.datacutter.obs import (
    LIFECYCLE_KINDS,
    NULL_TRACER,
    MetricsRegistry,
    Trace,
    TraceEvent,
    Tracer,
    events_from_sim_spans,
    format_summary,
    lifecycle_counts,
    parse_metric_key,
    resolve_trace_mode,
    snapshot_run,
    to_chrome_json,
    validate_event,
    validate_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.datacutter.obs.export import read_jsonl
from repro.datacutter.obs.metrics import flatten_key


# -- events ----------------------------------------------------------------


def test_event_roundtrip_and_start():
    ev = TraceEvent(
        ts=10.5, kind="service", filter="HMP", copy=1, dur=0.5,
        chunk=(0, 1, 0, 0), attrs={"stream": "iic2tex"},
    )
    assert ev.start == 10.0
    back = TraceEvent.from_dict(json.loads(json.dumps(ev.to_dict())))
    assert back == ev


def test_validate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown event kind"):
        validate_event(TraceEvent(ts=0, kind="nope", filter="F", copy=0))


def test_validate_requires_identity_except_routing():
    with pytest.raises(ValueError, match="missing filter/copy"):
        validate_event(TraceEvent(ts=0, kind="chunk.read"))
    # routing kinds live at the head, outside any copy
    validate_event(
        TraceEvent(ts=0, kind="sched.pick",
                   attrs={"stream": "s", "policy": "rr", "dest": 0})
    )


def test_validate_requires_kind_attrs():
    with pytest.raises(ValueError, match="missing attrs"):
        validate_event(TraceEvent(ts=0, kind="queue.wait", filter="F", copy=0))


def test_validate_rejects_negative_duration():
    with pytest.raises(ValueError, match="negative duration"):
        validate_event(
            TraceEvent(ts=0, kind="chunk.read", filter="F", copy=0, dur=-1.0)
        )


def test_lifecycle_counts_groups_by_chunk():
    evs = [
        TraceEvent(ts=0, kind="chunk.stitch", filter="IIC", copy=0, chunk=(0, 0)),
        TraceEvent(ts=1, kind="chunk.stitch", filter="IIC", copy=1, chunk=(1, 0)),
        TraceEvent(ts=2, kind="chunk.write", filter="HIC", copy=0, chunk=(0, 0)),
        TraceEvent(ts=3, kind="chunk.write", filter="HIC", copy=0, chunk=(0, 0)),
        TraceEvent(ts=4, kind="service", filter="X", copy=0,
                   attrs={"stream": "s"}),
    ]
    counts = lifecycle_counts(evs)
    assert counts["chunk.stitch"] == {(0, 0): 1, (1, 0): 1}
    assert counts["chunk.write"] == {(0, 0): 2}
    assert set(counts) == set(LIFECYCLE_KINDS)


# -- tracer ----------------------------------------------------------------


def test_tracer_emit_and_drain():
    tr = Tracer()
    tr.emit("copy.start", filter="F", copy=0)
    tr.emit("chunk.read", filter="F", copy=0, dur=0.1, chunk=[1, 2])
    assert len(tr) == 2
    evs = tr.drain()
    assert len(evs) == 2 and len(tr) == 0
    assert evs[1].chunk == (1, 2)  # list coerced to tuple
    validate_events(evs)


def test_null_tracer_is_inert():
    NULL_TRACER.emit("chunk.read", filter="F", copy=0)
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.drain() == []
    assert len(NULL_TRACER) == 0


def test_resolve_trace_mode():
    assert resolve_trace_mode(None) is None
    assert resolve_trace_mode(False) is None
    assert resolve_trace_mode(True) == "events"
    assert resolve_trace_mode("chrome") == "chrome"
    with pytest.raises(ValueError, match="unknown trace mode"):
        resolve_trace_mode("bogus")


def test_trace_sorts_and_summarizes():
    evs = [
        TraceEvent(ts=2.0, kind="copy.done", filter="F", copy=0),
        TraceEvent(ts=1.0, kind="copy.start", filter="F", copy=0),
    ]
    trace = Trace(evs)
    assert [e.kind for e in trace.events] == ["copy.start", "copy.done"]
    assert trace.t0 == 1.0
    assert "events" in trace.summary()


# -- metrics ---------------------------------------------------------------


def test_flatten_parse_roundtrip():
    key = flatten_key("busy_seconds", {"filter": "HMP", "copy": 3})
    assert key == "busy_seconds{copy=3,filter=HMP}"
    name, labels = parse_metric_key(key)
    assert name == "busy_seconds"
    assert labels == {"copy": "3", "filter": "HMP"}
    assert parse_metric_key("plain") == ("plain", {})


def test_registry_instruments():
    reg = MetricsRegistry()
    reg.counter("n", filter="A").inc()
    reg.counter("n", filter="A").inc(2)
    reg.gauge("depth").set(3)
    reg.gauge("depth").set(1)
    h = reg.histogram("t")
    h.observe(1.0)
    h.observe(3.0)
    snap = reg.snapshot()
    assert snap["counters"]["n{filter=A}"] == 3
    assert snap["gauges"]["depth"] == {"value": 1.0, "max": 3.0}
    assert snap["histograms"]["t"] == {
        "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
    }


def test_snapshot_run_busy_histograms_match_per_copy_values():
    busy = {("HMP", 0): 1.0, ("HMP", 1): 3.0, ("HIC", 0): 0.5}
    snap = snapshot_run(busy, {"s": 7}, 2, 1, [("HMP", 1)], {"l": 10}, 4.2)
    h = snap["histograms"]["busy_seconds{filter=HMP}"]
    assert h["count"] == 2 and h["sum"] == 4.0 and h["max"] == 3.0
    assert snap["counters"]["copies{filter=HMP}"] == 2
    assert snap["counters"]["buffers_sent{stream=s}"] == 7
    assert snap["counters"]["retries"] == 2
    assert snap["counters"]["reroutes"] == 1
    assert snap["counters"]["failed_copies{filter=HMP}"] == 1
    assert snap["counters"]["wire_bytes{link=l}"] == 10
    assert snap["gauges"]["elapsed_seconds"]["value"] == 4.2


def test_snapshot_run_ingests_events():
    evs = [
        TraceEvent(ts=1, kind="queue.wait", filter="F", copy=0, dur=0.25,
                   attrs={"stream": "s"}),
        TraceEvent(ts=1, kind="service", filter="F", copy=0, dur=0.5,
                   attrs={"stream": "s"}),
        TraceEvent(ts=1, kind="queue.depth", filter="F", copy=0,
                   attrs={"depth": 4}),
        TraceEvent(ts=1, kind="sched.pick",
                   attrs={"stream": "s", "policy": "demand_driven", "dest": 1}),
        TraceEvent(ts=1, kind="wire.frame", attrs={"stream": "s", "bytes": 9}),
        TraceEvent(ts=1, kind="chunk.write", filter="F", copy=0, dur=0.1,
                   chunk=(0,), attrs={"records": 12}),
    ]
    snap = snapshot_run({}, {}, 0, 0, [], {}, 1.0, events=evs)
    assert snap["histograms"]["queue_wait_seconds{filter=F}"]["sum"] == 0.25
    assert snap["histograms"]["service_seconds{filter=F}"]["sum"] == 0.5
    assert snap["gauges"]["queue_depth{filter=F}"]["max"] == 4.0
    assert snap["counters"][
        "sched_picks{policy=demand_driven,stream=s}"] == 1
    assert snap["counters"]["wire_frames{stream=s}"] == 1
    assert snap["counters"]["records_written"] == 12
    assert snap["histograms"]["chunk_stage_seconds{stage=write}"]["count"] == 1


# -- exporters -------------------------------------------------------------


def _sample_events():
    return [
        TraceEvent(ts=1.0, kind="copy.start", filter="RFR", copy=0),
        TraceEvent(ts=1.5, kind="chunk.read", filter="RFR", copy=0, dur=0.2,
                   attrs={"bytes": 10}),
        TraceEvent(ts=1.6, kind="queue.depth", filter="IIC", copy=0,
                   attrs={"depth": 2}),
        TraceEvent(ts=1.7, kind="sched.pick",
                   attrs={"stream": "s", "policy": "rr", "dest": 0}),
        TraceEvent(ts=2.0, kind="chunk.stitch", filter="IIC", copy=0, dur=0.3,
                   chunk=(0, 0, 0, 0)),
    ]


def test_chrome_export_shape():
    doc = to_chrome_json(_sample_events())
    evs = doc["traceEvents"]
    phases = {e["ph"] for e in evs}
    assert {"M", "X", "C", "i"} <= phases
    spans = [e for e in evs if e["ph"] == "X"]
    assert any("chunk.stitch" in s["name"] for s in spans)
    for s in spans:
        assert s["dur"] > 0
        assert s["ts"] >= 0
    meta = [e for e in evs if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert {"RFR", "IIC"} <= names


def test_chrome_write_is_valid_json(tmp_path):
    path = str(tmp_path / "trace.json")
    write_chrome_trace(_sample_events(), path)
    doc = json.load(open(path))
    assert doc["traceEvents"]


def test_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    evs = _sample_events()
    write_jsonl(evs, path)
    back = read_jsonl(path)
    assert back == sorted(evs, key=lambda e: e.ts)


def test_format_summary_mentions_filters_and_stages():
    text = format_summary(_sample_events())
    assert "RFR" in text and "chunk.stitch" in text


def test_events_from_sim_spans():
    spans = {
        ("HMP", 0): [(0.0, 1.0, "compute"), (1.0, 1.5, "write")],
        ("RFR", 0): [(0.0, 0.2, "read")],
    }
    evs = events_from_sim_spans(spans, t0=100.0)
    validate_events(evs)
    kinds = sorted(e.kind for e in evs)
    assert kinds == ["chunk.cooccur", "chunk.read", "chunk.write"]
    assert all(e.ts >= 100.0 for e in evs)
    compute = next(e for e in evs if e.kind == "chunk.cooccur")
    assert compute.dur == 1.0 and compute.filter == "HMP"
