"""Tests for every export format: metrics CSV rows, trace JSONL round
trips, and the Chrome trace-event structure."""

import csv
import io
import json

from repro.obs import MetricsRegistry, Span, TraceData


def sample_registry():
    reg = MetricsRegistry()
    reg.counter("disk_completed", disk="a0.d0").inc(41)
    reg.gauge("utilization", disk="a0.d0").set(0.625)
    h = reg.histogram("response_ms", lo=0.1, hi=1000.0, buckets_per_decade=4)
    for x in (0.05, 1.0, 2.5, 40.0, 5000.0):
        h.observe(x)
    s = reg.series("queue_depth", disk="a0.d0")
    s.record(10.0, 1.0)
    s.record(20.0, 3.0)
    return reg


def sample_trace():
    spans = [
        Span(sid=0, kind="request", name="read", t0=1.0, t1=9.0, rid=0,
             attrs={"lstart": 4, "nblocks": 1, "is_write": False}),
        Span(sid=1, kind="disk", name="a0.d1", t0=1.0, t1=8.0, rid=0, parent=0,
             attrs={"disk": "a0.d1"}),
        Span(sid=2, kind="phase", name="seek", t0=1.0, t1=5.0, rid=0, parent=1,
             attrs={"disk": "a0.d1"}),
        Span(sid=3, kind="mark", name="mirror_route", t0=1.0, t1=1.0, rid=0,
             parent=0),
    ]
    return TraceData({"name": "unit", "simulated_ms": 10.0}, spans)


class TestMetricsCsv:
    def test_round_trip(self):
        """Every value the registry holds reads back from its CSV rows."""
        reg = sample_registry()
        header, *rows = csv.reader(io.StringIO(reg.to_csv()))
        assert header == ["kind", "name", "labels", "field", "value"]
        by_field = {(kind, name, labels, f): v for kind, name, labels, f, v in rows}
        assert float(by_field["counter", "disk_completed", "disk=a0.d0", "value"]) == 41
        assert float(by_field["gauge", "utilization", "disk=a0.d0", "value"]) == 0.625
        h = reg.get("response_ms")
        hist = {f: v for (kind, name, _, f), v in by_field.items() if name == "response_ms"}
        assert int(hist["count"]) == h.count == 5
        assert float(hist["total"]) == h.total
        assert (float(hist["min"]), float(hist["max"])) == (h.min, h.max)
        buckets = {int(f[len("bucket_"):]): int(v) for f, v in hist.items()
                   if f.startswith("bucket_")}
        assert buckets == {i: c for i, c in enumerate(h.counts) if c}
        series = [(float(f), float(v)) for kind, _, _, f, v in rows if kind == "series"]
        assert series == [(10.0, 1.0), (20.0, 3.0)]


class TestTraceJsonl:
    def test_round_trip(self, tmp_path):
        data = sample_trace()
        path = tmp_path / "trace.jsonl"
        data.to_jsonl(str(path))
        back = TraceData.from_jsonl(str(path))
        assert back.meta == data.meta
        assert len(back.spans) == len(data.spans)
        for a, b in zip(data.spans, back.spans):
            assert a == b

    def test_first_line_is_meta(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sample_trace().to_jsonl(str(path))
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "meta"
        assert first["name"] == "unit"


class TestChrome:
    def test_structure(self, tmp_path):
        path = tmp_path / "trace.json"
        sample_trace().to_chrome(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        begins = [e for e in events if e.get("ph") == "b"]
        ends = [e for e in events if e.get("ph") == "e"]
        # One begin/end pair per closed span.
        assert len(begins) == len(ends) == 4
        by_id = {e["id"]: e for e in begins}
        # Disk and phase spans land on the disks process, others on requests.
        assert by_id[1]["pid"] == 2 and by_id[2]["pid"] == 2
        assert by_id[0]["pid"] == 1
        # Timestamps are microseconds.
        assert by_id[0]["ts"] == 1000.0
        names = {e["name"] for e in events if e.get("ph") == "M"}
        assert {"process_name", "thread_name"} <= names
