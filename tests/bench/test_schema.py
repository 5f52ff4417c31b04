"""The normalized bench-record schema and the scripts that write it."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.schema import (
    SCHEMA,
    BenchRecord,
    BenchSchemaError,
    Metric,
    load_bench_file,
    normalize,
    to_json,
)

ROOT = Path(__file__).resolve().parent.parent.parent


def _script(name):
    """A bench script under ``benchmarks/`` loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONTEXT = {"python": "3.12.0", "platform": "test", "cores": 2}

CAMPAIGN_KERNEL = {
    "campaign": {
        "experiments": ["fig8"],
        "scale": 0.01,
        "jobs": 2,
        "serial_s": 1.0,
        "parallel_s": 0.5,
        "speedup": 2.0,
        "outputs_identical": True,
    },
    "event_throughput": {"events": 1000, "elapsed_s": 0.01, "events_per_s": 100000},
    "seek_time": {"calls": 10, "lut_s": 0.1, "closed_form_s": 0.2, "lut_speedup": None},
    "trace_generation": {"requests": 10, "elapsed_s": 0.01, "requests_per_s": 1000},
    "streaming": {"requests": 20000, "requests_per_s": 15000, "peak_trace_mb": 1.5,
                  "bounded": True},
}

ANALYTIC = {
    "campaigns": [
        {
            "experiment": "fig5",
            "points": 32,
            "des_s": 10.0,
            "analytic_s": 0.5,
            "speedup": 20.0,
            "max_rel_error": 0.3,
            "mean_abs_rel_error": 0.1,
            "tolerance": 0.5,
            "within_tolerance": True,
        }
    ],
    "best_speedup": 20.0,
}


class TestScriptRecords:
    """The bench scripts write ``repro-bench/1`` themselves."""

    def test_campaign_kernel_record(self):
        doc = _script("bench_campaign")._record(CAMPAIGN_KERNEL, CONTEXT)
        record = normalize(doc, source="t")
        assert record.bench_id == "campaign+kernel"
        assert record.metrics["campaign.speedup"] == Metric(2.0, "x", "higher")
        assert record.metrics["campaign.serial_s"].direction == "lower"
        assert record.metrics["event_throughput.events_per_s"].value == 100000
        assert record.metrics["campaign.outputs_identical"].value == 1.0
        assert record.metrics["streaming.peak_trace_mb"] == Metric(1.5, "MB", "lower")
        # A null measurement is left out, not written as a number.
        assert "seek_time.lut_speedup" not in record.metrics
        assert record.context == CONTEXT
        assert record.raw == CAMPAIGN_KERNEL

    def test_analytic_record(self):
        doc = _script("bench_analytic")._record(ANALYTIC, CONTEXT)
        record = normalize(doc, source="t")
        assert record.bench_id == "analytic-vs-des"
        assert record.metrics["analytic.fig5.analytic_speedup"] == Metric(20.0, "x", "higher")
        assert record.metrics["analytic.fig5.max_rel_error"].direction == "lower"
        assert record.metrics["analytic.best_speedup"].value == 20.0
        assert record.raw == ANALYTIC


class TestNormalize:
    def test_normalized_round_trip(self):
        record = BenchRecord(
            "x", CONTEXT, {"a.b": Metric(2.0, "s", "lower")}, raw=ANALYTIC
        )
        doc = to_json(record)
        assert doc["schema"] == SCHEMA
        again = normalize(doc, source="t2")
        assert again.metrics == record.metrics
        assert again.bench_id == record.bench_id
        # The raw document survives the round trip.
        assert again.raw == ANALYTIC

    @pytest.mark.parametrize("shape", ["campaign+kernel", "analytic-vs-des", "mystery"])
    def test_benchmark_keyed_document_rejected(self, shape):
        """The pre-``repro-bench/1`` shapes are no longer adapted."""
        with pytest.raises(BenchSchemaError, match="unknown schema"):
            normalize({"benchmark": shape, "best_speedup": 2.0}, source="t")

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(BenchSchemaError, match="unknown schema"):
            normalize({"schema": "repro-bench/999", "bench_id": "x"}, source="t")

    def test_non_numeric_metric_rejected(self):
        doc = {
            "schema": SCHEMA,
            "bench_id": "x",
            "metrics": {"m": {"value": "fast"}},
        }
        with pytest.raises(BenchSchemaError):
            normalize(doc, source="t")

    def test_bad_direction_rejected(self):
        with pytest.raises(BenchSchemaError, match="direction"):
            Metric(1.0, direction="sideways")

    def test_empty_metrics_rejected(self):
        with pytest.raises(BenchSchemaError, match="metrics"):
            normalize({"schema": SCHEMA, "bench_id": "x", "metrics": {}}, source="t")


class TestCommittedFiles:
    """Every committed BENCH_*.json must parse under the shared schema."""

    @pytest.mark.parametrize(
        "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name
    )
    def test_committed_bench_file_parses(self, path):
        record = load_bench_file(path)
        assert record.metrics, f"{path.name} normalized to zero metrics"
        assert record.bench_id

    def test_at_least_two_committed_files(self):
        # The trajectory gate needs history to compare against.
        assert len(list(ROOT.glob("BENCH_*.json"))) >= 2


class TestLoadFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchSchemaError, match="cannot read"):
            load_bench_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="not JSON"):
            load_bench_file(p)

    def test_load_normalized_file(self, tmp_path):
        p = tmp_path / "BENCH_x.json"
        p.write_text(json.dumps(_script("bench_analytic")._record(ANALYTIC, CONTEXT)))
        record = load_bench_file(p)
        assert record.source == str(p)
        assert "analytic.fig5.analytic_speedup" in record.metrics
