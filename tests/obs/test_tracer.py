"""End-to-end tracing tests: span trees from real runs are well formed,
reconstruct the measured response times, and decompose into phases that
sum to the response exactly."""

import math

import pytest

from repro.obs import decompose, phase_table, well_formedness_problems
from repro.obs.analyze import decompose_request
from repro.obs.span import Span

from .conftest import traced_run


def roots_by_rid(data):
    return {s.rid: s for s in data.roots()}


class TestWellFormedness:
    @pytest.mark.parametrize("fixture", ["raid5_result", "mirror_result", "cached_result"])
    def test_no_problems(self, fixture, request):
        result = request.getfixturevalue(fixture)
        assert well_formedness_problems(result.trace) == []

    def test_roots_cover_all_requests(self, raid5_result):
        roots = roots_by_rid(raid5_result.trace)
        assert len(roots) == raid5_result.requests
        assert set(roots) == set(range(raid5_result.requests))


class TestResponseReconstruction:
    @pytest.mark.parametrize("fixture", ["raid5_result", "mirror_result", "cached_result"])
    def test_root_durations_match_tally(self, fixture, request):
        result = request.getfixturevalue(fixture)
        durations = sorted(s.duration for s in result.trace.roots())
        measured = sorted(result.response.samples)
        assert len(durations) == len(measured)
        for a, b in zip(durations, measured):
            assert a == pytest.approx(b, abs=1e-9)


class TestPhaseSums:
    @pytest.mark.parametrize("fixture", ["raid5_result", "mirror_result", "cached_result"])
    def test_breakdowns_partition_response(self, fixture, request):
        result = request.getfixturevalue(fixture)
        rows = decompose(result.trace)
        assert len(rows) == result.requests
        for root, breakdown in rows:
            assert sum(breakdown.values()) == pytest.approx(
                root.duration, abs=1e-6
            )
            assert all(v >= -1e-9 for v in breakdown.values())

    def test_raid5_writes_pay_rmw(self, raid5_result):
        table = phase_table(raid5_result.trace)
        assert table["write"]["phases"].get("rmw_rotate", 0.0) > 0.0
        assert table["read"]["phases"].get("rmw_rotate", 0.0) == 0.0

    def test_mechanical_phases_present(self, raid5_result):
        phases = phase_table(raid5_result.trace)["all"]["phases"]
        for name in ("seek", "rotation", "transfer", "disk_queue"):
            assert phases.get(name, 0.0) > 0.0

    def test_aggregate_means_sum_to_mean_response(self, raid5_result):
        for agg in phase_table(raid5_result.trace).values():
            assert sum(agg["phases"].values()) == pytest.approx(
                agg["mean_ms"], abs=1e-6
            )


class TestDecomposeRequest:
    def root(self, t0=0.0, t1=10.0):
        return Span(sid=0, kind="request", name="read", t0=t0, t1=t1, rid=0)

    def phase(self, name, t0, t1, sid=1):
        return Span(sid=sid, kind="phase", name=name, t0=t0, t1=t1, rid=0, parent=0)

    def test_gap_becomes_other(self):
        out = decompose_request(self.root(), [self.phase("seek", 2.0, 5.0)])
        assert out["seek"] == pytest.approx(3.0)
        assert out["other"] == pytest.approx(7.0)

    def test_overlap_resolved_by_precedence(self):
        # Queueing under an active seek is attributed to the seek.
        out = decompose_request(
            self.root(),
            [self.phase("disk_queue", 0.0, 10.0), self.phase("seek", 3.0, 6.0, sid=2)],
        )
        assert out["seek"] == pytest.approx(3.0)
        assert out["disk_queue"] == pytest.approx(7.0)
        assert "other" not in out or out["other"] == pytest.approx(0.0)

    def test_phases_clipped_to_root(self):
        out = decompose_request(self.root(), [self.phase("transfer", -5.0, 50.0)])
        assert out == {"transfer": pytest.approx(10.0)}

    def test_empty_root_interval(self):
        assert decompose_request(self.root(t1=0.0), []) == {}


class TestAnnotations:
    def test_mirror_route_marks(self, mirror_result):
        marks = [
            s for s in mirror_result.trace.spans
            if s.kind == "mark" and s.name == "mirror_route"
        ]
        assert marks
        for m in marks:
            assert m.attrs["chosen"] != m.attrs["alternate"]
            assert m.attrs["seek_chosen"] <= m.attrs["seek_alternate"] or (
                m.attrs["seek_chosen"] == m.attrs["seek_alternate"]
            )

    def test_cached_run_records_destage_and_cache_ops(self, cached_result):
        data = cached_result.trace
        assert any(s.kind == "mark" and s.name == "destage" for s in data.spans)
        assert data.meta.get("cache_ops")

    def test_meta_carries_run_identity(self, raid5_result):
        meta = raid5_result.trace.meta
        assert meta["organization"] == "raid5"
        assert meta["simulated_ms"] == raid5_result.simulated_ms


class TestMetricsSideOfRun:
    def test_histogram_count_matches_tally(self, raid5_result):
        h = raid5_result.metrics.get("response_ms")
        assert h.count == raid5_result.response.count
        assert h.mean == pytest.approx(raid5_result.response.mean)

    def test_read_write_split(self, raid5_result):
        reads = raid5_result.metrics.get("read_response_ms")
        writes = raid5_result.metrics.get("write_response_ms")
        assert reads.count == raid5_result.read_response.count
        assert writes.count == raid5_result.write_response.count

    def test_disk_counters_match_result(self, raid5_result):
        total = sum(
            m.value
            for name, labels, m in raid5_result.metrics
            if name == "disk_completed"
        )
        assert total == raid5_result.per_disk_accesses.sum()

    def test_utilization_series_sampled(self, raid5_result):
        series = [
            m for name, labels, m in raid5_result.metrics
            if name == "disk_utilization"
        ]
        assert series
        for s in series:
            assert len(s) > 0
            assert all(0.0 <= v <= 1.0 for v in s.values)

    def test_simulated_gauges(self, raid5_result):
        assert (
            raid5_result.metrics.get("simulated_ms").value
            == raid5_result.simulated_ms
        )
        assert math.isfinite(raid5_result.metrics.get("mean_response_ms").value)
