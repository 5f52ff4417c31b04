"""End-to-end failure scenarios through ``run_trace(failures=...)``:
rebuild under foreground load, scrubbing of latent errors, graceful
data-loss accounting, and the healthy-run identity guarantee."""

import math

import pytest

from repro.analytic import AnalyticUnsupportedError
from repro.failure import (
    DataLossError,
    DiskFailure,
    FailureSchedule,
    FailureScheduleError,
    LatentError,
    ScrubPolicy,
    SpareArrival,
)
from repro.sim import run_trace
from repro.validate import snapshot
from repro.validate.golden import diff_snapshots
from tests.validate.workload import BPD, config, make_trace


def trace4(seed=7, n=300):
    return make_trace(seed=seed, n=n, ndisks=4)


REBUILD = FailureSchedule.single_failure(
    at_ms=0.0, disk=1, spare_after_ms=50.0, rebuild_delay_ms=1.0, rebuild_blocks=600
)


class TestRebuildScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_trace(config("raid5", n=4), trace4(), failures=REBUILD, validate=True)

    def test_rebuild_completes(self, result):
        report = result.failures
        assert len(report.rebuilds) == 1
        rb = report.rebuilds[0]
        assert rb.failed_disk == 1
        assert rb.blocks == 600
        assert rb.finished_ms is not None and rb.finished_ms > 50.0
        assert rb.lost_blocks == 0
        assert report.rebuild_duration_ms > 0

    def test_no_data_lost_with_intact_redundancy(self, result):
        report = result.failures
        assert not report.data_lost
        report.raise_for_loss()  # must not raise

    def test_foreground_took_degraded_paths(self, result):
        assert result.failures.degraded_reads > 0
        assert result.failures.degraded_writes > 0

    def test_every_request_completed(self, result):
        healthy = run_trace(config("raid5", n=4), trace4())
        assert result.requests == healthy.requests

    def test_deterministic(self):
        a = run_trace(config("raid5", n=4), trace4(), failures=REBUILD)
        b = run_trace(config("raid5", n=4), trace4(), failures=REBUILD)
        assert diff_snapshots(snapshot(a), snapshot(b), rtol=0.0, atol=0.0) == []

    @pytest.mark.parametrize("org", ["mirror", "parity_striping"])
    def test_other_redundant_orgs_rebuild(self, org):
        res = run_trace(config(org, n=4), trace4(n=150), failures=REBUILD)
        rb = res.failures.rebuilds[0]
        assert rb.finished_ms is not None and rb.lost_blocks == 0
        assert not res.failures.data_lost


class TestRebuildMetamorphic:
    def test_degraded_p95_at_least_healthy(self):
        """Losing a disk cannot make the tail faster at equal load."""
        trace = trace4()
        healthy = run_trace(config("raid5", n=4), trace)
        degraded = run_trace(
            config("raid5", n=4),
            trace,
            failures=FailureSchedule(events=(DiskFailure(0.0, disk=1),)),
        )
        assert degraded.p95_response_ms >= healthy.p95_response_ms

    def test_rebuild_time_monotone_in_throttle(self):
        """More delay between rebuild chunks => strictly later finish."""
        trace = trace4(n=150)
        durations = []
        for delay in (0.0, 8.0, 64.0):
            sched = FailureSchedule.single_failure(
                at_ms=0.0, disk=0, spare_after_ms=0.0,
                rebuild_delay_ms=delay, rebuild_blocks=300,
            )
            res = run_trace(config("raid5", n=4), trace, failures=sched)
            durations.append(res.failures.rebuild_duration_ms)
        assert durations[0] < durations[1] < durations[2]


SCRUB = FailureSchedule(
    events=tuple(
        LatentError(at_ms=0.0, disk=1 + (i % 3), pblock=(i * 97) % 400)
        for i in range(8)
    ),
    scrub=ScrubPolicy(period_ms=300.0, chunk_blocks=48, max_blocks=512, min_passes=1),
)


class TestScrubScenario:
    @pytest.fixture(scope="class")
    def report(self):
        res = run_trace(config("raid5", n=4), trace4(), failures=SCRUB, validate=True)
        return res.failures

    def test_all_latent_errors_repaired(self, report):
        """Acceptance criterion: the scrub (plus any repair-on-access)
        detects and repairs 100% of the injected latent errors."""
        assert report.latent_injected == 8
        assert report.latent_repaired == 8
        assert report.latent_outstanding == 0

    def test_scrub_pass_ran_and_detected(self, report):
        sc = report.scrubs[0]
        assert sc.passes >= 1
        assert sc.blocks_checked > 0
        assert sc.unrepairable == 0
        # Whatever the scrub found it also fixed.
        assert sc.detected == sc.repaired

    def test_exposure_windows_recorded(self, report):
        assert len(report.exposure_ms) == 8
        assert report.exposure_ms == tuple(sorted(report.exposure_ms))
        assert 0 <= report.exposure_mean_ms <= report.exposure_max_ms

    def test_no_loss(self, report):
        assert not report.data_lost

    def test_mirror_scrub_repairs_from_partner(self):
        res = run_trace(config("mirror", n=4), trace4(n=150), failures=SCRUB)
        assert res.failures.latent_outstanding == 0
        assert res.failures.latent_repaired == 8


class TestDataLoss:
    def test_base_org_loses_gracefully(self):
        """No redundancy: accesses to the dead disk are counted as lost,
        the run still completes, and raise_for_loss gives the typed error."""
        res = run_trace(
            config("base", n=4),
            trace4(),
            failures=FailureSchedule(events=(DiskFailure(0.0, disk=2),)),
        )
        report = res.failures
        assert report.data_lost
        assert report.lost_reads + report.lost_writes > 0
        assert report.lost_samples  # debugging breadcrumbs kept
        with pytest.raises(DataLossError, match="unreconstructable|hit lost data"):
            report.raise_for_loss()

    def test_loss_error_carries_counts(self):
        err = DataLossError(3, 2, 1, samples=((1.5, "read", 0, 7),))
        assert err.lost_reads == 3 and err.lost_writes == 2 and err.lost_blocks == 1
        assert "disk 0" in str(err)


class TestHealthyIdentity:
    """Acceptance criterion: with the failure subsystem present but
    inactive (empty schedule), results are bit-identical to a run that
    never heard of failures."""

    def test_empty_schedule_matches_healthy_bit_exactly(self):
        trace = trace4()
        for org in ("base", "mirror", "raid5", "raid4", "parity_striping"):
            healthy = run_trace(config(org, n=4), trace)
            empty = run_trace(config(org, n=4), trace, failures=FailureSchedule())

            healthy_snap = snapshot(healthy)
            empty_snap = snapshot(empty)
            report = empty_snap.pop("failures")
            assert diff_snapshots(healthy_snap, empty_snap, rtol=0.0, atol=0.0) == [], org

            # ... and the report itself says "nothing happened".
            assert report["degraded_reads"] == 0, org
            assert report["latent_injected"] == 0, org
            assert report["lost_reads"] == 0 and report["lost_block_count"] == 0, org
            assert math.isnan(healthy.mean_response_ms) is False, org
            assert empty.mean_response_ms == healthy.mean_response_ms, org

    def test_healthy_snapshot_has_no_failures_section(self):
        res = run_trace(config("raid5", n=4), trace4(n=100))
        assert "failures" not in snapshot(res)
        assert res.failures is None


class TestInterface:
    def test_analytic_backend_raises_typed_error(self):
        with pytest.raises(AnalyticUnsupportedError, match="backend='des'"):
            run_trace(
                config("raid5", n=4),
                trace4(n=50),
                backend="analytic",
                failures=FailureSchedule(events=(DiskFailure(0.0, disk=0),)),
            )

    def test_analytic_unsupported_is_a_value_error(self):
        assert issubclass(AnalyticUnsupportedError, ValueError)

    def test_cached_orgs_rejected(self):
        with pytest.raises(ValueError, match="uncached"):
            run_trace(
                config("raid5", n=4, cached=True, cache_mb=4),
                trace4(n=50),
                failures=FailureSchedule(events=(DiskFailure(0.0, disk=0),)),
            )

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="FailureSchedule"):
            run_trace(config("raid5", n=4), trace4(n=50), failures=[DiskFailure(0.0, 0)])


class TestInjectorValidation:
    """Schedule-vs-system checks happen before any event fires."""

    def run(self, schedule, org="raid5"):
        return run_trace(config(org, n=4), trace4(n=50), failures=schedule)

    def test_disk_out_of_range(self):
        with pytest.raises(FailureScheduleError, match="disk 99"):
            self.run(FailureSchedule(events=(DiskFailure(0.0, disk=99),)))

    def test_array_out_of_range(self):
        with pytest.raises(FailureScheduleError, match="array 5"):
            self.run(FailureSchedule(events=(DiskFailure(0.0, disk=0, array=5),)))

    def test_pblock_out_of_range(self):
        with pytest.raises(FailureScheduleError, match="pblock"):
            self.run(FailureSchedule(events=(LatentError(0.0, disk=1, pblock=BPD),)))

    def test_spare_on_base_org_rejected(self):
        sched = FailureSchedule(
            events=(DiskFailure(0.0, disk=0), SpareArrival(at_ms=10.0))
        )
        with pytest.raises(FailureScheduleError, match="no redundancy"):
            self.run(sched, org="base")

    @pytest.mark.parametrize("org", ["raid5", "parity_striping"])
    def test_rebuild_longer_than_the_disk_rejected(self, org):
        sched = FailureSchedule.single_failure(
            at_ms=0.0, disk=1, spare_after_ms=0.0, rebuild_blocks=3 * BPD
        )
        with pytest.raises(
            FailureScheduleError, match=f"array 0 has {BPD} blocks per disk"
        ):
            self.run(sched, org=org)

    def test_latent_after_whole_disk_failure_is_moot(self):
        sched = FailureSchedule(
            events=(DiskFailure(0.0, disk=1), LatentError(5.0, disk=1, pblock=0))
        )
        with pytest.raises(FailureScheduleError, match="moot"):
            self.run(sched)
