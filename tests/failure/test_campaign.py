"""Failure scenarios through the campaign engine: store-key
completeness, serial/parallel identity, and fail-fast on bad points."""

import json

import pytest

from repro.experiments.parallel import CampaignError, run_campaign, run_points
from repro.experiments.points import Point, TraceSpec, point_key, with_backend
from repro.experiments.registry import get_experiment
from repro.failure import DiskFailure, FailureSchedule

SCALE = 0.01
SPEC = TraceSpec(2, SCALE)


def rebuild_point(delay_ms, key=("k",)):
    sched = FailureSchedule.single_failure(
        at_ms=0.0, disk=0, spare_after_ms=0.0,
        rebuild_delay_ms=delay_ms, rebuild_blocks=200,
    )
    return Point.sim("t", key, SPEC, "raid5", failures=sched)


class TestStoreKeyCompleteness:
    """Regression: the content key must see the failure schedule, so a
    degraded run can never alias a healthy run's memoized value."""

    def test_healthy_and_degraded_points_get_distinct_keys(self):
        healthy = Point.sim("t", ("k",), SPEC, "raid5")
        keys = {
            point_key(healthy),
            point_key(rebuild_point(0.0)),
            point_key(rebuild_point(64.0)),
        }
        assert len(keys) == 3

    def test_equal_schedules_share_a_key(self):
        assert point_key(rebuild_point(4.0)) == point_key(rebuild_point(4.0))

    def test_scrub_knobs_reach_the_key(self):
        (_, fast), (_, slow) = get_experiment("ext-scrub").xs[:2]
        a = Point.sim("t", ("k",), SPEC, "raid5", failures=fast["failures"])
        b = Point.sim("t", ("k",), SPEC, "raid5", failures=slow["failures"])
        assert point_key(a) != point_key(b)


class TestFailureCampaigns:
    def test_rebuild_rate_campaign_parallel_matches_serial(self):
        """Acceptance criterion: --jobs output byte-identical to serial
        for the failure-scenario experiments."""
        ids = ["ext-rebuild-rate"]
        serial = run_campaign(ids, SCALE, jobs=1)
        parallel = run_campaign(ids, SCALE, jobs=2)
        as_bytes = lambda c: json.dumps(
            {e: [r.to_dict() for r in rs] for e, rs in c.items()}, indent=2
        ).encode()
        assert as_bytes(serial) == as_bytes(parallel)

    def test_scrub_points_parallel_match_serial(self):
        points = get_experiment("ext-scrub").points(SCALE)
        serial = run_points(points)
        parallel = run_points(points, jobs=2)
        assert parallel.keys() == serial.keys()
        for key in serial:
            assert repr(parallel[key]) == repr(serial[key])

    def test_rebuild_points_carry_scenario_extras(self):
        value = run_points([rebuild_point(0.0)])[("k",)]
        extras = dict(value.extras)
        assert extras["rebuild_ms"] > 0
        assert extras["lost_requests"] == 0.0
        assert "degraded_reads" in extras and "latent_outstanding" in extras

    def test_analytic_backend_keeps_failure_points_on_the_des(self):
        healthy = Point.sim("t", ("h",), SPEC, "raid5")
        degraded = rebuild_point(0.0)
        retargeted, kept = with_backend([healthy, degraded], "analytic")
        assert dict(retargeted.overrides)["backend"] == "analytic"
        assert kept == degraded

    def test_rebuild_rate_campaign_on_analytic_backend_equals_des(self):
        ids = ["ext-rebuild-rate"]
        des = run_campaign(ids, SCALE)
        analytic = run_campaign(ids, SCALE, backend="analytic")
        as_dicts = lambda c: [r.to_dict() for r in c["ext-rebuild-rate"]]
        assert as_dicts(analytic) == as_dicts(des)

    def test_tradeoff_curve_covers_all_orgs(self):
        """The rebuild-rate sweep produces one curve per redundant
        organization (mirror, RAID5, parity striping)."""
        grid = get_experiment("ext-rebuild-rate")
        orgs = [curve.cell["org"] for curve in grid.panels[1].curves]
        assert orgs == ["mirror", "raid5", "parity_striping"]
        delays = [delay for delay, _ in grid.xs]
        assert delays == [0.0, 4.0, 16.0, 64.0]

        results = run_campaign(["ext-rebuild-rate"], SCALE, jobs=1)["ext-rebuild-rate"]
        rebuild_fig = results[1]
        assert [s.label for s in rebuild_fig.series] == [c.label for c in grid.panels[1].curves]
        for s in rebuild_fig.series:
            assert s.xs == delays
            # Monotone tradeoff: gentler rebuild => later completion.
            assert all(a < b for a, b in zip(s.ys, s.ys[1:]))


class TestFailFast:
    def test_worker_crash_fails_campaign_with_schedule_active(self):
        """A schedule the system rejects must fail the campaign loudly
        (typed CampaignError naming the point), not hang or silently
        drop the cell."""
        bad = Point.sim(
            "ext-bad", ("boom",), SPEC, "raid5",
            failures=FailureSchedule(events=(DiskFailure(0.0, disk=99),)),
        )
        with pytest.raises(CampaignError, match="ext-bad"):
            run_points([rebuild_point(0.0), bad], jobs=2)
