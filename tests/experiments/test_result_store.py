"""Point results kept across runs: the manifest's value round trip, and
campaigns resumed from their manifest."""

import json
from collections import Counter

import pytest

from repro.experiments.parallel import run_campaign
from repro.experiments.points import PointValue, point_key
from repro.experiments.registry import get_experiment
from repro.experiments.telemetry import (
    CampaignRecorder,
    point_record,
    read_manifest,
)

SCALE = 0.01


def as_dicts(campaign):
    return {e: [r.to_dict() for r in rs] for e, rs in campaign.items()}


def some_points(k):
    return get_experiment("fig8").points(SCALE)[:k]


def record(point, value):
    return point_record(point, point_key(point), value, "computed", wall_s=0.5)


def round_trip(tmp_path, value):
    """*value*, recorded as a point's value and read back by a resumed
    recorder."""
    (point,) = some_points(1)
    path = tmp_path / "m.jsonl"
    CampaignRecorder(path).add(record(point, value))
    return CampaignRecorder(path, resume=True).stored[point_key(point)]


class TestRoundTrip:
    def test_round_trip(self, tmp_path):
        value = PointValue(
            mean_response_ms=12.5,
            physical_disks=10,
            extras=(("events", 1234.0), ("util", 0.1 + 0.2)),
        )
        assert round_trip(tmp_path, value) == value

    def test_nan_survives(self, tmp_path):
        value = PointValue(mean_response_ms=float("nan"), extras=(("p95_ms", float("nan")),))
        # repr-compare: NaN != NaN under dataclass equality.
        assert repr(round_trip(tmp_path, value)) == repr(value)

    def test_cut_final_line_is_ignored(self, tmp_path):
        """A record an interrupted campaign cut short mid-write is not
        read, and the next record appended starts a line of its own."""
        first, second = some_points(2)
        path = tmp_path / "m.jsonl"
        recorder = CampaignRecorder(path)
        recorder.add(record(first, PointValue(mean_response_ms=1.0)))
        recorder.add(record(second, PointValue(mean_response_ms=2.0)))
        path.write_text(path.read_text()[:-10])

        resumed = CampaignRecorder(path, resume=True)
        assert list(resumed.stored) == [point_key(first)]
        resumed.add(record(second, PointValue(mean_response_ms=2.0)))
        _, records = read_manifest(path)
        assert [r["config_hash"] for r in records] == [point_key(first), point_key(second)]

    @pytest.mark.parametrize("garbage", ['{"record": "point", "exp_', "[1]"])
    @pytest.mark.parametrize("last", [False, True], ids=["middle", "last"])
    def test_malformed_line_is_refused(self, tmp_path, last, garbage):
        """Only a last line without its newline may be cut short."""
        (point,) = some_points(1)
        path = tmp_path / "m.jsonl"
        CampaignRecorder(path).add(record(point, PointValue(mean_response_ms=1.0)))
        header, good = path.read_text().splitlines()
        body = [good, garbage] if last else [garbage, good]
        path.write_text("\n".join([header, *body]) + "\n")
        before = path.read_text()
        with pytest.raises(ValueError, match="not (a )?JSON"):
            CampaignRecorder(path, resume=True)
        assert path.read_text() == before


class TestResume:
    def test_resume_recomputes_zero_points(self, tmp_path):
        """A re-run resumed from a finished campaign's manifest computes
        nothing."""
        path = tmp_path / "m.jsonl"
        cold_rec = CampaignRecorder(path)
        cold = run_campaign(["fig8"], SCALE, jobs=1, recorder=cold_rec)
        cold_rec.finalize()
        assert {r.provenance for r in cold_rec.records} == {"computed"}

        warm_rec = CampaignRecorder(path, resume=True)
        warm = run_campaign(["fig8"], SCALE, jobs=1, recorder=warm_rec)
        warm_rec.finalize()
        header, points = read_manifest(path)
        assert header["points"] == len(points) == len(cold_rec.records)
        assert all(p["provenance"] == "stored" for p in points)
        assert as_dicts(cold) == as_dicts(warm)

    def test_parallel_resume_recomputes_zero_points(self, tmp_path):
        """The records appended as values land suffice: the cold run is
        never finalized."""
        path = tmp_path / "m.jsonl"
        cold = run_campaign(["fig8"], SCALE, jobs=2, recorder=CampaignRecorder(path))

        warm_rec = CampaignRecorder(path, resume=True)
        warm = run_campaign(["fig8"], SCALE, jobs=2, recorder=warm_rec)
        assert warm_rec.records
        assert {r.provenance for r in warm_rec.records} == {"stored"}
        assert as_dicts(cold) == as_dicts(warm)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_resume_stores_the_cells_shared_on_the_cold_run(self, tmp_path, jobs):
        ids = ["fig11", "fig15"]
        path = tmp_path / "m.jsonl"
        cold_rec = CampaignRecorder(path)
        cold = run_campaign(ids, SCALE, jobs=jobs, recorder=cold_rec)
        cold_rec.finalize()
        assert Counter(r.provenance for r in cold_rec.records) == {"computed": 32, "shared": 8}

        warm_rec = CampaignRecorder(path, resume=True)
        assert len(warm_rec.stored) == 32
        warm = run_campaign(ids, SCALE, jobs=jobs, recorder=warm_rec)
        assert Counter(r.provenance for r in warm_rec.records) == {"stored": 40}
        assert as_dicts(cold) == as_dicts(warm)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stopped_campaign_resumes_to_the_uninterrupted_answer(self, tmp_path, jobs):
        """A campaign stopped after 5 points, resumed and stopped again
        after 8, finishes on the next resume with the uninterrupted
        answer, having computed each point once."""

        class Stop(Exception):
            pass

        def stop_at(k):
            def progress(done, total, label):
                if done == k:
                    raise Stop

            return progress

        path = tmp_path / "m.jsonl"
        with pytest.raises(Stop):
            run_campaign(["fig8"], SCALE, jobs=jobs, progress=stop_at(5),
                         recorder=CampaignRecorder(path))
        with pytest.raises(Stop):
            run_campaign(["fig8"], SCALE, jobs=jobs, progress=stop_at(8),
                         recorder=CampaignRecorder(path, resume=True))

        recorder = CampaignRecorder(path, resume=True)
        resumed = run_campaign(["fig8"], SCALE, jobs=jobs, recorder=recorder)
        assert Counter(r.provenance for r in recorder.records) == {"stored": 8, "computed": 6}
        assert as_dicts(resumed) == as_dicts(run_campaign(["fig8"], SCALE))

    def test_without_resume_store_is_not_consulted(self, tmp_path):
        """Without resume the recorder starts its manifest afresh."""
        path = tmp_path / "m.jsonl"
        run_campaign(["fig8"], SCALE, jobs=1, recorder=CampaignRecorder(path))
        recorder = CampaignRecorder(path)
        assert recorder.stored == {}
        run_campaign(["fig8"], SCALE, jobs=1, recorder=recorder)
        assert {r.provenance for r in recorder.records} == {"computed"}

    def test_resuming_a_missing_manifest_starts_it(self, tmp_path):
        path = tmp_path / "runs" / "m.jsonl"
        recorder = CampaignRecorder(path, resume=True)
        assert recorder.stored == {}
        header, points = read_manifest(path)
        assert header["fingerprint"] == recorder.fingerprint
        assert points == []

    def test_resume_refuses_a_manifest_of_the_old_schema(self, tmp_path):
        """Its records carry no value, and it names no code fingerprint."""
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"record": "campaign", "schema": "repro-campaign/1"}) + "\n")
        with pytest.raises(ValueError, match="recorded by other code"):
            CampaignRecorder(path, resume=True)
        assert json.loads(path.read_text())["schema"] == "repro-campaign/1"
