"""Content-keyed point-result store: keys, round-trips, resume."""

import json
import math
from collections import Counter

import pytest

from repro.experiments.points import PointValue
from repro.experiments.registry import get_experiment
from repro.experiments.result_store import (
    load_value,
    point_key,
    store_dir,
    store_value,
)

SCALE = 0.01


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "results"))


def some_points(exp_id="fig8"):
    return get_experiment(exp_id).points(SCALE)


class TestKey:
    def test_key_is_stable_across_calls(self):
        p = some_points()[0]
        assert point_key(p) == point_key(p)
        assert len(point_key(p)) == 32

    def test_distinct_points_get_distinct_keys(self):
        points = some_points()
        keys = {point_key(p) for p in points}
        assert len(keys) == len(points)

    def test_key_ignores_figure_identity(self):
        """The same (trace, org, overrides) cell shares one stored value
        even when two figures both sweep it."""
        import dataclasses

        p = some_points()[0]
        relabeled = dataclasses.replace(p, exp_id="other_fig", key=("z", 99))
        assert point_key(relabeled) == point_key(p)

    def test_key_sees_override_changes(self):
        import dataclasses

        p = some_points()[0]
        changed = dataclasses.replace(
            p, overrides=tuple(p.overrides) + (("backend", "analytic"),)
        )
        assert point_key(changed) != point_key(p)


class TestRoundTrip:
    def test_round_trip(self):
        value = PointValue(
            mean_response_ms=12.5, extras=(("events", 1234.0), ("util", 0.5))
        )
        store_value("k" * 32, value)
        back = load_value("k" * 32)
        assert back == value

    def test_nan_survives(self):
        value = PointValue(mean_response_ms=float("nan"))
        store_value("n" * 32, value)
        back = load_value("n" * 32)
        assert math.isnan(back.mean_response_ms)

    def test_missing_key_returns_none(self):
        assert load_value("m" * 32) is None

    def test_corrupt_entry_returns_none(self):
        store_value("c" * 32, PointValue(mean_response_ms=1.0))
        path = next(store_dir().glob("*.json"))
        path.write_text("{truncated")
        assert load_value("c" * 32) is None

    def test_stale_format_version_ignored(self):
        store_value("f" * 32, PointValue(mean_response_ms=1.0))
        path = next(store_dir().glob("*.json"))
        doc = json.loads(path.read_text())
        doc["format"] = 999
        path.write_text(json.dumps(doc))
        assert load_value("f" * 32) is None

    def test_disabled_store_is_inert(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", "off")
        store_value("d" * 32, PointValue(mean_response_ms=1.0))
        assert load_value("d" * 32) is None
        assert store_dir() is None


class TestResume:
    def test_resume_recomputes_zero_points(self, tmp_path):
        """Acceptance criterion: a warm-store re-run computes nothing."""
        from repro.experiments.parallel import run_campaign
        from repro.experiments.telemetry import CampaignRecorder, read_manifest

        ids = ["fig8"]
        rec1 = CampaignRecorder(tmp_path / "cold.jsonl")
        cold = run_campaign(ids, SCALE, jobs=1, recorder=rec1, resume=True)
        rec1.finalize()
        _, cold_points = read_manifest(rec1.manifest_path)
        assert all(p["provenance"] == "computed" for p in cold_points)

        rec2 = CampaignRecorder(tmp_path / "warm.jsonl")
        warm = run_campaign(ids, SCALE, jobs=1, recorder=rec2, resume=True)
        rec2.finalize()
        header, warm_points = read_manifest(rec2.manifest_path)
        assert header["points"] == len(warm_points) == len(cold_points)
        assert all(p["provenance"] == "stored" for p in warm_points)

        as_dicts = lambda c: {e: [r.to_dict() for r in rs] for e, rs in c.items()}
        assert as_dicts(cold) == as_dicts(warm)

    def test_parallel_resume_recomputes_zero_points(self, tmp_path):
        from repro.experiments.parallel import run_campaign
        from repro.experiments.telemetry import CampaignRecorder, read_manifest

        ids = ["fig8"]
        cold = run_campaign(ids, SCALE, jobs=2, resume=True)

        rec = CampaignRecorder(tmp_path / "warm.jsonl")
        warm = run_campaign(ids, SCALE, jobs=2, recorder=rec, resume=True)
        rec.finalize()
        _, points = read_manifest(rec.manifest_path)
        assert points and all(p["provenance"] == "stored" for p in points)

        as_dicts = lambda c: {e: [r.to_dict() for r in rs] for e, rs in c.items()}
        assert as_dicts(cold) == as_dicts(warm)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_resume_stores_the_cells_shared_on_the_cold_run(self, tmp_path, jobs):
        from repro.experiments.parallel import run_campaign
        from repro.experiments.telemetry import CampaignRecorder

        ids = ["fig11", "fig15"]
        cold_rec = CampaignRecorder(tmp_path / "cold.jsonl")
        cold = run_campaign(ids, SCALE, jobs=jobs, recorder=cold_rec, resume=True)
        cold_provenance = Counter(r.provenance for r in cold_rec.records)
        assert cold_provenance == {"computed": 32, "shared": 8}
        assert len(list(store_dir().glob("*.json"))) == 32

        warm_rec = CampaignRecorder(tmp_path / "warm.jsonl")
        warm = run_campaign(ids, SCALE, jobs=jobs, recorder=warm_rec, resume=True)
        assert Counter(r.provenance for r in warm_rec.records) == {"stored": 40}

        as_dicts = lambda c: {e: [r.to_dict() for r in rs] for e, rs in c.items()}
        assert as_dicts(cold) == as_dicts(warm)

    def test_unusable_store_dir_does_not_fail_the_run(self, tmp_path, monkeypatch):
        """A store that cannot be created is skipped, never fatal.

        The store path lies below a regular file, so ``mkdir`` fails
        with ``NotADirectoryError`` for every user, root included.
        """
        from repro.experiments.parallel import run_campaign
        from repro.experiments.telemetry import CampaignRecorder, read_manifest

        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        monkeypatch.setenv("REPRO_RESULT_STORE", str(blocker / "results"))
        plain = run_campaign(["fig8"], SCALE, jobs=1)

        rec = CampaignRecorder(tmp_path / "m.jsonl")
        resumed = run_campaign(["fig8"], SCALE, jobs=1, recorder=rec, resume=True)
        rec.finalize()
        _, points = read_manifest(rec.manifest_path)
        assert points and all(p["provenance"] == "computed" for p in points)
        assert blocker.read_text() == "a file, not a directory\n"

        as_dicts = lambda c: {e: [r.to_dict() for r in rs] for e, rs in c.items()}
        assert as_dicts(resumed) == as_dicts(plain)

    def test_without_resume_store_is_not_consulted(self, tmp_path):
        from repro.experiments.parallel import run_campaign
        from repro.experiments.telemetry import CampaignRecorder, read_manifest

        run_campaign(["fig8"], SCALE, jobs=1, resume=True)  # warm the store
        rec = CampaignRecorder(tmp_path / "m.jsonl")
        run_campaign(["fig8"], SCALE, jobs=1, recorder=rec, resume=False)
        rec.finalize()
        _, points = read_manifest(rec.manifest_path)
        assert all(p["provenance"] == "computed" for p in points)
