"""Serial/parallel campaign equivalence, shared cells and failure
handling."""

import json
import multiprocessing
from collections import Counter

import pytest

from repro.experiments.parallel import (
    CampaignError,
    default_jobs,
    iter_campaign,
    run_campaign,
    run_points,
)
from repro.experiments.points import Point, TraceSpec, point_key
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.telemetry import CampaignRecorder

#: Small enough to keep the suite fast, large enough that the sweeps
#: produce distinct values per cell.
SCALE = 0.01
#: One simulated experiment (fig8: striping-unit sweep) and one pure
#: computation (fig6: trace statistics, no points, computed in its
#: assemble).
IDS = ["fig8", "fig6"]
#: Two hit-ratio replays (seconds to run): fig15's RAID5 cells at 8, 16,
#: 32 and 64 MB, on each trace, are cells of fig11 too.
SHARING = ["fig11", "fig15"]


def campaign_dicts(campaign):
    return {e: [r.to_dict() for r in results] for e, results in campaign.items()}


def test_parallel_campaign_matches_serial():
    serial = run_campaign(IDS, SCALE, jobs=1)
    parallel = run_campaign(IDS, SCALE, jobs=2)
    assert campaign_dicts(parallel) == campaign_dicts(serial)


def test_parallel_campaign_json_byte_identical(tmp_path):
    """The CLI's --json dump is byte-for-byte identical across modes."""
    serial = run_campaign(IDS, SCALE, jobs=1)
    parallel = run_campaign(IDS, SCALE, jobs=2)
    as_bytes = lambda c: json.dumps(campaign_dicts(c), indent=2).encode()
    assert as_bytes(serial) == as_bytes(parallel)


def test_run_points_parallel_matches_serial():
    points = get_experiment("fig8").points(SCALE)
    parallel = run_points(points, jobs=2)
    serial = run_points(points)
    assert parallel.keys() == serial.keys()
    # repr-compare: the hit-ratio fields are NaN for pure-sim points,
    # and NaN != NaN under dataclass equality.
    for key in serial:
        assert repr(parallel[key]) == repr(serial[key])


def test_campaign_without_resume_writes_nothing_under_home(tmp_path, monkeypatch):
    """Traces live in each process's memo and values in the manifest the
    campaign is given: neither a campaign nor one resumed from its
    manifest leaves a file in the user's home directory."""
    from repro.experiments import common

    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    common._base_trace.cache_clear()  # make the campaign generate its traces
    manifest = tmp_path / "m.jsonl"
    run_campaign(IDS, SCALE, jobs=2, recorder=CampaignRecorder(manifest))
    resumed = CampaignRecorder(manifest, resume=True)
    run_campaign(IDS, SCALE, jobs=2, recorder=resumed)
    assert resumed.records and {r.provenance for r in resumed.records} == {"stored"}
    assert list(home.rglob("*")) == []


def test_progress_hook_sees_every_unit():
    calls = []
    run_campaign(
        IDS, SCALE, jobs=2, progress=lambda done, total, label: calls.append((done, total))
    )
    total = len(get_experiment("fig8").points(SCALE))  # fig6 has no points
    assert [c[0] for c in calls] == list(range(1, total + 1))
    assert all(c[1] == total for c in calls)


@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_counts_every_point_of_one_call(jobs):
    calls = []
    run_campaign(
        SHARING, SCALE, jobs=jobs, progress=lambda done, total, label: calls.append((done, total))
    )
    total = sum(len(get_experiment(e).points(SCALE)) for e in SHARING)
    assert [c[0] for c in calls] == list(range(1, total + 1))
    assert all(c[1] == total for c in calls)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_repeated_cell_is_evaluated_once_and_shared(jobs, tmp_path):
    recorder = CampaignRecorder(tmp_path / "m.jsonl")
    campaign = run_campaign(SHARING, SCALE, jobs=jobs, recorder=recorder)
    provenance = Counter((r.exp_id, r.provenance) for r in recorder.records)
    assert provenance == {
        ("fig11", "computed"): 24,
        ("fig15", "shared"): 8,
        ("fig15", "computed"): 8,
    }
    fig11_keys = {point_key(p) for p in get_experiment("fig11").points(SCALE)}
    for record in recorder.records:
        if record.exp_id == "fig15":
            assert (record.provenance == "shared") == (record.config_hash in fig11_keys)
    alone = run_campaign(["fig15"], SCALE, jobs=jobs)
    assert campaign_dicts(alone)["fig15"] == campaign_dicts(campaign)["fig15"]


def test_each_experiment_is_handed_over_once_its_last_value_lands():
    """fig11 arrives before any point only fig15 has is evaluated."""
    evaluated = []
    campaign = iter_campaign(
        SHARING, SCALE, progress=lambda done, total, label: evaluated.append(label)
    )
    exp_id, _ = next(campaign)
    assert exp_id == "fig11"
    assert len(evaluated) == 24 + 8  # fig11's cells, and fig15's copies of them
    assert [e for e, _ in campaign] == ["fig15"]
    assert len(evaluated) == 24 + 16


@pytest.mark.parametrize("jobs", [1, 2])
def test_closing_the_campaign_early_stops_it(jobs):
    campaign = iter_campaign(SHARING + ["fig8"], SCALE, jobs=jobs)
    assert next(campaign)[0] == "fig11"
    campaign.close()
    assert multiprocessing.active_children() == []
    with pytest.raises(StopIteration):
        next(campaign)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_shared_cell_raises_once_naming_its_first_point(jobs):
    spec = TraceSpec(2, 0.02)
    first = Point.sim("first", ("a",), spec, "no_such_org")
    second = Point.sim("second", ("b",), spec, "no_such_org")
    assert point_key(first) == point_key(second)
    with pytest.raises(CampaignError, match="'first no_such_org a'") as failure:
        run_points([first, second], jobs=jobs)
    assert "second" not in str(failure.value)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_point_raises_campaign_error_not_hang(jobs):
    bad = Point.sim("bogus", ("only",), TraceSpec(2, 0.02), "no_such_org")
    with pytest.raises(CampaignError, match="bogus"):
        run_points([bad], jobs=jobs)


@pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_duplicate_point_keys_rejected(jobs, recorded, tmp_path):
    spec = TraceSpec(2, 0.02)
    dupes = [Point.sim("x", ("same",), spec, "base"), Point.sim("x", ("same",), spec, "raid5")]
    recorder = CampaignRecorder(tmp_path / "m.jsonl") if recorded else None
    with pytest.raises(ValueError, match="duplicate"):
        run_points(dupes, jobs=jobs, recorder=recorder)


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_run_contract_holds_for_every_decomposed_experiment():
    """Every experiment is points plus assemble (registry invariant)."""
    for exp in EXPERIMENTS.values():
        assert callable(exp.points) and callable(exp.assemble)


def test_decomposed_run_equals_assembled_points():
    """run_experiment(id, scale) == assemble(scale, run_points(points(
    scale))) for a representative decomposed experiment."""
    exp = get_experiment("fig8")
    direct = [r.to_dict() for r in run_experiment("fig8", SCALE)]
    assembled = [
        r.to_dict() for r in exp.assemble(SCALE, run_points(exp.points(SCALE)))
    ]
    assert direct == assembled
