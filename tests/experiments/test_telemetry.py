"""Campaign manifest well-formedness and serial/parallel equivalence."""

import json
import os

import pytest

from repro.experiments.parallel import run_campaign
from repro.experiments.registry import get_experiment
from repro.experiments.telemetry import (
    MANIFEST_SCHEMA,
    CampaignRecorder,
    evaluate_point,
    read_manifest,
)

SCALE = 0.01
IDS = ["fig8", "fig6"]  # one simulated experiment, one with no points


def run_with_manifest(tmp_path, name, jobs, ids=IDS):
    recorder = CampaignRecorder(tmp_path / f"{name}.jsonl")
    campaign = run_campaign(ids, SCALE, jobs=jobs, recorder=recorder)
    recorder.finalize(experiments=ids, scale=SCALE, jobs=jobs, backend="des")
    return campaign, recorder


def test_manifest_covers_every_point(tmp_path):
    _, recorder = run_with_manifest(tmp_path, "m", jobs=1)
    header, points = read_manifest(recorder.manifest_path)
    expected = len(get_experiment("fig8").points(SCALE))  # fig6 has no points
    assert header["schema"] == MANIFEST_SCHEMA
    assert header["fingerprint"] == recorder.fingerprint
    assert header["points"] == expected
    assert len(points) == expected
    # Every decomposed point of fig8 appears exactly once.
    keys = {tuple(p["key"]) for p in points if p["exp_id"] == "fig8"}
    assert keys == {p.key for p in get_experiment("fig8").points(SCALE)}
    # The manifest is the only file a campaign with a recorder writes.
    assert list(tmp_path.iterdir()) == [recorder.manifest_path]


def test_records_are_well_formed(tmp_path):
    _, recorder = run_with_manifest(tmp_path, "m", jobs=1)
    _, points = read_manifest(recorder.manifest_path)
    for p in points:
        assert p["provenance"] == "computed"
        assert p["wall_s"] > 0
        assert p["worker_pid"] > 0
        assert p["backend"] in ("des", "analytic", "fastsim")
        if p["kind"] == "sim":
            assert p["events"] > 0
            assert p["events_per_s"] > 0
            assert len(p["config_hash"]) == 32


def test_shared_records_cost_nothing(tmp_path):
    """A shared record names the value it took by its config hash; the
    computed record of that hash carries the time and the events."""
    _, recorder = run_with_manifest(tmp_path, "m", jobs=1, ids=["fig11", "fig15"])
    _, points = read_manifest(recorder.manifest_path)
    computed = {p["config_hash"]: p for p in points if p["provenance"] == "computed"}
    shared = [p for p in points if p["provenance"] == "shared"]
    assert len(shared) == 8
    for p in shared:
        assert p["exp_id"] == "fig15"
        assert computed[p["config_hash"]]["exp_id"] == "fig11"
        assert p["wall_s"] == p["events"] == p["events_per_s"] == 0


def test_manifest_is_strict_jsonl(tmp_path):
    _, recorder = run_with_manifest(tmp_path, "m", jobs=1)
    text = recorder.manifest_path.read_text()
    for line in text.strip().splitlines():
        doc = json.loads(line)  # would raise on NaN/Infinity
        assert doc["record"] in ("campaign", "point")
    # json.loads with parse_constant guard: the file must not use the
    # Python-only NaN literal.
    assert "NaN" not in text


#: Per-record fields that legitimately differ between runs/processes.
VOLATILE = ("wall_s", "events_per_s", "worker_pid")


def stable(points):
    return [{k: v for k, v in p.items() if k not in VOLATILE} for p in points]


def assert_serial_and_parallel_manifests_equivalent(tmp_path, ids):
    serial_campaign, serial_rec = run_with_manifest(tmp_path, "serial", jobs=1, ids=ids)
    parallel_campaign, parallel_rec = run_with_manifest(tmp_path, "par", jobs=2, ids=ids)

    _, serial_points = read_manifest(serial_rec.manifest_path)
    _, parallel_points = read_manifest(parallel_rec.manifest_path)
    # Identical modulo worker pids and timing: same points, same order,
    # same hashes, same event counts, same values.
    assert stable(serial_points) == stable(parallel_points)

    # And telemetry never perturbs the campaign output itself.
    as_dicts = lambda c: {e: [r.to_dict() for r in rs] for e, rs in c.items()}
    assert as_dicts(serial_campaign) == as_dicts(parallel_campaign)


def test_serial_and_parallel_manifests_equivalent(tmp_path):
    assert_serial_and_parallel_manifests_equivalent(tmp_path, IDS)


def test_serial_and_parallel_manifests_equivalent_with_shared_cells(tmp_path):
    """Which point computes a cell and which share it does not depend
    on the worker count."""
    assert_serial_and_parallel_manifests_equivalent(tmp_path, ["fig11", "fig15"])


def test_campaign_with_recorder_matches_plain_run(tmp_path):
    plain = run_campaign(IDS, SCALE, jobs=1)
    recorded, _ = run_with_manifest(tmp_path, "m", jobs=1)
    as_dicts = lambda c: {e: [r.to_dict() for r in rs] for e, rs in c.items()}
    assert as_dicts(plain) == as_dicts(recorded)


def test_manifest_gets_the_mode_a_plain_open_gives(tmp_path):
    """The manifest is as readable as the ``--json`` file beside it."""
    from repro.experiments.__main__ import main

    umask = os.umask(0o022)
    try:
        argv = ["table1", "--json", str(tmp_path / "t.json"),
                "--manifest", str(tmp_path / "t.jsonl")]
        assert main(argv) == 0
    finally:
        os.umask(umask)
    modes = {path.name: path.stat().st_mode & 0o777 for path in tmp_path.iterdir()}
    assert modes == {"t.json": 0o644, "t.jsonl": 0o644}


def test_read_manifest_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(ValueError, match="not JSON"):
        read_manifest(bad)

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text(
        json.dumps(
            {
                "record": "point",
                "exp_id": "x",
                "key": [1],
                "provenance": "computed",
                "wall_s": 0.1,
                "backend": "des",
            }
        )
        + "\n"
    )
    with pytest.raises(ValueError, match="no campaign header"):
        read_manifest(headerless)

    incomplete = tmp_path / "incomplete.jsonl"
    incomplete.write_text(
        json.dumps({"record": "campaign", "schema": MANIFEST_SCHEMA})
        + "\n"
        + json.dumps({"record": "point", "exp_id": "x"})
        + "\n"
    )
    with pytest.raises(ValueError, match="missing"):
        read_manifest(incomplete)


def test_evaluate_point_matches_run_point():
    from repro.experiments.points import run_point

    point = get_experiment("fig8").points(SCALE)[0]
    value, record = evaluate_point(point)
    assert repr(value) == repr(run_point(point))
    assert record.exp_id == point.exp_id
    assert list(point.key) == record.key
    assert record.provenance == "computed"
    assert record.events == int(dict(value.extras)["events"])


def test_bench_show_renders_manifest(tmp_path, capsys):
    _, recorder = run_with_manifest(tmp_path, "m", jobs=1)
    from repro.bench.__main__ import main

    assert main(["show", str(recorder.manifest_path)]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "fig6" in out
    assert "slowest" in out


def test_bench_show_counts_each_provenance(tmp_path, capsys):
    _, recorder = run_with_manifest(tmp_path, "m", jobs=1, ids=["fig11", "fig15"])
    from repro.bench.__main__ import main

    assert main(["show", str(recorder.manifest_path)]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split() for line in out.splitlines() if line.strip()}
    assert rows["experiment"][:5] == ["experiment", "points", "computed", "stored", "shared"]
    assert rows["fig11"][1:5] == ["24", "24", "0", "0"]
    assert rows["fig15"][1:5] == ["16", "8", "0", "8"]


def test_bench_show_renders_manifest_with_trace_cache_fields(tmp_path, capsys):
    """Manifests written while campaigns recorded trace-cache traffic
    (``trace_cache`` per point, ``trace_cache_parent`` in the header)
    still render."""
    from repro.bench.__main__ import main

    traffic = {"generated": 1, "memory_hits": 2, "disk_hits": 0}
    header = {
        "record": "campaign",
        "schema": MANIFEST_SCHEMA,
        "points": 1,
        "experiments": ["fig8"],
        "scale": SCALE,
        "trace_cache_parent": traffic,
    }
    point = {
        "record": "point",
        "exp_id": "fig8",
        "key": [1, 4],
        "kind": "sim",
        "org": "raid5",
        "backend": "des",
        "config_hash": "0" * 32,
        "provenance": "computed",
        "wall_s": 0.5,
        "events": 1000,
        "events_per_s": 2000.0,
        "worker_pid": 1,
        "trace_cache": traffic,
        "mean_response_ms": 20.0,
    }
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(point) + "\n")
    assert main(["show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "slowest" in out
