"""Tests for the ``python -m repro.obs`` analysis CLI."""

import pytest

from repro.obs.__main__ import main

from .conftest import traced_run


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    base = tmp_path_factory.mktemp("traces")
    a = base / "raid5.jsonl"
    b = base / "mirror.jsonl"
    traced_run("raid5").trace.to_jsonl(str(a))
    traced_run("mirror").trace.to_jsonl(str(b))
    return str(a), str(b)


def test_summarize(exported, capsys):
    assert main(["summarize", exported[0]]) == 0
    out = capsys.readouterr().out
    assert "requests" in out
    assert "p95" in out
    assert "raid5" in out


def test_phases_columns_sum_to_response(exported, capsys):
    assert main(["phases", exported[0]]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    phase_rows = {}
    response_row = None
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "response":
            response_row = [float(x) for x in parts[1:]]
        elif parts[0] in (
            "seek", "rotation", "transfer", "rmw_rotate", "sync_wait",
            "disk_queue", "channel_transfer", "channel_wait", "other",
        ):
            phase_rows[parts[0]] = [float(x) for x in parts[1:]]
    assert response_row is not None and phase_rows
    for col, total in enumerate(response_row):
        col_sum = sum(vals[col] for vals in phase_rows.values())
        # Table cells are rounded to 4 decimals; sums match to that grain.
        assert col_sum == pytest.approx(total, abs=1e-3 * len(phase_rows))


def test_compare(exported, capsys):
    assert main(["compare", exported[0], exported[1]]) == 0
    out = capsys.readouterr().out
    assert "Δ" in out or "response" in out
    assert "raid5" in out and "mirror" in out


def test_malformed_trace_warns_but_runs(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"type": "meta", "name": "bad"}\n'
        '{"type": "span", "sid": 0, "kind": "request", "name": "read", '
        '"t0": 0.0, "t1": null, "rid": 0}\n'
    )
    assert main(["summarize", str(bad)]) == 0
    err = capsys.readouterr().err
    assert "well-formedness" in err


def test_overhead_check(capsys):
    # The CI guard's settings: best of three 1000-request runs per mode
    # keeps the ratio well inside its budget on a loaded host, where a
    # single short run does not.
    rc = main(["overhead", "--requests", "1000", "--repeats", "3", "--check"])
    out = capsys.readouterr()
    assert "fingerprints equal: True" in out.out
    assert rc == 0, out.err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
