"""Baseline/regression detection and the compare CLI's exit codes."""

import json

import pytest

from repro.bench.schema import SCHEMA, BenchRecord, Metric
from repro.bench.trajectory import analyze, render_table
from repro.bench.__main__ import EXIT_OK, EXIT_REGRESSION, EXIT_SCHEMA, main


def record(source, **values):
    return BenchRecord(
        bench_id="synthetic",
        metrics={
            name: Metric(v[0], direction=v[1]) if isinstance(v, tuple) else Metric(v)
            for name, v in values.items()
        },
        source=source,
    )


class TestAnalyze:
    def test_flat_trajectory_is_ok(self):
        report = analyze(
            [record("a", x=100.0), record("b", x=101.0), record("c", x=99.0)]
        )
        (traj,) = report.trajectories
        assert traj.status == "ok"
        assert traj.baseline == pytest.approx(100.5)
        assert not report.has_regressions

    def test_throughput_drop_is_regression(self):
        report = analyze(
            [record("a", x=100.0), record("b", x=100.0), record("c", x=75.0)],
            threshold=0.2,
        )
        (traj,) = report.trajectories
        assert traj.status == "regression"
        assert traj.change == pytest.approx(-0.25)
        assert report.has_regressions

    def test_exactly_threshold_drop_triggers(self):
        report = analyze([record("a", x=100.0), record("b", x=80.0)], threshold=0.2)
        assert report.trajectories[0].status == "regression"

    def test_lower_is_better_rise_is_regression(self):
        report = analyze(
            [record("a", err=(0.10, "lower")), record("b", err=(0.15, "lower"))]
        )
        (traj,) = report.trajectories
        assert traj.status == "regression"

    def test_lower_is_better_drop_is_improvement(self):
        report = analyze(
            [record("a", err=(0.10, "lower")), record("b", err=(0.05, "lower"))]
        )
        assert report.trajectories[0].status == "improved"
        assert report.improvements

    def test_big_gain_is_improvement(self):
        report = analyze([record("a", x=100.0), record("b", x=200.0)])
        assert report.trajectories[0].status == "improved"

    def test_baseline_is_median_not_mean(self):
        # One outlier run must not poison the baseline.
        report = analyze(
            [
                record("a", x=100.0),
                record("outlier", x=1000.0),
                record("c", x=100.0),
                record("d", x=95.0),
            ]
        )
        assert report.trajectories[0].baseline == pytest.approx(100.0)
        assert report.trajectories[0].status == "ok"

    def test_new_and_absent_metrics_do_not_regress(self):
        report = analyze([record("a", old=1.0), record("b", new=1.0)])
        by_name = {t.name: t for t in report.trajectories}
        assert by_name["old"].status == "absent"
        assert by_name["new"].status == "new"
        assert not report.has_regressions

    def test_single_record_cannot_regress(self):
        report = analyze([record("only", x=1.0)])
        assert report.trajectories[0].status == "single"
        assert not report.has_regressions

    def test_rejects_empty_history_and_bad_threshold(self):
        with pytest.raises(ValueError):
            analyze([])
        with pytest.raises(ValueError):
            analyze([record("a", x=1.0)], threshold=0.0)

    def test_render_table_mentions_every_metric(self):
        report = analyze([record("a", x=100.0, y=1.0), record("b", x=70.0, y=1.0)])
        table = render_table(report)
        assert "x" in table and "y" in table
        assert "REGRESSION" in table
        assert "-30.0%" in table


def write_bench(path, **values):
    doc = {
        "schema": SCHEMA,
        "bench_id": "synthetic",
        "context": {},
        "metrics": {
            name: {
                "value": v[0] if isinstance(v, tuple) else v,
                "direction": v[1] if isinstance(v, tuple) else "higher",
            }
            for name, v in values.items()
        },
    }
    path.write_text(json.dumps(doc))
    return path


class TestCompareCli:
    def test_no_regression_exits_zero(self, tmp_path, capsys):
        a = write_bench(tmp_path / "a.json", x=100.0)
        b = write_bench(tmp_path / "b.json", x=102.0)
        assert main(["compare", str(a), str(b)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "trajectory over 2 bench file(s)" in out
        assert "x" in out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        a = write_bench(tmp_path / "a.json", x=100.0)
        b = write_bench(tmp_path / "b.json", x=100.0)
        c = write_bench(tmp_path / "c.json", x=79.0)  # >20% below median 100
        assert main(["compare", str(a), str(b), str(c)]) == EXIT_REGRESSION
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "FAIL" in captured.err

    def test_advisory_reports_but_exits_zero(self, tmp_path, capsys):
        a = write_bench(tmp_path / "a.json", x=100.0)
        b = write_bench(tmp_path / "b.json", x=50.0)
        assert main(["compare", "--advisory", str(a), str(b)]) == EXIT_OK
        assert "ADVISORY" in capsys.readouterr().err

    def test_schema_error_exits_two_even_advisory(self, tmp_path, capsys):
        good = write_bench(tmp_path / "a.json", x=100.0)
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["compare", "--advisory", str(good), str(bad)]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err

    def test_custom_threshold(self, tmp_path):
        a = write_bench(tmp_path / "a.json", x=100.0)
        b = write_bench(tmp_path / "b.json", x=90.0)
        assert main(["compare", str(a), str(b)]) == EXIT_OK  # 10% < default 20%
        assert main(["compare", "--threshold", "0.05", str(a), str(b)]) == EXIT_REGRESSION

    def test_json_report(self, tmp_path):
        a = write_bench(tmp_path / "a.json", x=100.0)
        b = write_bench(tmp_path / "b.json", x=60.0)
        out = tmp_path / "report.json"
        assert main(["compare", "--json", str(out), str(a), str(b)]) == EXIT_REGRESSION
        doc = json.loads(out.read_text())
        assert doc["regressions"] == ["x"]
        assert doc["metrics"][0]["status"] == "regression"
