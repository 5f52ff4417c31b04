"""Tests for the experiment registry, CLI and shared machinery."""

import json

import pytest

from repro.experiments import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments import telemetry
from repro.experiments.common import ExperimentResult, Series, get_trace
from repro.experiments.parallel import run_campaign
from repro.experiments.points import Point, TraceSpec
from repro.experiments.registry import Experiment
from repro.experiments.__main__ import main
from repro.failure import FailureSchedule
from repro.sim import Organization


@pytest.fixture
def no_point_runs(monkeypatch):
    """Fail the test if any campaign point is evaluated."""

    def run_point(point):
        raise AssertionError(f"point {point.label()} ran")

    monkeypatch.setattr(telemetry, "run_point", run_point)


def usage_error(argv, capsys) -> str:
    """The one error line the CLI exits 2 with on *argv*, having printed
    nothing else but its usage."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (error,) = [line for line in captured.err.splitlines() if "error:" in line]
    return error


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table1", "table2", "table3", "table4"} | {
            f"fig{i}" for i in range(4, 20)
        }
        extensions = {
            "ext-rebuild",
            "ext-destage",
            "ext-parity-grain",
            "ext-spindle",
            "ext-scheduler",
            "ext-reliability",
            "ext-rebuild-rate",
            "ext-scrub",
            "ext-hda",
        }
        assert set(EXPERIMENTS) == expected | extensions

    def test_lookup_with_zero_padding(self):
        assert get_experiment("fig05").exp_id == "fig5"
        assert get_experiment("FIG5").exp_id == "fig5"

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_run_experiment_dispatch(self):
        results = run_experiment("table4")
        assert results[0].exp_id == "table4"

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -2.0])
    @pytest.mark.parametrize(
        "run",
        [
            lambda scale: run_experiment("table4", scale),
            lambda scale: run_experiment("fig8", scale),
            lambda scale: run_campaign(["table4", "fig8"], scale),
        ],
        ids=["run_experiment-table4", "run_experiment-fig8", "run_campaign"],
    )
    def test_bad_scale_raises_before_any_point_runs(self, run, scale, no_point_runs):
        """The engine checks scale itself, as the CLI does: a library
        caller gets a ValueError, not a result or a failed point."""
        with pytest.raises(ValueError, match="scale must be a finite number above 0"):
            run(scale)

    @pytest.mark.parametrize(
        "form",
        [{}, {"points": list}, {"run": list, "points": list, "assemble": dict}],
        ids=["none", "points-only", "both"],
    )
    def test_experiment_takes_exactly_one_form(self, form):
        """A compute function, nothing else: an experiment with cells is
        a Grid, not an Experiment with points and assemble."""
        with pytest.raises(TypeError):
            Experiment("x", "t", **form)


class TestSeriesAndResult:
    def test_series_validation(self):
        with pytest.raises(ValueError):
            Series("x", [1, 2], [1.0])

    def test_table_str_renders(self):
        r = ExperimentResult(
            exp_id="figX",
            title="demo",
            xlabel="N",
            ylabel="ms",
            series=[Series("a", [1, 2], [3.0, 4.0]), Series("b", [1, 2], [5.0, 6.0])],
            notes="hello",
        )
        text = r.table_str()
        assert "figX" in text
        assert "a" in text and "b" in text
        assert "hello" in text
        assert "3.00" in text

    def test_series_by_label(self):
        r = ExperimentResult("x", "t", "x", "y", [Series("a", [1], [2.0])])
        assert r.series_by_label("a").ys == [2.0]
        with pytest.raises(KeyError):
            r.series_by_label("missing")

    def test_to_dict_roundtrips_through_json(self):
        r = ExperimentResult("x", "t", "x", "y", [Series("a", [1], [2.0])])
        blob = json.dumps(r.to_dict())
        assert json.loads(blob)["series"][0]["label"] == "a"


class TestGetTrace:
    def test_trace1_sliced(self):
        trace = get_trace(1, scale=0.1)
        assert trace.ndisks == 60

    def test_trace2_plain(self):
        trace = get_trace(2, scale=0.1)
        assert trace.ndisks == 10

    def test_trace2_padded_for_large_n(self):
        trace = get_trace(2, scale=0.1, n=20)
        assert trace.ndisks == 20
        # Traffic still confined to the first 10 disks' addresses.
        assert trace.lblocks.max() < 10 * trace.blocks_per_disk

    def test_speed_scaling(self):
        normal = get_trace(2, scale=0.1)
        fast = get_trace(2, scale=0.1, speed=2.0)
        assert fast.duration_ms == pytest.approx(normal.duration_ms / 2)

    def test_invalid_trace_id(self):
        with pytest.raises(ValueError):
            get_trace(3)

    def test_caching_returns_same_object(self):
        assert get_trace(2, scale=0.1) is not None
        # lru_cache: same parameters -> same underlying records object.
        a = get_trace(2, scale=0.1)
        b = get_trace(2, scale=0.1)
        assert a.records is b.records

    def test_sim_args_match_the_trace(self):
        """A point's keywords split into a config matched to its trace
        and the keywords run_trace takes itself."""
        trace = get_trace(2, scale=0.1)
        schedule = FailureSchedule.single_failure(at_ms=0.0, disk=0)
        point = Point.sim(
            "x", ("k",), TraceSpec(2, 0.1), "raid5",
            striping_unit=4, failures=schedule, keep_samples=True,
        )
        cfg, run = point.sim_args(trace.blocks_per_disk)
        assert cfg.organization is Organization.RAID5
        assert cfg.blocks_per_disk == trace.blocks_per_disk
        assert cfg.striping_unit == 4
        assert run == {"backend": "des", "failures": schedule, "keep_samples": True}
        plain_cfg, plain_run = Point.sim("x", ("k",), TraceSpec(2, 0.1), "base").sim_args()
        assert plain_cfg.organization is Organization.BASE
        assert plain_run == {"backend": "des", "failures": None, "keep_samples": False}


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig19" in capsys.readouterr().out

    def test_serial_progress_reports_units(self, capsys):
        assert main(["fig8", "--scale", "0.01", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/14]" in err and "[14/14]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scale", "nan"],
            ["--scale", "inf"],
            ["--scale", "0"],
            ["--scale", "-2"],
            ["--scale", "half"],
            ["--jobs", "-3"],
            ["--jobs", "two"],
        ],
    )
    def test_bad_scale_or_jobs_is_a_usage_error(self, argv, capsys):
        """Rejected by argparse (exit 2, one error line) before any point
        runs, not deep inside the campaign or silently accepted."""
        with pytest.raises(SystemExit) as exit_:
            main(["table4", *argv])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {argv[0]}" in captured.err
        assert "Traceback" not in captured.err

    def test_manifest_naming_a_directory_is_a_usage_error(
        self, tmp_path, capsys, no_point_runs
    ):
        """Rejected by argparse before any point runs, not by a traceback
        once the whole campaign has run."""
        with pytest.raises(SystemExit) as exit_:
            main(["fig8", "--scale", "0.01", "--manifest", str(tmp_path)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --manifest: expected a file path" in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_resume_without_manifest_is_a_usage_error(self, capsys, no_point_runs):
        error = usage_error(["fig8", "--scale", "0.01", "--resume"], capsys)
        assert "error: --resume needs --manifest" in error

    def test_unwritable_manifest_is_a_usage_error(self, tmp_path, capsys, no_point_runs):
        """The path lies below a regular file, so no user, root included,
        can write it; that fails before any point runs."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        argv = ["fig8", "--scale", "0.01", "--manifest", str(blocker / "m.jsonl")]
        error = usage_error(argv, capsys)
        assert "error: argument --manifest:" in error and str(blocker) in error
        assert blocker.read_text() == "a file, not a directory\n"

    def test_resume_refuses_a_manifest_of_other_code(
        self, tmp_path, capsys, monkeypatch, no_point_runs
    ):
        manifest = tmp_path / "m.jsonl"
        assert main(["table4", "--manifest", str(manifest)]) == 0
        before = manifest.read_text()
        ours = telemetry.code_fingerprint()
        monkeypatch.setattr(telemetry, "code_fingerprint", lambda: "0" * 16)
        capsys.readouterr()
        argv = ["fig8", "--scale", "0.01", "--manifest", str(manifest), "--resume"]
        error = usage_error(argv, capsys)
        assert "recorded by other code" in error
        assert ours in error and "0" * 16 in error
        assert manifest.read_text() == before

    def test_serial_cli_prints_each_experiment_once_assembled(self, capsys, monkeypatch):
        """One engine call: fig11's tables print before any point only
        fig15 has runs, and fig15's once its last point has run."""
        run_point = telemetry.run_point

        def marked(point):
            print(f"<run {point.exp_id}>")
            return run_point(point)

        monkeypatch.setattr(telemetry, "run_point", marked)
        assert main(["fig11", "fig15", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        fig11_table = out.index("fig11: ")
        fig15_table = out.index("fig15: ")
        assert out.rindex("<run fig11>") < fig11_table < out.index("<run fig15>")
        assert out.rindex("<run fig15>") < fig15_table
        assert out.index("[fig11 done at") < out.index("<run fig15>")

    def test_run_and_json(self, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        assert main(["table4", "--json", str(out_json)]) == 0
        text = capsys.readouterr().out
        assert "table4" in text
        data = json.loads(out_json.read_text())
        assert data[0]["id"] == "table4"


class TestDriverShapes:
    """Tiny-scale structural checks of every figure driver."""

    SCALE = 0.02

    def test_fig6_fig7(self):
        from repro.experiments.fig06_07_skew import run_fig6, run_fig7

        f6 = run_fig6(self.SCALE)[0]
        f7 = run_fig7(self.SCALE)[0]
        assert len(f6.series[0].xs) == 130
        assert len(f7.series[0].xs) == 143

    def test_fig11_shape(self):
        results = run_experiment("fig11", self.SCALE)
        assert len(results) == 2
        assert len(results[0].series) == 4

    def test_fig8_shape(self):
        results = run_experiment("fig8", self.SCALE)
        assert [s.label for s in results[0].series] == ["RAID5"]
        assert results[0].series[0].xs == [1, 2, 4, 8, 16, 32, 64]

    def test_fig16_shape(self):
        results = run_experiment("fig16", self.SCALE)
        assert len(results) == 2
        assert {s.label for s in results[0].series} == {"RAID5", "RAID4-PC"}
