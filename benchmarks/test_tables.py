"""Benchmarks regenerating Tables 1-4."""

from functools import partial

from repro.experiments import run_experiment
from repro.experiments.tables import table1, table2, table4

table3 = partial(run_experiment, "table3")


def test_table1_disk_model(bench_experiment):
    results = bench_experiment(table1, scale=1.0)
    model = results[0].series_by_label("model")
    paper = results[0].series_by_label("paper")
    # Seek calibration must match Table 1 exactly.
    for name, got, want in zip(model.xs, model.ys, paper.ys):
        if name in ("average_seek_ms", "maximal_seek_ms"):
            assert abs(got - want) < 1e-6


def test_table2_traces(bench_experiment):
    results = bench_experiment(table2, scale=0.25)
    for result in results:
        measured = result.series_by_label("measured")
        paper = result.series_by_label("paper")
        wf_i = measured.xs.index("write_fraction")
        assert abs(measured.ys[wf_i] - paper.ys[wf_i]) < 0.03


def test_table3_organizations(bench_experiment):
    results = bench_experiment(table3, scale=0.4)
    rts = results[0].series_by_label("response_ms")
    assert len(rts.xs) == 9  # 4 uncached + 5 cached cells
    assert all(y > 0 for y in rts.ys)


def test_table4_defaults(bench_experiment):
    results = bench_experiment(table4, scale=1.0)
    defaults = dict(zip(results[0].series[0].xs, results[0].series[0].ys))
    assert defaults["N"] == 10
    assert defaults["cache_mb"] == 16
