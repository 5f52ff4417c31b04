"""Figures 10 and 18 benchmarks: trace-speed sweeps."""

from functools import partial

from repro.experiments import run_experiment

run_fig10 = partial(run_experiment, "fig10")
run_fig18 = partial(run_experiment, "fig18")


def test_fig10_trace_speed_uncached(bench_experiment):
    results = bench_experiment(run_fig10, scale=0.06)
    assert len(results) == 2
    for panel in results:
        for series in panel.series:
            # More load, no faster responses: each curve nondecreasing
            # from 0.5x to 2x within noise.
            assert series.ys[-1] >= series.ys[0] * 0.9


def test_fig18_trace_speed_parity_cache(bench_experiment):
    results = bench_experiment(run_fig18, scale=0.06)
    assert len(results) == 2
    for panel in results:
        assert {s.label for s in panel.series} == {"RAID5", "RAID4-PC"}
