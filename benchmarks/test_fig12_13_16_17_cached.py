"""Figures 12, 13, 16 and 17 benchmarks: cached-organization sweeps."""

from functools import partial

from repro.experiments import run_experiment

run_fig12 = partial(run_experiment, "fig12")
run_fig13 = partial(run_experiment, "fig13")
run_fig16 = partial(run_experiment, "fig16")
run_fig17 = partial(run_experiment, "fig17")


def test_fig12_cache_size(bench_experiment):
    results = bench_experiment(run_fig12, scale=0.1)
    assert len(results) == 2
    for panel in results:
        base = panel.series_by_label("Base")
        mirror = panel.series_by_label("Mirror")
        # Mirrors stay ahead of Base in the cached systems too (§4.3.1).
        assert all(m <= b for m, b in zip(mirror.ys, base.ys))


def test_fig13_cached_array_size(bench_experiment):
    results = bench_experiment(run_fig13, scale=0.1)
    assert len(results) == 2
    for panel in results:
        assert panel.series[0].xs == [5, 10, 15]


def test_fig16_parity_cache_size(bench_experiment):
    results = bench_experiment(run_fig16, scale=0.1)
    assert len(results) == 2
    trace2_panel = results[1]
    r5 = trace2_panel.series_by_label("RAID5")
    r4 = trace2_panel.series_by_label("RAID4-PC")
    # §4.4.1: parity caching wins clearly on the write-heavy trace.
    assert sum(r4.ys) < sum(r5.ys)


def test_fig17_parity_cache_array_size(bench_experiment):
    results = bench_experiment(run_fig17, scale=0.08)
    assert len(results) == 2
    for panel in results:
        assert panel.series[0].xs == [5, 10, 20]
