"""Figures 11 and 15 benchmarks: hit-ratio curves."""

from functools import partial

from repro.experiments import run_experiment

run_fig11 = partial(run_experiment, "fig11")
run_fig15 = partial(run_experiment, "fig15")


def test_fig11_hit_ratios(bench_experiment):
    results = bench_experiment(run_fig11, scale=0.1)
    assert len(results) == 2
    for panel in results:
        for series in panel.series:
            # Hit ratios are valid and nondecreasing in cache size.
            assert all(0.0 <= y <= 1.0 for y in series.ys)
            assert all(b >= a - 0.02 for a, b in zip(series.ys, series.ys[1:]))
        # Write hit ratio above read hit ratio (§4.3).
        read = panel.series_by_label("read (parity orgs)")
        write = panel.series_by_label("write (parity orgs)")
        assert write.ys[-1] > read.ys[-1]


def test_fig15_parity_cache_hit_ratios(bench_experiment):
    results = bench_experiment(run_fig15, scale=0.1)
    assert len(results) == 2
    for panel in results:
        r5 = panel.series_by_label("read RAID5")
        r4 = panel.series_by_label("read RAID4-PC")
        # Buffered parity can only cost hit ratio, never gain it.
        assert all(y4 <= y5 + 0.02 for y4, y5 in zip(r4.ys, r5.ys))
