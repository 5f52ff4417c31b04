"""Figures 8, 14 and 19 benchmarks: striping unit sweeps."""

from functools import partial

from repro.experiments import run_experiment

run_fig8 = partial(run_experiment, "fig8")
run_fig14 = partial(run_experiment, "fig14")
run_fig19 = partial(run_experiment, "fig19")


def test_fig08_striping_unit_uncached(bench_experiment):
    results = bench_experiment(run_fig8, scale=0.15)
    assert len(results) == 2
    for panel in results:
        assert panel.series[0].xs == [1, 2, 4, 8, 16, 32, 64]
        assert all(y > 0 for y in panel.series[0].ys)


def test_fig14_striping_unit_cached(bench_experiment):
    results = bench_experiment(run_fig14, scale=0.15)
    assert len(results) == 2
    for panel in results:
        assert all(y > 0 for y in panel.series[0].ys)


def test_fig19_striping_unit_parity_cache(bench_experiment):
    results = bench_experiment(run_fig19, scale=0.1)
    assert len(results) == 2
    for panel in results:
        assert {s.label for s in panel.series} == {"RAID5", "RAID4-PC"}
