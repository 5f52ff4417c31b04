"""Figure 5 benchmark: response time vs array size, uncached."""

from functools import partial

from repro.experiments import run_experiment

run = partial(run_experiment, "fig5")


def test_fig05_array_size(bench_experiment):
    results = bench_experiment(run)
    assert len(results) == 2
    for panel in results:
        assert {s.label for s in panel.series} == {
            "Base",
            "Mirror",
            "RAID5",
            "ParStripe",
        }
    # Mirror below Base at every point of both panels (§4.2).
    for panel in results:
        base = panel.series_by_label("Base")
        mirror = panel.series_by_label("Mirror")
        assert all(m < b for m, b in zip(mirror.ys, base.ys))
