"""Figure 4 benchmark: synchronization policies vs array size."""

from functools import partial

from repro.experiments import run_experiment

run = partial(run_experiment, "fig4")


def test_fig04_sync_policies(bench_experiment):
    results = bench_experiment(run, scale=0.05)
    # Four panels: {RAID5, ParStripe} x {Trace 1, Trace 2}.
    assert len(results) == 4
    for panel in results:
        assert {s.label for s in panel.series} == {"SI", "RF", "RF/PR", "DF", "DF/PR"}
        # SI must not beat the best policy anywhere (it holds the
        # parity disk spinning).
        si = panel.series_by_label("SI")
        best = [min(s.ys[i] for s in panel.series) for i in range(len(si.xs))]
        assert all(si.ys[i] >= best[i] - 1e-9 for i in range(len(si.xs)))
