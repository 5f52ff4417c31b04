"""Figure 9 benchmark: Parity Striping parity placement."""

from functools import partial

from repro.experiments import run_experiment

run = partial(run_experiment, "fig9")


def test_fig09_parity_placement(bench_experiment):
    results = bench_experiment(run, scale=0.12)
    assert len(results) == 2
    for panel in results:
        assert {s.label for s in panel.series} == {"middle", "end"}
        assert "w>1/N rule" in panel.notes
