"""Benchmarks for the extension experiments (ablations beyond the paper)."""

from functools import partial

from repro.experiments import run_experiment

run_rebuild = partial(run_experiment, "ext-rebuild")
run_destage_policies = partial(run_experiment, "ext-destage")
run_parity_grain = partial(run_experiment, "ext-parity-grain")
run_scheduler = partial(run_experiment, "ext-scheduler")
run_spindle_sync = partial(run_experiment, "ext-spindle")


def test_ext_rebuild(bench_experiment):
    results = bench_experiment(run_rebuild, scale=0.05)
    panel = results[0]
    healthy = panel.series_by_label("healthy rt")
    degraded = panel.series_by_label("during rebuild rt")
    # Rebuild traffic and degraded reads cost response time.
    assert sum(degraded.ys) > sum(healthy.ys)


def test_ext_destage_policies(bench_experiment):
    results = bench_experiment(run_destage_policies, scale=0.08)
    for panel in results:
        labels = {s.label for s in panel.series}
        assert labels == {"periodic", "lru_demand", "decoupled"}


def test_ext_parity_grain(bench_experiment):
    results = bench_experiment(run_parity_grain, scale=0.08)
    assert len(results) == 2
    for panel in results:
        assert "RAID5 su=1" in panel.series[0].xs


def test_ext_spindle_sync(bench_experiment):
    results = bench_experiment(run_spindle_sync, scale=0.08)
    for panel in results:
        for s in panel.series:
            # Synchronization is a second-order effect, never a 2x swing.
            assert 0.5 < s.ys[0] / s.ys[1] < 2.0


def test_ext_scheduler(bench_experiment):
    results = bench_experiment(run_scheduler, scale=0.08)
    for panel in results:
        base = panel.series_by_label("base")
        # SSTF cannot be drastically worse than FCFS.
        assert base.ys[1] < base.ys[0] * 1.5
