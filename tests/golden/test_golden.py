"""Golden-snapshot regression tests.

Each case runs a small, fully deterministic workload and compares a
digest of the result against a JSON fixture committed next to this
file.  The digests include every per-array counter and percentile, so
any behavioural drift in the simulator — planner changes, scheduling
changes, accounting changes — shows up as a named field diff.

After an *intentional* behaviour change, regenerate with::

    PYTHONPATH=src python -m pytest tests/golden --regen-golden

and review the fixture diff like any other code change.  Every golden
run is executed twice (and under full validation) before comparing, so
a flaky fixture can never be recorded.
"""

from pathlib import Path

import pytest

from repro.sim import run_trace
from repro.validate import compare_snapshots, load_snapshot, save_snapshot, snapshot
from repro.validate.golden import GoldenMismatch, diff_snapshots
from tests.validate.workload import config, make_trace

FIXTURES = Path(__file__).parent

CASES = {
    "base_uncached_n4": dict(org="base", n=4),
    "raid5_uncached_n4": dict(org="raid5", n=4),
    "raid5_cached_n4": dict(org="raid5", n=4, cached=True, cache_mb=4),
    "mirror_uncached_n4": dict(org="mirror", n=4),
}

#: ``RunResult.events`` of each case.  Snapshots leave the kernel event
#: count out (the metrics sampler adds events of its own to traced
#: runs), so it is pinned here: a host-side speed-up must keep the
#: simulated schedule event for event.
EVENTS = {
    "base_uncached_n4": 2015,
    "raid5_uncached_n4": 5819,
    "raid5_cached_n4": 2643,
    "mirror_uncached_n4": 2456,
}


def golden_run(case_kw):
    cfg = config(**case_kw)
    trace = make_trace(seed=11, n=150, ndisks=4)
    return run_trace(cfg, trace, warmup_fraction=0.1, validate=True)


class TestGolden:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_golden(self, case, request):
        path = FIXTURES / f"{case}.json"
        # Two live runs must agree bit-exactly before either is compared
        # against (or recorded as) the fixture.
        first = snapshot(golden_run(CASES[case]))
        second = snapshot(golden_run(CASES[case]))
        assert diff_snapshots(first, second, rtol=0.0, atol=0.0) == []

        if request.config.getoption("--regen-golden"):
            save_snapshot(path, first)
            return
        expected = load_snapshot(path)
        assert expected is not None, (
            f"missing fixture {path.name}; run pytest with --regen-golden"
        )
        compare_snapshots(expected, first, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_kernel_event_count(self, case):
        assert golden_run(CASES[case]).events == EVENTS[case]


class TestDiffMachinery:
    def test_exact_match_is_empty(self):
        snap = {"a": 1, "b": [1.0, 2.0], "c": {"d": "x"}}
        assert diff_snapshots(snap, snap) == []

    def test_integer_drift_is_exact(self):
        assert diff_snapshots({"count": 10}, {"count": 11}, rtol=0.5)

    def test_float_within_tolerance_passes(self):
        assert diff_snapshots({"x": 1.0}, {"x": 1.0 + 1e-12}) == []
        assert diff_snapshots({"x": 1.0}, {"x": 1.1}, rtol=0.2) == []

    def test_float_outside_tolerance_fails(self):
        diffs = diff_snapshots({"x": 1.0}, {"x": 1.1}, rtol=1e-3)
        assert len(diffs) == 1 and "x" in diffs[0]

    def test_shape_changes_are_reported(self):
        assert diff_snapshots({"a": [1, 2]}, {"a": [1, 2, 3]})
        assert diff_snapshots({"a": 1}, {"b": 1})
        assert diff_snapshots({"a": {"b": 1}}, {"a": 5})

    def test_nan_equals_nan(self):
        nan = float("nan")
        assert diff_snapshots({"x": nan}, {"x": nan}) == []

    def test_compare_raises_with_field_names(self):
        with pytest.raises(GoldenMismatch, match=r"\$\.count"):
            compare_snapshots({"count": 1}, {"count": 2})
