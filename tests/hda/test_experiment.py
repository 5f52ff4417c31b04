"""The ``ext-hda`` campaign and its points-engine plumbing.

Checks the three contracts the experiment rides on: the
run_experiment == assemble(run_points(points)) decomposition (what
makes ``--jobs N`` byte-identical), the content-hash extension
(HDA points get their own hashes, legacy points keep their historical
ones), and the trace plumbing (``TraceSpec.hda`` reaches the generator;
trace 1 rejects it).
"""

import math

import pytest

from repro.experiments.common import get_trace
from repro.experiments.parallel import run_points
from repro.experiments.points import Point, TraceSpec, point_key
from repro.experiments.registry import get_experiment, run_experiment
from repro.layout import POLICIES

SCALE = 0.02

GRID = get_experiment("ext-hda")
#: Each mix's label and cell, from the mean-response panel's curves.
MIXES = [(curve.label, curve.cell) for curve in GRID.panels[1].curves]


class TestCampaign:
    def test_points_cover_the_sweep(self):
        assert [label for label, _ in MIXES] == ["m2+r8", "m4+r6"]
        pts = GRID.points(SCALE)
        keys = [p.key for p in pts]
        assert len(keys) == len(set(keys)) == len(MIXES) * len(POLICIES)
        for p in pts:
            assert p.spec.hda  # every point is an HDA point
            assert dict(p.overrides)["keep_samples"] is True

    def test_run_equals_assemble_of_run_points(self):
        exp = get_experiment("ext-hda")
        serial = [r.to_dict() for r in run_experiment("ext-hda", SCALE)]
        decomposed = [
            r.to_dict()
            for r in exp.assemble(SCALE, run_points(exp.points(SCALE)))
        ]
        assert serial == decomposed

    def test_per_va_extras_are_reported(self):
        values = run_points(GRID.points(SCALE))
        for value in values.values():
            extras = dict(value.extras)
            for name in ("va0_p95_ms", "va0_mean_ms", "va0_util",
                         "va1_p95_ms", "va1_mean_ms", "va1_util"):
                assert name in extras
                assert not math.isnan(extras[name])

    def test_first_fit_strands_the_fast_disks(self):
        results = run_experiment("ext-hda", SCALE)
        util = next(r for r in results if "utilization" in r.title)
        for label, _ in MIXES:
            fast = util.series_by_label(f"{label} fast")
            assert fast.ys[list(POLICIES).index("first_fit")] == 0.0
            assert fast.ys[list(POLICIES).index("bandwidth")] > 0.0


class TestStoreKeys:
    def test_legacy_hashes_preserved(self):
        # Pinned pre-HDA hashes: the spec payload must not change for
        # points with no hda overrides, or every pinned campaign cell
        # (tests/experiments/cells.json) moves.
        p = Point.sim("fig5", ("raid5", 10), TraceSpec(2, 1.0), "raid5", n=10)
        assert point_key(p) == "9d0b4c5222ffb3d46ee74589cac37f0c"
        p2 = Point.sim("t", ("x",), TraceSpec(1, 0.5, speed=2.0, n=5),
                       "mirror", striping_unit=4)
        assert point_key(p2) == "3d06eedca643a559a8888ccdbe51c253"

    def test_hda_points_hash_differently(self):
        plain = Point.sim("e", ("k",), TraceSpec(2, 1.0), "base")
        hda = Point.sim("e", ("k",),
                        TraceSpec(2, 1.0, hda=(("ndisks", 9),)), "base")
        assert point_key(plain) != point_key(hda)

    def test_distinct_hda_overrides_hash_differently(self):
        a = Point.sim("e", ("k",), TraceSpec(2, 1.0, hda=(("ndisks", 9),)), "base")
        b = Point.sim("e", ("k",), TraceSpec(2, 1.0, hda=(("ndisks", 8),)), "base")
        assert point_key(a) != point_key(b)


class TestTracePlumbing:
    def test_hda_overrides_reach_the_generator(self):
        hda = MIXES[0][1]["hda"]
        trace = get_trace(2, SCALE, hda=hda)
        assert trace.ndisks == sum(dict(hda)["va_disks"])

    def test_trace1_rejects_hda(self):
        with pytest.raises(ValueError, match="trace 2"):
            get_trace(1, SCALE, hda=(("ndisks", 9),))

    def test_spec_materialize_round_trips(self):
        hda = MIXES[1][1]["hda"]
        spec = TraceSpec(2, SCALE, hda=hda)
        assert spec.materialize().ndisks == sum(dict(hda)["va_disks"])
