"""The sweep grid: points and assemble over a declared figure, without
simulating anything (values are made up per point)."""

import dataclasses
import math

import pytest

from repro.experiments.grid import HIT_SCALE, Curve, Grid, Panel, extra
from repro.experiments.points import PointValue
from repro.experiments.registry import EXPERIMENTS, get_experiment

READ_WRITE = (Curve("read", {}, "read_hit_ratio"), Curve("write", {}, "write_hit_ratio"))

GRID = Grid(
    "demo", "Demo sweep",
    panels=(
        Panel("Plain demo, Trace {trace}", READ_WRITE, cell={"mode": "plain"},
              ylabel="hit ratio", notes={1: "one", 2: "two"}),
        Panel("Parity demo, Trace {trace}", READ_WRITE, cell={"mode": "parity"},
              ylabel="hit ratio", notes={1: "one", 2: "two"}),
    ),
    xs=((8, {"cache_blocks": 2048}), (16, {"cache_blocks": 4096})),
    xlabel="cache size (MB)",
)

#: Every name a point's extras can carry (see ``points.run_point``).
EXTRAS = (
    "events", "p95_ms", "rebuild_ms", "degraded_reads", "degraded_writes",
    "latent_injected", "latent_repaired", "latent_outstanding",
    "exposure_mean_ms", "lost_requests",
) + tuple(f"va{vi}_{m}" for vi in range(2) for m in ("mean_ms", "p95_ms", "util"))


def fake_values(points):
    return {
        p.key: PointValue(
            mean_response_ms=float(i),
            read_hit_ratio=float(i),
            write_hit_ratio=-float(i),
            physical_disks=i,
            extras=tuple((name, float(i + 1)) for name in EXTRAS),
        )
        for i, p in enumerate(points)
    }


def test_cell_fields_reach_spec_org_and_overrides():
    sim = Grid(
        "g", "t", xlabel="x",
        panels=(Panel("h", (Curve("c", {"org": "raid5", "cached": True}),)),),
        xs=((5, {"n": 5, "speed": 2.0, "cache_mb": 8.0, "hda": (("ndisks", 9),)}),),
    )
    trace1, trace2 = sim.points(0.5)
    assert (trace1.spec.which, trace2.spec.which) == (1, 2)
    assert (trace2.kind, trace2.org) == ("sim", "raid5")
    assert (trace2.spec.scale, trace2.spec.speed, trace2.spec.n) == (0.5, 2.0, 5)
    assert trace2.spec.hda == (("ndisks", 9),)
    assert trace2.overrides == (("cache_mb", 8.0), ("cached", True), ("n", 5))


def test_a_trace_list_limits_the_points_to_its_traces():
    grid = dataclasses.replace(GRID, traces=(2,))
    points = grid.points(1.0)
    assert [p.spec.which for p in points] == [2] * 4
    results = grid.assemble(1.0, fake_values(points))
    assert [r.title for r in results] == ["Plain demo, Trace 2", "Parity demo, Trace 2"]
    assert [r.notes for r in results] == ["two", "two"]


def test_the_trace_scale_reaches_every_spec():
    sim = Grid(
        "g", "t", xlabel="x", traces=(2,), trace_scale=0.2,
        panels=(Panel("h", (Curve("c", {"org": "base"}),)),),
        xs=((1, {}),),
    )
    assert [p.spec.scale for p in sim.points(0.5)] == [0.5 * 0.2]
    hit = dataclasses.replace(GRID, trace_scale=0.5)
    assert {p.spec.scale for p in hit.points(1.0)} == {0.5 * HIT_SCALE}


def test_curves_sharing_a_cell_share_its_point():
    points = GRID.points(1.0)
    assert [p.kind for p in points] == ["hitratio"] * 8  # 2 traces x 2 panels x 2 xs
    assert [p.spec.scale for p in points] == [1.0 * HIT_SCALE] * 8
    assert points[2].overrides == (("cache_blocks", 2048), ("mode", "parity"))


def test_panels_over_the_same_cells_share_their_points():
    curve = Curve("c", {"org": "raid5"})
    one = Grid("g", "t", xlabel="x", panels=(Panel("a", (curve,)),), xs=((5, {"n": 5}),))
    two = dataclasses.replace(
        one, panels=(Panel("a", (curve,)), Panel("b", (curve._replace(metric="physical_disks"),)))
    )
    assert two.points(1.0) == one.points(1.0)
    results = two.assemble(1.0, fake_values(two.points(1.0)))
    assert [r.series[0].ys for r in results] == [[0.0], [0], [1.0], [1]]


def test_a_callable_metric_receives_the_cell_and_value():
    seen = []

    def metric(cell, value):
        seen.append((dict(cell), value.mean_response_ms))
        return 2 * value.mean_response_ms

    grid = Grid(
        "g", "t", xlabel="x", traces=(1,),
        panels=(Panel("h", (Curve("c", {"org": "base"}, metric),), cell={"cached": False}),),
        xs=((5, {"n": 5}), (10, {"n": 10})),
    )
    (result,) = grid.assemble(1.0, fake_values(grid.points(1.0)))
    assert result.series[0].ys == [0.0, 2.0]
    assert seen == [
        ({"org": "base", "cached": False, "n": 5}, 0.0),
        ({"org": "base", "cached": False, "n": 10}, 1.0),
    ]


def test_extra_reads_a_named_extra_or_nan():
    value = PointValue(extras=(("rebuild_ms", 1500.0),))
    assert extra("rebuild_ms", 1000.0)({}, value) == 1.5
    assert math.isnan(extra("p95_ms")({}, value))


def test_a_hit_ratio_cell_takes_no_config_override():
    grid = dataclasses.replace(GRID, xs=((8, {"cache_blocks": 2048, "cached": True}),))
    with pytest.raises(TypeError):
        grid.points(1.0)


def test_assemble_places_each_value_by_cell():
    results = GRID.assemble(1.0, fake_values(GRID.points(1.0)))
    assert [r.title for r in results] == [
        "Plain demo, Trace 1", "Parity demo, Trace 1",
        "Plain demo, Trace 2", "Parity demo, Trace 2",
    ]
    assert [r.notes for r in results] == ["one", "one", "two", "two"]
    parity_trace2 = results[3]
    assert [s.label for s in parity_trace2.series] == ["read", "write"]
    assert parity_trace2.series[0].xs == [8, 16]
    assert parity_trace2.series[0].ys == [6.0, 7.0]
    assert parity_trace2.series[1].ys == [-6.0, -7.0]


def test_a_non_scalar_cell_value_is_keyed_by_a_digest():
    schedule = ("a long", "non-scalar", "value") * 20
    grid = Grid(
        "g", "t", xlabel="x", traces=(2,),
        panels=(Panel("h", (Curve("c", {"org": "raid5", "failures": schedule}),)),),
        xs=((5, {"n": 5}),),
    )
    (point,) = grid.points(1.0)
    assert repr(schedule) not in point.label()
    assert point.label() == f"g raid5 2/failures={point.key[1][9:]}/n=5/org=raid5"
    assert len(point.key[1]) == len("failures=") + 8


@pytest.mark.parametrize("scale", [1.0, 0.25])
def test_every_point_label_is_short(scale):
    for exp in EXPERIMENTS.values():
        for point in exp.points(scale):
            label = point.label()
            assert len(label) <= 120, label
            assert not any(r in label for r in ("FailureSchedule(", "VAConfig(", "DiskPoolEntry("))


@pytest.mark.parametrize(
    "exp_id", [e for e, exp in EXPERIMENTS.items() if isinstance(exp, Grid)]
)
def test_every_grid_assembles_from_its_own_points(exp_id):
    grid = get_experiment(exp_id)
    points = grid.points(0.25)
    results = grid.assemble(0.25, fake_values(points))
    assert len(results) == len(grid.traces) * len(grid.panels)
    for result, panel in zip(results, grid.panels * len(grid.traces)):
        assert result.exp_id == exp_id
        assert [s.label for s in result.series] == [c.label for c in panel.curves]
        assert all(len(s.ys) == len(grid.xs) for s in result.series)


def test_every_experiment_with_cells_is_a_grid():
    for exp_id, exp in EXPERIMENTS.items():
        assert isinstance(exp, Grid) == bool(exp.points(0.25)), exp_id
