"""The sweep grid: points and assemble over a declared figure, without
simulating anything (values are made up per point)."""

import dataclasses

import pytest

from repro.experiments.grid import HIT_SCALE, Curve, Grid
from repro.experiments.points import PointValue
from repro.experiments.registry import EXPERIMENTS, get_experiment

GRID = Grid(
    "demo", "Demo sweep",
    heading="{panel} demo, Trace {trace}",
    panels=(("Plain", {"mode": "plain"}), ("Parity", {"mode": "parity"})),
    curves=(Curve("read", {}, "read_hit_ratio"), Curve("write", {}, "write_hit_ratio")),
    xs=((8, {"cache_blocks": 2048}), (16, {"cache_blocks": 4096})),
    xlabel="cache size (MB)",
    notes={1: "one", 2: "two"},
)


def fake_values(points):
    return {
        p.key: PointValue(read_hit_ratio=float(i), write_hit_ratio=-float(i))
        for i, p in enumerate(points)
    }


def test_cell_fields_reach_spec_org_and_overrides():
    sim = Grid(
        "g", "t", heading="h", xlabel="x",
        curves=(Curve("c", {"org": "raid5", "cached": True}),),
        xs=((5, {"n": 5, "speed": 2.0, "cache_mb": 8.0}),),
    )
    trace1, trace2 = sim.points(0.5)
    assert (trace1.spec.which, trace2.spec.which) == (1, 2)
    assert (trace2.kind, trace2.org) == ("sim", "raid5")
    assert (trace2.spec.scale, trace2.spec.speed, trace2.spec.n) == (0.5, 2.0, 5)
    assert trace2.overrides == (("cache_mb", 8.0), ("cached", True), ("n", 5))


def test_curves_sharing_a_cell_share_its_point():
    points = GRID.points(1.0)
    assert [p.kind for p in points] == ["hitratio"] * 8  # 2 traces x 2 panels x 2 xs
    assert [p.spec.scale for p in points] == [1.0 * HIT_SCALE] * 8
    assert points[2].overrides == (("cache_blocks", 2048), ("mode", "parity"))


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


@pytest.mark.parametrize(
    "exp_id", [e for e, exp in EXPERIMENTS.items() if isinstance(exp, Grid)]
)
def test_every_grid_assembles_from_its_own_points(exp_id):
    grid = get_experiment(exp_id)
    points = grid.points(0.25)
    results = grid.assemble(0.25, fake_values(points))
    assert len(results) == 2 * len(grid.panels)
    for result in results:
        assert result.exp_id == exp_id
        assert [s.label for s in result.series] == [c.label for c in grid.curves]
