"""Point content keys: what decides that two points share a value."""

import dataclasses

from repro.experiments.points import point_key
from repro.experiments.registry import get_experiment

SCALE = 0.01


def some_points(exp_id="fig8"):
    return get_experiment(exp_id).points(SCALE)


class TestKey:
    def test_key_is_stable_across_calls(self):
        p = some_points()[0]
        assert point_key(p) == point_key(p)
        assert len(point_key(p)) == 32

    def test_distinct_points_get_distinct_keys(self):
        points = some_points()
        keys = {point_key(p) for p in points}
        assert len(keys) == len(points)

    def test_key_ignores_figure_identity(self):
        """The same (trace, org, overrides) cell shares one value even
        when two figures both sweep it."""
        p = some_points()[0]
        relabeled = dataclasses.replace(p, exp_id="other_fig", key=("z", 99))
        assert point_key(relabeled) == point_key(p)

    def test_key_sees_override_changes(self):
        p = some_points()[0]
        changed = dataclasses.replace(
            p, overrides=tuple(p.overrides) + (("backend", "analytic"),)
        )
        assert point_key(changed) != point_key(p)
