"""One sweep grid: the shape of every parameter-sweep figure.

The paper's evaluation (§4, Figs. 4-19) and four of the extensions
repeat one shape.  Per trace there is one panel per organization or
policy, one curve per organization or variant, and one x per value of
the swept parameter (N, striping unit, cache size, trace speed).  A
:class:`Grid` declares that shape as data, and its :meth:`Grid.points`
and :meth:`Grid.assemble` are the one implementation of the campaign
contract over it.

Panels, curves and x values each carry a label and the *cell fields*
they set; a point's cell is the union of the three, each field set by
one of them.  The fields mean:

* ``org`` — the organization simulated;
* ``speed`` — the §4.2.4 trace-speed factor of the :class:`TraceSpec`;
* ``n`` — the array size, for the :class:`TraceSpec` (which pads Trace 2
  to it) and for the config;
* ``cache_blocks`` and ``mode`` — a hit-ratio cell, replayed by the fast
  cache pass instead of simulated, on a trace :data:`HIT_SCALE` times
  the campaign scale;
* anything else — a :class:`~repro.sim.SystemConfig` override, passed
  as it is.  :func:`~repro.experiments.result_store.point_key` hashes
  each value's ``repr``, so ``8`` and ``8.0`` are different cells.

Curves that share a cell (read and write hit ratios of one replay)
share its point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Tuple, Union

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, PointValue, TraceSpec

__all__ = ["Curve", "Grid", "HIT_SCALE"]

#: Hit ratios come from the fast cache replay, which affords 4x the
#: timing figures' traces.
HIT_SCALE = 4

#: One labelled setting of an axis: ``(label, cell fields it sets)``.
Level = Tuple[Any, Mapping[str, Any]]


class Curve(NamedTuple):
    """One curve: its label, the cell fields it sets and what it plots."""

    label: str
    cell: Mapping[str, Any]
    #: The :class:`PointValue` field the curve plots.
    metric: str = "mean_response_ms"


def _key(which: int, cell: Mapping[str, Any]) -> tuple:
    return (which,) + tuple(f"{k}={v}" for k, v in sorted(cell.items()))


@dataclass(frozen=True)
class Grid:
    """A figure declared as data: (Trace 1, Trace 2) x panels x curves x xs."""

    exp_id: str
    #: The ``--list`` title.
    title: str
    #: Each panel's title, formatted with ``trace`` and ``panel``.
    heading: str
    xlabel: str
    curves: Tuple[Curve, ...]
    xs: Tuple[Level, ...]
    panels: Tuple[Level, ...] = (("", {}),)
    ylabel: str = "mean response time (ms)"
    #: One note for every panel, or one per trace.
    notes: Union[str, Mapping[int, str]] = ""
    #: Rough relative cost (1 = seconds, 3 = minutes at default scale).
    cost: int = 2

    def _panels(self):
        """Per (trace, panel): the trace, the panel's label and each
        curve with its cells, one per x."""
        for which in (1, 2):
            for panel, panel_cell in self.panels:
                yield which, panel, [
                    (curve, [{**panel_cell, **curve.cell, **x_cell} for _, x_cell in self.xs])
                    for curve in self.curves
                ]

    def _point(self, scale: float, which: int, cell: Mapping[str, Any]) -> Point:
        fields = dict(cell)
        org = fields.pop("org", "")
        hit_ratio = "mode" in fields
        spec = TraceSpec(
            which,
            scale * HIT_SCALE if hit_ratio else scale,
            speed=fields.pop("speed", 1.0),
            n=fields.get("n", 10),
        )
        if hit_ratio:
            return Point.hitratio(self.exp_id, _key(which, cell), spec, **fields)
        return Point.sim(self.exp_id, _key(which, cell), spec, org, **fields)

    def points(self, scale: float) -> List[Point]:
        """The grid's distinct cells, in trace, panel, curve, x order."""
        points: Dict[tuple, Point] = {}
        for which, _, curves in self._panels():
            for _, cells in curves:
                for cell in cells:
                    point = self._point(scale, which, cell)
                    points.setdefault(point.key, point)
        return list(points.values())

    def assemble(
        self, scale: float, values: Dict[tuple, PointValue]
    ) -> List[ExperimentResult]:
        """One result per (trace, panel), one series per curve."""
        xs = [x for x, _ in self.xs]
        return [
            ExperimentResult(
                exp_id=self.exp_id,
                title=self.heading.format(trace=which, panel=panel),
                xlabel=self.xlabel,
                ylabel=self.ylabel,
                series=[
                    Series(
                        curve.label,
                        xs,
                        [getattr(values[_key(which, cell)], curve.metric) for cell in cells],
                    )
                    for curve, cells in curves
                ],
                notes=self.notes if isinstance(self.notes, str) else self.notes[which],
            )
            for which, panel, curves in self._panels()
        ]
