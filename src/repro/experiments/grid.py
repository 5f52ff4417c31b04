"""One sweep grid: the shape of every simulated experiment.

The paper's evaluation (§4, Figs. 4-19), Table 3 and the simulated
extensions repeat one shape: per trace, one or more panels; per panel,
one curve per organization or variant; per curve, one y per value of
the swept parameter.  A :class:`Grid` declares that shape as data, and
its :meth:`Grid.points` and :meth:`Grid.assemble` are the one
implementation of the campaign contract over it.

Panels, curves and x values each carry the *cell fields* they set; a
point's cell is the union of the three, each field set by one of them.
The fields mean:

* ``org`` — the organization simulated;
* ``speed`` and ``hda`` — the §4.2.4 trace-speed factor and the
  heterogeneous-array generator overrides of the :class:`TraceSpec`;
* ``n`` — the array size, for the :class:`TraceSpec` (which pads Trace 2
  to it) and for the config;
* ``cache_blocks`` and ``mode`` — a hit-ratio cell, replayed by the fast
  cache pass instead of simulated, on a trace :data:`HIT_SCALE` times
  the grid's scale;
* anything else — a :class:`~repro.sim.SystemConfig` override or a run
  argument (``failures``, ``keep_samples``), passed as it is.
  :func:`~repro.experiments.points.point_key` hashes each value's
  ``repr``, so ``8`` and ``8.0`` are different cells.

A curve plots a :class:`PointValue` field or a function of the cell and
its value (:func:`extra` reads one of the value's extras).  Curves that
share a cell, in one panel or in several, share its point.

A point is keyed by its trace and cell.  A scalar value appears in the
key as it is; any other (a failure schedule, the VAs, a disk pool) as a
short digest of its ``repr``, so progress lines and errors stay short.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Tuple, Union

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, PointValue, TraceSpec

__all__ = ["Curve", "Grid", "HIT_SCALE", "Panel", "extra"]

#: Hit ratios come from the fast cache replay, which affords 4x the
#: timing figures' traces.
HIT_SCALE = 4

#: One labelled setting of an axis: ``(label, cell fields it sets)``.
Level = Tuple[Any, Mapping[str, Any]]

#: What a curve plots: a :class:`PointValue` field, or a function of
#: the cell and its value.
Metric = Union[str, Callable[[Mapping[str, Any], PointValue], float]]


def extra(name: str, divisor: float = 1.0) -> Metric:
    """The metric of one of a value's extras (NaN where the point has
    none), divided by *divisor*."""
    return lambda cell, value: dict(value.extras).get(name, math.nan) / divisor


class Curve(NamedTuple):
    """One curve: its label, the cell fields it sets and what it plots."""

    label: str
    cell: Mapping[str, Any]
    metric: Metric = "mean_response_ms"


@dataclass(frozen=True)
class Panel:
    """One figure per trace, over the grid's xs."""

    #: Formatted with ``trace``.
    title: str
    curves: Tuple[Curve, ...]
    cell: Mapping[str, Any] = field(default_factory=dict)
    ylabel: str = "mean response time (ms)"
    #: One note for every trace, or one per trace.
    notes: Union[str, Mapping[int, str]] = ""


def _part(value: Any) -> str:
    if value is None or isinstance(value, (bool, int, float, str, Enum)):
        return f"{value}"
    return hashlib.blake2b(repr(value).encode(), digest_size=4).hexdigest()


def _key(which: int, cell: Mapping[str, Any]) -> tuple:
    return (which,) + tuple(f"{k}={_part(v)}" for k, v in sorted(cell.items()))


@dataclass(frozen=True)
class Grid:
    """An experiment declared as data: traces x panels x curves x xs."""

    exp_id: str
    #: The ``--list`` title.
    title: str
    xlabel: str
    xs: Tuple[Level, ...]
    panels: Tuple[Panel, ...]
    traces: Tuple[int, ...] = (1, 2)
    #: Multiplies the campaign scale of every trace the grid runs.
    trace_scale: float = 1.0
    #: Rough relative cost (1 = seconds, 3 = minutes at default scale).
    cost: int = 2

    def _cells(self):
        """Per (trace, panel): both, and each curve with its cell per x."""
        for which in self.traces:
            for panel in self.panels:
                yield which, panel, [
                    (curve, [{**panel.cell, **curve.cell, **x_cell} for _, x_cell in self.xs])
                    for curve in panel.curves
                ]

    def _point(self, scale: float, which: int, cell: Mapping[str, Any]) -> Point:
        fields = dict(cell)
        org = fields.pop("org", "")
        hit_ratio = "mode" in fields
        spec = TraceSpec(
            which,
            scale * self.trace_scale * (HIT_SCALE if hit_ratio else 1),
            speed=fields.pop("speed", 1.0),
            n=fields.get("n", 10),
            hda=fields.pop("hda", ()),
        )
        if hit_ratio:
            return Point.hitratio(self.exp_id, _key(which, cell), spec, **fields)
        return Point.sim(self.exp_id, _key(which, cell), spec, org, **fields)

    def points(self, scale: float) -> List[Point]:
        """The grid's distinct cells, in trace, panel, curve, x order."""
        points: Dict[tuple, Point] = {}
        for which, _, curves in self._cells():
            for _, cells in curves:
                for cell in cells:
                    point = self._point(scale, which, cell)
                    if points.setdefault(point.key, point) != point:
                        raise ValueError(f"two cells of {self.exp_id} share key {point.key}")
        return list(points.values())

    def assemble(
        self, scale: float, values: Dict[tuple, PointValue]
    ) -> List[ExperimentResult]:
        """One result per (trace, panel), one series per curve."""
        xs = [x for x, _ in self.xs]

        def y(metric: Metric, which: int, cell: Mapping[str, Any]) -> float:
            value = values[_key(which, cell)]
            return metric(cell, value) if callable(metric) else getattr(value, metric)

        return [
            ExperimentResult(
                exp_id=self.exp_id,
                title=panel.title.format(trace=which),
                xlabel=self.xlabel,
                ylabel=panel.ylabel,
                series=[
                    Series(curve.label, xs, [y(curve.metric, which, cell) for cell in cells])
                    for curve, cells in curves
                ],
                notes=panel.notes if isinstance(panel.notes, str) else panel.notes[which],
            )
            for which, panel, curves in self._cells()
        ]
