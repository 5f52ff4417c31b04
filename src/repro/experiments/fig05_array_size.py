"""Figure 5: response time vs array size, non-cached organizations.

One panel per trace; curves for Base, Mirror, RAID5, Parity Striping
over N ∈ {5, 10, 15, 20}.

Expected shape (§4.2): Mirror below Base everywhere; Trace 1: RAID5
noticeably above Base (write penalty) and Parity Striping worst at
small N; Trace 2 (high skew): RAID5 below Base, Parity Striping above.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec

__all__ = ["points", "assemble", "ORGS", "SIZES"]

ORGS = [
    ("base", "Base"),
    ("mirror", "Mirror"),
    ("raid5", "RAID5"),
    ("parity_striping", "ParStripe"),
]
SIZES = [5, 10, 15, 20]


def points(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim("fig5", (which, org, n), TraceSpec(which, scale, n=n), org, n=n)
        for which in (1, 2)
        for org, _ in ORGS
        for n in SIZES
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(label, SIZES, [values[(which, org, n)].mean_response_ms for n in SIZES])
            for org, label in ORGS
        ]
        results.append(
            ExperimentResult(
                exp_id="fig5",
                title=f"Response time vs array size (uncached), Trace {which}",
                xlabel="array size N",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results
