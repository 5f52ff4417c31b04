"""Figure 13: array size with a fixed *total* cache budget (cached).

(N, per-array cache) ∈ {(5, 8 MB), (10, 16 MB), (15, 24 MB)} — the
total cache is constant, so the question is partitioned-vs-shared
caches combined with arm counts and load balancing (§4.3.2).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.fig05_array_size import ORGS
from repro.experiments.points import Point, TraceSpec

__all__ = ["points", "assemble", "POINTS"]

POINTS = [(5, 8.0), (10, 16.0), (15, 24.0)]


def points(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig13",
            (which, org, n),
            TraceSpec(which, scale, n=n),
            org,
            n=n,
            cached=True,
            cache_mb=cache_mb,
        )
        for which in (1, 2)
        for org, _ in ORGS
        for n, cache_mb in POINTS
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    xs = [n for n, _ in POINTS]
    for which in (1, 2):
        series = [
            Series(label, xs, [values[(which, org, n)].mean_response_ms for n, _ in POINTS])
            for org, label in ORGS
        ]
        results.append(
            ExperimentResult(
                exp_id="fig13",
                title=f"Array size at fixed total cache (cached), Trace {which}",
                xlabel="array size N (cache = 1.6 MB x N per array)",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results
