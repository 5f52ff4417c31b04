"""Figure 12: response time vs cache size, cached organizations (N=10).

Expected shape (§4.3.1): all organizations improve with cache size;
Mirror ~20% better than Base; for Trace 1 RAID5 closes to within ~1% of
Base at 16 MB (the cache eliminates the write penalty); for Trace 2
RAID5 stays competitive because of its load balancing at low hit
ratios.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.fig05_array_size import ORGS
from repro.experiments.points import Point, TraceSpec

__all__ = ["points", "assemble", "CACHE_MB"]

CACHE_MB = [8, 16, 32, 64]


def points(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig12", (which, org, mb), TraceSpec(which, scale), org, cached=True, cache_mb=mb
        )
        for which in (1, 2)
        for org, _ in ORGS
        for mb in CACHE_MB
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(
                label,
                CACHE_MB,
                [values[(which, org, mb)].mean_response_ms for mb in CACHE_MB],
            )
            for org, label in ORGS
        ]
        results.append(
            ExperimentResult(
                exp_id="fig12",
                title=f"Response time vs cache size (cached), Trace {which}",
                xlabel="cache size (MB)",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results
