"""Figure 4: response time of the synchronization policies vs array size.

Panels: {RAID5, Parity Striping} × {Trace 1, Trace 2}; one curve per
policy (SI, RF, RF/PR, DF, DF/PR) over N ∈ {5, 10, 15, 20}.

Expected shape: SI clearly worst (parity disk held spinning); DF below
RF; the /PR variants best; all gaps narrowing as N grows.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec

__all__ = ["points", "assemble"]

POLICIES = ["SI", "RF", "RF/PR", "DF", "DF/PR"]
SIZES = [5, 10, 15, 20]
ORGS = [("raid5", "RAID5"), ("parity_striping", "ParStripe")]


def points(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig4",
            (which, org, policy, n),
            TraceSpec(which, scale, n=n),
            org,
            n=n,
            sync_policy=policy,
        )
        for which in (1, 2)
        for org, _ in ORGS
        for policy in POLICIES
        for n in SIZES
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        for org, org_label in ORGS:
            series = [
                Series(
                    policy,
                    SIZES,
                    [values[(which, org, policy, n)].mean_response_ms for n in SIZES],
                )
                for policy in POLICIES
            ]
            results.append(
                ExperimentResult(
                    exp_id="fig4",
                    title=f"Sync policies, {org_label}, Trace {which}",
                    xlabel="array size N",
                    ylabel="mean response time (ms)",
                    series=series,
                )
            )
    return results
