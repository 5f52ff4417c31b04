"""Failure-domain scenario sweeps (beyond the paper's figures).

Two campaigns over the knobs of :mod:`repro.failure`:

* ``ext-rebuild-rate`` — the §4.2.1 tradeoff the paper names but never
  plots: a disk fails at t=0, a spare arrives immediately, and the
  rebuild throttle (``rebuild_delay_ms`` between chunks) sweeps from
  full-speed to gentle.  Fast rebuilds restore redundancy sooner but
  steal arm time from foreground requests (worse p95); slow rebuilds
  are polite but stretch the window in which a second failure loses
  data.  One curve pair (foreground p95, rebuild completion time) per
  organization — mirrors reconstruct from one partner, RAID5 from N
  surviving disks, Parity Striping from its parity-group members, so
  the tradeoff's shape differs by organization.
* ``ext-scrub`` — scrub-interval vs latent-error exposure: latent
  sector errors injected at t=0, a periodic scrub detects and repairs
  them, and the exposure window (injection → repair) grows with the
  scrub period while the scrub's foreground interference shrinks.

Both decompose into points, so they parallelize (``--jobs``), memoize
(result store) and telemeter (manifests) like every other registered
experiment.  The failure schedule rides inside the point's overrides —
its repr is part of the point's content hash, which is what keeps
degraded results from ever aliasing healthy memoized entries.
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec
from repro.failure import FailureSchedule, LatentError, ScrubPolicy

__all__ = [
    "points_rebuild_rate",
    "assemble_rebuild_rate",
    "points_scrub",
    "assemble_scrub",
    "REBUILD_DELAYS_MS",
    "SCRUB_PERIODS_MS",
]

#: Organizations with redundancy to rebuild from (label -> config org).
ORGS = [
    ("mirror", "Mirrored"),
    ("raid5", "RAID5"),
    ("parity_striping", "ParStripe"),
]

#: Rebuild throttle sweep: pause between rebuild chunks, ms.
REBUILD_DELAYS_MS = [0.0, 4.0, 16.0, 64.0]

#: Blocks swept by the rebuild (the active slice; full disks would
#: dwarf the foreground trace at every scale).
_REBUILD_BLOCKS = 4000


def _rebuild_schedule(delay_ms: float) -> FailureSchedule:
    return FailureSchedule.single_failure(
        at_ms=0.0,
        disk=0,
        spare_after_ms=0.0,
        rebuild_chunk_blocks=6,
        rebuild_delay_ms=delay_ms,
        rebuild_blocks=_REBUILD_BLOCKS,
    )


def points_rebuild_rate(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "ext-rebuild-rate",
            (org, delay),
            TraceSpec(2, scale),
            org,
            failures=_rebuild_schedule(delay),
            keep_samples=True,
        )
        for org, _ in ORGS
        for delay in REBUILD_DELAYS_MS
    ]


def assemble_rebuild_rate(scale: float, values: dict) -> list[ExperimentResult]:
    def extra(org, delay, name):
        return dict(values[(org, delay)].extras).get(name, math.nan)

    p95_series = [
        Series(label, REBUILD_DELAYS_MS,
               [extra(org, d, "p95_ms") for d in REBUILD_DELAYS_MS])
        for org, label in ORGS
    ]
    rebuild_series = [
        Series(label, REBUILD_DELAYS_MS,
               [extra(org, d, "rebuild_ms") / 1000.0 for d in REBUILD_DELAYS_MS])
        for org, label in ORGS
    ]
    return [
        ExperimentResult(
            exp_id="ext-rebuild-rate",
            title="Foreground p95 during rebuild vs rebuild throttle (Trace 2)",
            xlabel="rebuild chunk delay (ms)",
            ylabel="p95 response time (ms)",
            series=p95_series,
            notes=(
                f"disk 0 fails at t=0, spare immediate, rebuild sweeps "
                f"{_REBUILD_BLOCKS} blocks in 6-block chunks"
            ),
        ),
        ExperimentResult(
            exp_id="ext-rebuild-rate",
            title="Rebuild completion time vs rebuild throttle (Trace 2)",
            xlabel="rebuild chunk delay (ms)",
            ylabel="rebuild time (s)",
            series=rebuild_series,
        ),
    ]


# ---------------------------------------------------------------------------

#: Scrub-interval sweep, ms between passes (first pass starts one
#: period in, so the exposure window scales with the period).
SCRUB_PERIODS_MS = [250.0, 1000.0, 4000.0]

#: Latent sector errors injected at t=0.
_N_LATENT = 12

#: Scrub pass span: covers every injected pblock, not the whole disk.
_SCRUB_SPAN = 1536

SCRUB_ORGS = [("raid5", "RAID5"), ("mirror", "Mirrored")]


def _scrub_schedule(period_ms: float) -> FailureSchedule:
    events = tuple(
        LatentError(at_ms=0.0, disk=(i % 7) + 1, pblock=(i * 113) % 1500)
        for i in range(_N_LATENT)
    )
    return FailureSchedule(
        events=events,
        scrub=ScrubPolicy(
            period_ms=period_ms,
            chunk_blocks=48,
            start_ms=period_ms,
            max_blocks=_SCRUB_SPAN,
            min_passes=1,
        ),
    )


def points_scrub(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "ext-scrub",
            (org, period),
            TraceSpec(2, scale),
            org,
            failures=_scrub_schedule(period),
            keep_samples=True,
        )
        for org, _ in SCRUB_ORGS
        for period in SCRUB_PERIODS_MS
    ]


def assemble_scrub(scale: float, values: dict) -> list[ExperimentResult]:
    def extra(org, period, name):
        return dict(values[(org, period)].extras).get(name, math.nan)

    exposure_series = [
        Series(label, SCRUB_PERIODS_MS,
               [extra(org, p, "exposure_mean_ms") for p in SCRUB_PERIODS_MS])
        for org, label in SCRUB_ORGS
    ]
    repaired_series = []
    for org, label in SCRUB_ORGS:
        ys = []
        for p in SCRUB_PERIODS_MS:
            injected = extra(org, p, "latent_injected")
            repaired = extra(org, p, "latent_repaired")
            ys.append(100.0 * repaired / injected if injected else math.nan)
        repaired_series.append(Series(label, SCRUB_PERIODS_MS, ys))
    return [
        ExperimentResult(
            exp_id="ext-scrub",
            title="Latent-error exposure vs scrub interval (Trace 2)",
            xlabel="scrub period (ms)",
            ylabel="mean exposure (ms)",
            series=exposure_series,
            notes=(
                f"{_N_LATENT} latent errors injected at t=0; first scrub "
                f"pass starts one period in; repair-on-access also counts"
            ),
        ),
        ExperimentResult(
            exp_id="ext-scrub",
            title="Latent errors repaired vs scrub interval (Trace 2)",
            xlabel="scrub period (ms)",
            ylabel="repaired (%)",
            series=repaired_series,
        ),
    ]
