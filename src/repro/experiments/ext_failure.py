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

Both are grids over Trace 2, so they parallelize (``--jobs``), resume
and telemeter (manifests) like every other registered experiment.  The
failure schedule rides inside each point's overrides — its repr is part
of the point's content hash, which is what keeps degraded results from
ever aliasing healthy ones in a campaign or a resumed manifest.
"""

from __future__ import annotations

import math

from repro.experiments.grid import Curve, Grid, Panel, extra
from repro.failure import FailureSchedule, LatentError, ScrubPolicy

__all__ = ["REBUILD_RATE", "SCRUB"]


def _curves(orgs, metric) -> tuple:
    """One curve per ``(org, label)``, keeping its samples for the p95."""
    return tuple(Curve(label, {"org": org, "keep_samples": True}, metric) for org, label in orgs)


#: Blocks swept by the rebuild (the active slice; full disks would
#: dwarf the foreground trace at every scale).
_REBUILD_BLOCKS = 4000

#: Organizations with redundancy to rebuild from.
_REBUILD_ORGS = (("mirror", "Mirrored"), ("raid5", "RAID5"), ("parity_striping", "ParStripe"))


def _rebuild_schedule(delay_ms: float) -> FailureSchedule:
    return FailureSchedule.single_failure(
        at_ms=0.0,
        disk=0,
        spare_after_ms=0.0,
        rebuild_chunk_blocks=6,
        rebuild_delay_ms=delay_ms,
        rebuild_blocks=_REBUILD_BLOCKS,
    )


#: The rebuild throttle — the pause between rebuild chunks, ms — swept.
REBUILD_RATE = Grid(
    "ext-rebuild-rate", "Rebuild rate vs foreground p95", cost=3, traces=(2,),
    panels=(
        Panel(
            "Foreground p95 during rebuild vs rebuild throttle (Trace {trace})",
            _curves(_REBUILD_ORGS, extra("p95_ms")),
            ylabel="p95 response time (ms)",
            notes=(
                f"disk 0 fails at t=0, spare immediate, rebuild sweeps "
                f"{_REBUILD_BLOCKS} blocks in 6-block chunks"
            ),
        ),
        Panel(
            "Rebuild completion time vs rebuild throttle (Trace {trace})",
            _curves(_REBUILD_ORGS, extra("rebuild_ms", 1000.0)),
            ylabel="rebuild time (s)",
        ),
    ),
    xs=tuple((d, {"failures": _rebuild_schedule(d)}) for d in (0.0, 4.0, 16.0, 64.0)),
    xlabel="rebuild chunk delay (ms)",
)


# ---------------------------------------------------------------------------

#: Latent sector errors injected at t=0.
_N_LATENT = 12

#: Scrub pass span: covers every injected pblock, not the whole disk.
_SCRUB_SPAN = 1536


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


def _repaired_pct(cell, value) -> float:
    extras = dict(value.extras)
    injected = extras.get("latent_injected", math.nan)
    repaired = extras.get("latent_repaired", math.nan)
    return 100.0 * repaired / injected if injected else math.nan


_SCRUB_ORGS = (("raid5", "RAID5"), ("mirror", "Mirrored"))

#: Scrub-interval sweep, ms between passes (first pass starts one
#: period in, so the exposure window scales with the period).
SCRUB = Grid(
    "ext-scrub", "Scrub interval vs latent-error exposure", traces=(2,),
    panels=(
        Panel(
            "Latent-error exposure vs scrub interval (Trace {trace})",
            _curves(_SCRUB_ORGS, extra("exposure_mean_ms")),
            ylabel="mean exposure (ms)",
            notes=(
                f"{_N_LATENT} latent errors injected at t=0; first scrub "
                f"pass starts one period in; repair-on-access also counts"
            ),
        ),
        Panel(
            "Latent errors repaired vs scrub interval (Trace {trace})",
            _curves(_SCRUB_ORGS, _repaired_pct),
            ylabel="repaired (%)",
        ),
    ),
    xs=tuple((p, {"failures": _scrub_schedule(p)}) for p in (250.0, 1000.0, 4000.0)),
    xlabel="scrub period (ms)",
)
