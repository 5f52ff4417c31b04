"""Per-run failure-scenario outcome report.

:class:`FailureReport` is the harvest of one failure-injected run: what
was injected, what the rebuilds and scrub passes accomplished, how many
foreground accesses took degraded paths, and — the bottom line — whether
any data was actually lost.  It is a frozen value object attached to
:class:`~repro.sim.results.RunResult` as ``result.failures`` (excluded
from result equality, like the other instrumentation fields) and
serialized into golden snapshots by
:func:`repro.validate.golden.snapshot`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.failure.errors import DataLossError

__all__ = ["RebuildStats", "ScrubStats", "FailureReport", "build_report"]


@dataclass(frozen=True)
class RebuildStats:
    """Outcome of one array's rebuild onto its spare."""

    array: int
    failed_disk: int
    started_ms: float
    finished_ms: Optional[float]
    blocks: int
    lost_blocks: int

    @property
    def duration_ms(self) -> float:
        if self.finished_ms is None:
            return math.nan
        return self.finished_ms - self.started_ms

    def to_dict(self) -> dict:
        return {
            "array": self.array,
            "failed_disk": self.failed_disk,
            "started_ms": self.started_ms,
            "finished_ms": self.finished_ms,
            "blocks": self.blocks,
            "lost_blocks": self.lost_blocks,
        }


@dataclass(frozen=True)
class ScrubStats:
    """Outcome of one array's scrub passes."""

    array: int
    passes: int
    blocks_checked: int
    detected: int
    repaired: int
    unrepairable: int

    def to_dict(self) -> dict:
        return {
            "array": self.array,
            "passes": self.passes,
            "blocks_checked": self.blocks_checked,
            "detected": self.detected,
            "repaired": self.repaired,
            "unrepairable": self.unrepairable,
        }


@dataclass(frozen=True)
class FailureReport:
    """Aggregated failure-scenario outcome of one run."""

    degraded_reads: int = 0
    degraded_writes: int = 0
    latent_injected: int = 0
    latent_repaired_access: int = 0
    latent_repaired_write: int = 0
    latent_repaired_scrub: int = 0
    latent_outstanding: int = 0
    #: Repair latencies (repair time - injection time), sorted, ms.
    exposure_ms: Tuple[float, ...] = ()
    lost_reads: int = 0
    lost_writes: int = 0
    #: Blocks no redundancy could reconstruct (still lost at run end).
    lost_block_count: int = 0
    #: First few lost accesses: ``(time_ms, kind, disk, pblock)``.
    lost_samples: Tuple[Tuple[float, str, int, int], ...] = ()
    rebuilds: Tuple[RebuildStats, ...] = ()
    scrubs: Tuple[ScrubStats, ...] = ()

    # -- derived -------------------------------------------------------------
    @property
    def latent_repaired(self) -> int:
        return (
            self.latent_repaired_access
            + self.latent_repaired_write
            + self.latent_repaired_scrub
        )

    @property
    def rebuild_duration_ms(self) -> float:
        """Duration of the first rebuild (NaN if none ran or none finished)."""
        for rb in self.rebuilds:
            return rb.duration_ms
        return math.nan

    @property
    def exposure_mean_ms(self) -> float:
        if not self.exposure_ms:
            return math.nan
        return sum(self.exposure_ms) / len(self.exposure_ms)

    @property
    def exposure_max_ms(self) -> float:
        if not self.exposure_ms:
            return math.nan
        return max(self.exposure_ms)

    @property
    def data_lost(self) -> bool:
        return bool(self.lost_reads or self.lost_writes or self.lost_block_count)

    def raise_for_loss(self) -> None:
        """Raise :class:`DataLossError` if the scenario destroyed data.

        The run itself always completes (lost accesses are counted, not
        raised mid-simulation); this is the opt-in hard-failure check.
        """
        if self.data_lost:
            raise DataLossError(
                self.lost_reads,
                self.lost_writes,
                self.lost_block_count,
                self.lost_samples,
            )

    def to_dict(self) -> dict:
        """Deterministic JSON-ready form for golden snapshots."""
        return {
            "degraded_reads": self.degraded_reads,
            "degraded_writes": self.degraded_writes,
            "latent_injected": self.latent_injected,
            "latent_repaired_access": self.latent_repaired_access,
            "latent_repaired_write": self.latent_repaired_write,
            "latent_repaired_scrub": self.latent_repaired_scrub,
            "latent_outstanding": self.latent_outstanding,
            "exposure_mean_ms": self.exposure_mean_ms,
            "exposure_max_ms": self.exposure_max_ms,
            "lost_reads": self.lost_reads,
            "lost_writes": self.lost_writes,
            "lost_block_count": self.lost_block_count,
            "rebuilds": [rb.to_dict() for rb in self.rebuilds],
            "scrubs": [sc.to_dict() for sc in self.scrubs],
        }


def build_report(controllers, rebuilds=(), scrubs=()) -> FailureReport:
    """Harvest the failure counters of *controllers* into one report.

    ``controllers`` are a failure run's uncached controllers (the runner
    refuses a failure schedule on a cached config); ``rebuilds`` /
    ``scrubs`` are the :class:`~repro.failure.degraded.RebuildProcess` /
    :class:`~repro.failure.scrub.ScrubProcess` instances the injector
    started, in array order.
    """
    degraded_reads = degraded_writes = 0
    latent_injected = rep_access = rep_write = rep_scrub = outstanding = 0
    exposure: list[float] = []
    lost_reads = lost_writes = lost_block_count = 0
    lost_samples: list[tuple[float, str, int, int]] = []
    for ctrl in controllers:
        degraded_reads += ctrl.degraded_reads
        degraded_writes += ctrl.degraded_writes
        latent_injected += ctrl.latent_injected
        rep_access += ctrl.latent_repaired_access
        rep_write += ctrl.latent_repaired_write
        rep_scrub += ctrl.latent_repaired_scrub
        outstanding += len(ctrl.latent)
        exposure.extend(ctrl.latent_exposure_ms)
        lost_reads += ctrl.lost_reads
        lost_writes += ctrl.lost_writes
        lost_block_count += len(ctrl.lost_blocks)
        lost_samples.extend(ctrl.lost_events)
    rebuild_stats = tuple(
        RebuildStats(
            array=i,
            failed_disk=rb.failed_disk,
            started_ms=rb.started_at if rb.started_at is not None else math.nan,
            finished_ms=rb.finished_at,
            blocks=rb.total_blocks,
            lost_blocks=rb.lost_blocks,
        )
        for i, rb in rebuilds
    )
    scrub_stats = tuple(
        ScrubStats(
            array=i,
            passes=sc.passes,
            blocks_checked=sc.blocks_checked,
            detected=sc.detected,
            repaired=sc.repaired,
            unrepairable=sc.unrepairable,
        )
        for i, sc in scrubs
    )
    return FailureReport(
        degraded_reads=degraded_reads,
        degraded_writes=degraded_writes,
        latent_injected=latent_injected,
        latent_repaired_access=rep_access,
        latent_repaired_write=rep_write,
        latent_repaired_scrub=rep_scrub,
        latent_outstanding=outstanding,
        exposure_ms=tuple(sorted(exposure)),
        lost_reads=lost_reads,
        lost_writes=lost_writes,
        lost_block_count=lost_block_count,
        lost_samples=tuple(lost_samples[:16]),
        rebuilds=rebuild_stats,
        scrubs=scrub_stats,
    )
