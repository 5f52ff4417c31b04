"""Simulation configuration.

Defaults reproduce Table 1 (disk/channel parameters) and Table 4
(default experiment parameters): ``N = 10``, 4 KB blocks, Disk First
synchronization, 1-block striping unit, middle-cylinder parity
placement, 16 MB cache for cached organizations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.array.sync import SyncPolicy
from repro.disk.geometry import DiskGeometry
from repro.disk.seek import SeekModel
from repro.layout import (
    BaseLayout,
    Layout,
    MirrorLayout,
    ParityPlacement,
    ParityStripingLayout,
    Raid4Layout,
    Raid5Layout,
)
from repro.layout.allocation import POLICIES, PoolSlot, VADemand, allocate
from repro.trace.synthetic import DEFAULT_BLOCKS_PER_DISK

__all__ = [
    "DiskParams",
    "DiskPoolEntry",
    "Organization",
    "SystemConfig",
    "VAConfig",
]


class Organization(enum.Enum):
    """The five organizations of Table 3."""

    BASE = "base"
    MIRROR = "mirror"
    RAID5 = "raid5"
    RAID4 = "raid4"
    PARITY_STRIPING = "parity_striping"

    @classmethod
    def parse(cls, text: str) -> "Organization":
        t = text.strip().lower().replace("-", "_").replace(" ", "_")
        aliases = {
            "parstripe": cls.PARITY_STRIPING,
            "parity_stripe": cls.PARITY_STRIPING,
            "ps": cls.PARITY_STRIPING,
        }
        if t in aliases:
            return aliases[t]
        for member in cls:
            if member.value == t:
                return member
        raise ValueError(f"unknown organization {text!r}")


@dataclass(frozen=True)
class DiskParams:
    """Table 1 disk parameters plus the seek-curve settle time."""

    rpm: float = 5400.0
    average_seek_ms: float = 11.2
    maximal_seek_ms: float = 28.0
    settle_ms: float = 2.0
    cylinders: int = 1260
    surfaces: int = 30  # 15 platters
    sectors_per_track: int = 48
    bytes_per_sector: int = 512

    def geometry(self, block_bytes: int = 4096) -> DiskGeometry:
        """Build the :class:`DiskGeometry` for these parameters."""
        return DiskGeometry(
            cylinders=self.cylinders,
            surfaces=self.surfaces,
            sectors_per_track=self.sectors_per_track,
            bytes_per_sector=self.bytes_per_sector,
            rpm=self.rpm,
            block_bytes=block_bytes,
        )

    def seek_model(self) -> SeekModel:
        """Fit the seek curve to these parameters."""
        return SeekModel.fit(
            cylinders=self.cylinders,
            average_ms=self.average_seek_ms,
            maximal_ms=self.maximal_seek_ms,
            settle_ms=self.settle_ms,
        )


def _disk_bandwidth(disk: DiskParams, block_bytes: int) -> float:
    """Small-access figure of merit: accesses/ms at zero load."""
    geometry = disk.geometry(block_bytes)
    service = (
        disk.average_seek_ms
        + geometry.revolution_time / 2.0
        + geometry.block_transfer_time
    )
    return 1.0 / service


@dataclass(frozen=True)
class VAConfig:
    """One Virtual Array of a Heterogeneous Disk Array.

    A VA is a self-contained array organization — its own RAID level,
    width, stripe unit and (optionally) disk model and capacity share —
    carved out of the system's disk pool.  ``None`` fields inherit the
    enclosing :class:`SystemConfig`'s value, so a VA only states what
    differs from the system defaults.
    """

    organization: Organization
    #: Array size: data-disk equivalents of this VA.
    n: int
    #: Label for reports (defaults to the organization name).
    name: str = ""
    striping_unit: int = 1
    #: Logical blocks per data disk of this VA (its capacity share);
    #: ``None`` inherits the system's ``blocks_per_disk``.
    blocks_per_disk: int | None = None
    #: Disk model when the system has no pool (``None`` inherits);
    #: ignored when a pool is present — the allocation policy decides.
    disk: DiskParams | None = None
    #: Expected share of the workload's accesses, relative across VAs.
    #: The bandwidth-balanced allocation policy ranks VAs by
    #: ``heat / physical disks``.
    heat: float = 1.0
    cached: bool = False
    cache_mb: float | None = None
    parity_placement: ParityPlacement = ParityPlacement.MIDDLE
    parity_grain: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("VA n must be >= 1")
        if self.striping_unit < 1:
            raise ValueError("VA striping_unit must be >= 1")
        if self.blocks_per_disk is not None and self.blocks_per_disk < 1:
            raise ValueError("VA blocks_per_disk must be >= 1")
        if self.heat <= 0:
            raise ValueError("VA heat must be positive")
        if self.cache_mb is not None and self.cache_mb <= 0:
            raise ValueError("VA cache_mb must be positive")
        if self.parity_grain is not None and self.parity_grain < 1:
            raise ValueError("VA parity_grain must be >= 1")

    @property
    def label(self) -> str:
        return self.name or self.organization.value

    @property
    def ndisks(self) -> int:
        """Physical disks this VA's layout needs (Table 3 rule)."""
        if self.organization is Organization.BASE:
            return self.n
        if self.organization is Organization.MIRROR:
            return 2 * self.n
        return self.n + 1


@dataclass(frozen=True)
class DiskPoolEntry:
    """``count`` identical disks offered to the allocation policies."""

    disk: DiskParams
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("pool entry count must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build and run one simulated I/O subsystem."""

    organization: Organization = Organization.RAID5
    #: Array size: data-disk equivalents per array (Table 4: N = 10).
    n: int = 10
    #: Logical database blocks per data disk.
    blocks_per_disk: int = DEFAULT_BLOCKS_PER_DISK
    block_bytes: int = 4096
    #: RAID5/RAID4 striping unit in blocks (Table 4: 1 block).
    striping_unit: int = 1
    #: Parity Striping placement (Table 4: middle cylinders).
    parity_placement: ParityPlacement = ParityPlacement.MIDDLE
    #: Parity Striping fine-grained parity (the paper's suggested
    #: extension): rotate group membership every this many blocks of
    #: area offset; None = classic whole-area groups.
    parity_grain: int | None = None
    #: Parity/data synchronization (Table 4: Disk First).
    sync_policy: str = "DF"
    #: Stripe-coverage fraction at or above which reconstruct-write is
    #: used instead of read-modify-write ("less than half a stripe").
    rmw_threshold: float = 0.5
    #: Under SI, revolutions the parity disk is held waiting for the old
    #: data before requeueing the access ("held for the duration of some
    #: number of full rotations", §3.3).  The bound also breaks the
    #: cross-disk circular wait that unbounded holding can create.
    si_max_hold_revolutions: int = 4

    # Channel & buffers.
    channel_mb_per_s: float = 10.0
    track_buffers_per_disk: int = 5
    #: Per-disk queue discipline: ``fcfs`` (priority classes, FIFO
    #: within — the paper's model) or ``sstf`` (shortest seek first
    #: within the best priority class; an ablation extension).
    disk_scheduler: str = "fcfs"

    # Cache (cached organizations only).
    cached: bool = False
    cache_mb: float = 16.0
    destage_period_ms: float = 1000.0
    #: Write-back policy (§3.4 compares the first two; the third is the
    #: decoupling the paper suggests investigating):
    #: ``periodic``   — background destage of all dirty blocks each period
    #:                  (the paper's choice, found best at all cache sizes);
    #: ``lru_demand`` — "basic LRU": dirty blocks written back only when
    #:                  they reach the LRU head and a miss replaces them;
    #: ``decoupled``  — frequent small destages of the oldest dirty blocks
    #:                  plus a periodic full flush that frees old copies.
    destage_policy: str = "periodic"
    #: RAID4 parity caching (§4.4); RAID4 is only studied cached.
    parity_caching: bool = True
    #: Synchronize all spindles (paper: "No spindle synchronization is
    #: assumed", so the default randomises each disk's rotational phase).
    spindle_sync: bool = False
    #: Seed for the deterministic spindle phases.
    phase_seed: int = 77

    disk: DiskParams = field(default_factory=DiskParams)

    # Heterogeneous Disk Array (HDA) extension: when ``vas`` is
    # non-empty the system is a set of Virtual Arrays placed onto
    # ``pool`` by ``allocation``; the legacy single-organization fields
    # above then only provide defaults the VAs can inherit.
    vas: tuple[VAConfig, ...] = ()
    #: Placement policy (see :mod:`repro.layout.allocation`).
    allocation: str = "first_fit"
    #: Heterogeneous disk pool; empty = every VA uses its own (or the
    #: system's) disk model directly.
    pool: tuple[DiskPoolEntry, ...] = ()

    def __post_init__(self) -> None:
        # Coerce lists passed for convenience into the hashable tuples
        # the frozen dataclass expects.
        if not isinstance(self.vas, tuple):
            object.__setattr__(self, "vas", tuple(self.vas))
        if not isinstance(self.pool, tuple):
            object.__setattr__(self, "pool", tuple(self.pool))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.blocks_per_disk < 1:
            raise ValueError("blocks_per_disk must be >= 1")
        if self.block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")
        if self.striping_unit < 1:
            raise ValueError("striping_unit must be >= 1")
        if self.parity_grain is not None and self.parity_grain < 1:
            raise ValueError("parity_grain must be >= 1")
        if self.channel_mb_per_s <= 0:
            raise ValueError("channel_mb_per_s must be positive")
        if self.track_buffers_per_disk < 1:
            raise ValueError("track_buffers_per_disk must be >= 1")
        if self.si_max_hold_revolutions < 1:
            raise ValueError("si_max_hold_revolutions must be >= 1")
        if self.cache_mb <= 0:
            raise ValueError("cache_mb must be positive")
        if self.destage_period_ms <= 0:
            raise ValueError("destage period must be positive")
        if not 0.0 < self.rmw_threshold <= 1.0:
            raise ValueError("rmw_threshold must be in (0, 1]")
        if self.destage_policy not in ("periodic", "lru_demand", "decoupled"):
            raise ValueError(f"unknown destage policy {self.destage_policy!r}")
        if self.disk_scheduler not in ("fcfs", "sstf"):
            raise ValueError(f"unknown disk scheduler {self.disk_scheduler!r}")
        SyncPolicy.parse(self.sync_policy)  # validate early
        if self.allocation not in POLICIES:
            raise ValueError(
                f"unknown allocation policy {self.allocation!r}; "
                f"expected one of {POLICIES}"
            )
        if self.pool and not self.vas:
            raise ValueError("a disk pool requires at least one VA")

    # -- derived -------------------------------------------------------------
    @property
    def sync_policy_enum(self) -> SyncPolicy:
        return SyncPolicy.parse(self.sync_policy)

    @property
    def cache_blocks(self) -> int:
        """Cache capacity in blocks (MB are binary here: 16 MB -> 4096)."""
        return int(self.cache_mb * 1024 * 1024 // self.block_bytes)

    @property
    def disks_per_array(self) -> int:
        """Physical disks per array for this organization (Table 3)."""
        if self.heterogeneous:
            raise ValueError(
                "heterogeneous config: per-VA, use va_view(vi).disks_per_array"
            )
        if self.organization is Organization.BASE:
            return self.n
        if self.organization is Organization.MIRROR:
            return 2 * self.n
        return self.n + 1

    def make_layout(self) -> Layout:
        """Instantiate the layout for one array."""
        if self.heterogeneous:
            raise ValueError(
                "heterogeneous config: per-VA, use va_view(vi).make_layout()"
            )
        org = self.organization
        if org is Organization.BASE:
            return BaseLayout(self.n, self.blocks_per_disk)
        if org is Organization.MIRROR:
            return MirrorLayout(self.n, self.blocks_per_disk)
        if org is Organization.RAID5:
            return Raid5Layout(self.n, self.blocks_per_disk, self.striping_unit)
        if org is Organization.RAID4:
            return Raid4Layout(self.n, self.blocks_per_disk, self.striping_unit)
        return ParityStripingLayout(
            self.n,
            self.blocks_per_disk,
            self.parity_placement,
            parity_grain=self.parity_grain,
        )

    def arrays_for(self, total_data_disks: int) -> int:
        """Arrays needed to hold *total_data_disks* logical disks."""
        if self.heterogeneous:
            raise ValueError(
                "heterogeneous config: the arrays are the VAs (len(vas))"
            )
        if total_data_disks % self.n:
            raise ValueError(
                f"{total_data_disks} data disks not divisible by N={self.n}"
            )
        return total_data_disks // self.n

    def with_(self, **changes) -> "SystemConfig":
        """Functional update (convenience for parameter sweeps).

        The replacement re-runs ``__post_init__``, so the resulting
        config is validated exactly like a freshly constructed one —
        an invalid piecemeal change (``with_(striping_unit=0)``) raises
        instead of producing a config the builders choke on later.
        """
        return replace(self, **changes)

    # -- heterogeneous (HDA) derived ------------------------------------------
    @property
    def heterogeneous(self) -> bool:
        """True when the system is a set of Virtual Arrays."""
        return bool(self.vas)

    def va_blocks_per_disk(self, vi: int) -> int:
        """Effective blocks-per-data-disk of VA *vi* (inheriting)."""
        va = self.vas[vi]
        return (
            va.blocks_per_disk
            if va.blocks_per_disk is not None
            else self.blocks_per_disk
        )

    @property
    def va_spans(self) -> tuple[int, ...]:
        """Logical address-space blocks owned by each VA, in order."""
        return tuple(
            va.n * self.va_blocks_per_disk(vi) for vi, va in enumerate(self.vas)
        )

    @property
    def total_logical_blocks(self) -> int:
        """Size of the combined VA logical address space."""
        if not self.heterogeneous:
            raise ValueError("total_logical_blocks is defined for HDA configs")
        return sum(self.va_spans)

    @property
    def organization_label(self) -> str:
        """Report label: the org name, or ``hda(...)`` listing the VAs."""
        if not self.heterogeneous:
            return self.organization.value
        return "hda(" + "+".join(va.organization.value for va in self.vas) + ")"

    @property
    def any_cached(self) -> bool:
        """Whether any array (legacy or VA) runs a controller cache."""
        if not self.heterogeneous:
            return self.cached
        return any(va.cached for va in self.vas)

    def va_view(self, vi: int) -> "SystemConfig":
        """A legacy-shaped config describing VA *vi* alone.

        The builders, controllers and the analytic decomposition all
        consume plain single-organization configs; the heterogeneous
        paths hand them this per-VA view instead of teaching every
        layer about VAs.
        """
        va = self.vas[vi]
        return replace(
            self,
            vas=(),
            pool=(),
            allocation="first_fit",
            organization=va.organization,
            n=va.n,
            blocks_per_disk=self.va_blocks_per_disk(vi),
            striping_unit=va.striping_unit,
            parity_placement=va.parity_placement,
            parity_grain=va.parity_grain,
            cached=va.cached,
            cache_mb=va.cache_mb if va.cache_mb is not None else self.cache_mb,
            disk=va.disk if va.disk is not None else self.disk,
        )

    def resolve_disk_params(self) -> list[list[DiskParams]]:
        """Physical disk model for every disk of every VA.

        With a pool, runs the configured allocation policy; without
        one, each VA uses its own (or the inherited) disk model.
        Raises :class:`~repro.layout.allocation.AllocationError` when
        the pool cannot satisfy the VAs.
        """
        if not self.heterogeneous:
            raise ValueError("resolve_disk_params is defined for HDA configs")
        if not self.pool:
            return [
                [self.va_view(vi).disk] * va.ndisks
                for vi, va in enumerate(self.vas)
            ]
        slot_params = [e.disk for e in self.pool for _ in range(e.count)]
        slots = [
            PoolSlot(
                capacity_blocks=p.geometry(self.block_bytes).total_blocks,
                bandwidth=_disk_bandwidth(p, self.block_bytes),
            )
            for p in slot_params
        ]
        demands = [
            VADemand(
                ndisks=va.ndisks,
                capacity_blocks=self.va_blocks_per_disk(vi),
                heat=va.heat,
            )
            for vi, va in enumerate(self.vas)
        ]
        placements = allocate(self.allocation, demands, slots)
        return [[slot_params[si] for si in placed] for placed in placements]
