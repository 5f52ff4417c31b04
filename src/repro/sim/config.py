"""Simulation configuration.

Defaults reproduce Table 1 (disk parameters) and Table 4 (default
experiment parameters): ``N = 10``, Disk First synchronization, 1-block
striping unit, middle-cylinder parity placement, 16 MB cache for cached
organizations.  The block size, channel rate, track buffers, RMW
threshold and SI hold bound are constants next to the code that reads
them (:data:`~repro.disk.geometry.BLOCK_BYTES`,
:data:`~repro.channel.bus.CHANNEL_MB_PER_S`, ...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.array.sync import SyncPolicy
from repro.disk.geometry import BLOCK_BYTES, DiskGeometry
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

    def disks(self, n: int) -> int:
        """Physical disks of one array with *n* data disks (Table 3)."""
        if self is Organization.BASE:
            return n
        if self is Organization.MIRROR:
            return 2 * n
        return n + 1


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

    def geometry(self) -> DiskGeometry:
        """Build the :class:`DiskGeometry` for these parameters."""
        return DiskGeometry(
            cylinders=self.cylinders,
            surfaces=self.surfaces,
            sectors_per_track=self.sectors_per_track,
            bytes_per_sector=self.bytes_per_sector,
            rpm=self.rpm,
        )

    def seek_model(self) -> SeekModel:
        """Fit the seek curve to these parameters."""
        return SeekModel.fit(
            cylinders=self.cylinders,
            average_ms=self.average_seek_ms,
            maximal_ms=self.maximal_seek_ms,
            settle_ms=self.settle_ms,
        )


def _disk_bandwidth(disk: DiskParams) -> float:
    """Small-access figure of merit: accesses/ms at zero load."""
    geometry = disk.geometry()
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
    width and (optionally) disk model and capacity share — carved out of
    the system's disk pool.  ``None`` fields inherit the enclosing
    :class:`SystemConfig`'s value, and every other setting (striping
    unit, parity placement and grain, synchronization, ...) is the
    system's, so a VA only states what differs from the system defaults.
    A VA is never cached: :class:`SystemConfig` refuses ``cached=True``
    together with ``vas``.
    """

    organization: Organization
    #: Array size: data-disk equivalents of this VA.
    n: int
    #: Label for reports (defaults to the organization name).
    name: str = ""
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

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("VA n must be >= 1")
        if self.blocks_per_disk is not None and self.blocks_per_disk < 1:
            raise ValueError("VA blocks_per_disk must be >= 1")
        if self.heat <= 0:
            raise ValueError("VA heat must be positive")

    @property
    def label(self) -> str:
        return self.name or self.organization.value

    @property
    def ndisks(self) -> int:
        """Physical disks this VA's layout needs (Table 3 rule)."""
        return self.organization.disks(self.n)


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
    # non-empty the system is a set of uncached Virtual Arrays placed
    # onto ``pool`` by ``allocation``; the single-organization fields
    # above then provide the settings the VAs inherit.
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
        if self.striping_unit < 1:
            raise ValueError("striping_unit must be >= 1")
        if self.parity_grain is not None and self.parity_grain < 1:
            raise ValueError("parity_grain must be >= 1")
        if self.cache_mb <= 0:
            raise ValueError("cache_mb must be positive")
        if self.destage_period_ms <= 0:
            raise ValueError("destage period must be positive")
        if self.destage_policy not in ("periodic", "lru_demand", "decoupled"):
            raise ValueError(f"unknown destage policy {self.destage_policy!r}")
        if self.disk_scheduler not in ("fcfs", "sstf"):
            raise ValueError(f"unknown disk scheduler {self.disk_scheduler!r}")
        # Validate early, and keep the canonical name ("df" -> "DF").
        object.__setattr__(self, "sync_policy", SyncPolicy.parse(self.sync_policy).value)
        if self.allocation not in POLICIES:
            raise ValueError(
                f"unknown allocation policy {self.allocation!r}; "
                f"expected one of {POLICIES}"
            )
        if self.pool and not self.vas:
            raise ValueError("a disk pool requires at least one VA")
        if self.cached and self.vas:
            # One analytic path needs every VA uncached (a cached VA
            # would need its own hit-ratio replay).
            raise ValueError(
                "cached=True cannot be combined with vas: Virtual Arrays "
                "are uncached"
            )

    # -- derived -------------------------------------------------------------
    @property
    def sync_policy_enum(self) -> SyncPolicy:
        return SyncPolicy.parse(self.sync_policy)

    @property
    def cache_blocks(self) -> int:
        """Cache capacity in blocks (MB are binary here: 16 MB -> 4096)."""
        return int(self.cache_mb * 1024 * 1024 // BLOCK_BYTES)

    @property
    def disks_per_array(self) -> int:
        """Physical disks per array for this organization (Table 3)."""
        if self.heterogeneous:
            raise ValueError(
                "heterogeneous config: per-VA, use va_view(vi).disks_per_array"
            )
        return self.organization.disks(self.n)

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

    def arrays_for(
        self, ndisks: int, blocks_per_disk: int | None = None
    ) -> list[tuple["SystemConfig", list[DiskParams]]]:
        """The arrays that hold a trace of *ndisks* logical disks.

        Each entry is one array's single-organization config and the
        models of its physical disks, in logical-address order: a
        uniform system is ``ndisks // n`` copies of itself over
        :attr:`disk`; a heterogeneous one is its :meth:`va_view` s over
        the disks :meth:`resolve_disk_params` places.  Raises
        :class:`ValueError` unless the arrays hold exactly the trace's
        ``ndisks * blocks_per_disk`` logical blocks (*blocks_per_disk*
        defaults to this config's) and each array's blocks per disk fit
        on its disks.  Building, running and solving a system all walk
        this one list.
        """
        if blocks_per_disk is None:
            blocks_per_disk = self.blocks_per_disk
        if self.vas:
            arrays = [
                (self.va_view(vi), params)
                for vi, params in enumerate(self.resolve_disk_params())
            ]
        else:
            copies = ndisks // self.n
            arrays = [(self, [self.disk] * self.disks_per_array)] * copies
        spans = [acfg.n * acfg.blocks_per_disk for acfg, _ in arrays]
        if sum(spans) != ndisks * blocks_per_disk:
            raise ValueError(
                f"a trace of {ndisks} disks x {blocks_per_disk} blocks/disk "
                f"addresses {ndisks * blocks_per_disk} logical blocks, but the "
                f"{len(arrays)} array(s) of {self.organization_label} hold "
                f"{sum(spans)} (spans {tuple(spans)})"
            )
        capacity: dict[DiskParams, int] = {}
        for i, (acfg, params_list) in enumerate(arrays):
            for params in params_list:
                if params not in capacity:
                    capacity[params] = params.geometry().total_blocks
                if acfg.blocks_per_disk > capacity[params]:
                    raise ValueError(
                        f"array {i} of {self.organization_label} needs "
                        f"{acfg.blocks_per_disk} blocks per disk, "
                        f"which exceeds its disk's {capacity[params]}"
                    )
        return arrays

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
    def organization_label(self) -> str:
        """Report label: the org name, or ``hda(...)`` listing the VAs."""
        if not self.heterogeneous:
            return self.organization.value
        return "hda(" + "+".join(va.organization.value for va in self.vas) + ")"

    def va_view(self, vi: int) -> "SystemConfig":
        """A single-organization config describing VA *vi* alone.

        The builders, controllers and the analytic decomposition all
        consume plain single-organization configs; :meth:`arrays_for`
        hands them this per-VA view instead of teaching every layer
        about VAs.  Everything but the VA's own fields is the system's.
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
                capacity_blocks=p.geometry().total_blocks,
                bandwidth=_disk_bandwidth(p),
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
