"""Vectorized decomposition of a trace into per-disk workload classes.

The analytic backend never walks requests one by one: each array's slice
of the trace is expanded to block level with numpy, mapped to physical
disks with the same (vectorized) layout arithmetic the DES uses, and
collapsed into

* :class:`DiskClass` — a Poisson stream of disk accesses of one kind
  (read / write / rmw) with per-disk rates and block-count moments; the
  solver feeds these into each disk's M/G/1 queue;
* :class:`RequestClass` — a group of logical requests with identical
  structure (same direction and fan-out), described as the channel
  transfer plus a set of parallel disk branches; the solver composes
  each class's mean response from the queue waits via fork-join.

Organization rules (mirroring the controllers in ``repro.array``):

Base
    Reads/writes touch the data disks of the spanned logical disks.
Mirror
    Reads go to the nearer arm of the pair (half the access rate on each
    member, nearest-of-two seek); writes hit both members (fork-join).
RAID5 / RAID4
    Small writes are read-modify-writes on the data disks plus RMWs on
    the parity disk of each touched row (rotated vs dedicated parity).
Parity Striping
    Sequential data mapping; RMW on the data disks plus RMW in the
    parity area of each touched parity group.
Cached organizations
    `cache/fastsim.py` supplies hit ratios from a synchronous LRU
    replay of the trace (0.3-1.0 points of read hit ratio above the
    DES's where measured, see that module); read hits and all writes
    answer from the cache (channel only), read misses carry the
    uncached read fan-out at rate ``(1 - h_r)``, and destage traffic
    becomes *background* disk classes served at lower priority.

Known approximations (reflected in the cross-validation tolerance
bands, see ``repro.analytic.validation``): run lengths per disk are
summarized by their mean, large striped writes are treated as RMW even
when the DES would reconstruct, destage writes are not merged into
longer runs, and parity/data synchronization enters only as a mean
serialization offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.cache.fastsim import CacheHitStats, simulate_hit_ratios
from repro.sim.config import Organization, SystemConfig
from repro.trace.record import Trace

__all__ = ["ArrayLoad", "Branch", "DiskClass", "RequestClass", "decompose"]


@dataclass
class DiskClass:
    """One Poisson stream of same-kind disk accesses."""

    kind: str  # "read" | "write" | "rmw"
    rates: np.ndarray  # accesses per ms, per physical disk of the array
    nblocks: float
    nblocks_second: float
    nearest_of_two: bool = False
    #: Background work (destage) served below foreground priority.
    background: bool = False


@dataclass
class Branch:
    """One parallel disk sub-request of a request class."""

    kind: str
    nblocks: float
    weights: np.ndarray  # probability over the array's disks
    nearest_of_two: bool = False
    #: Parity access issued only once the data access has progressed
    #: (RF/DF sync policies): the solver adds a serialization offset.
    after_data: bool = False


@dataclass
class RequestClass:
    """Requests with identical structure (direction and fan-out)."""

    weight: float  # request count (fractional for cache-split classes)
    is_write: bool
    channel_blocks: float  # blocks crossing the channel (0 = none)
    branches: List[Branch] = field(default_factory=list)


@dataclass
class ArrayLoad:
    """Everything the solver needs about one array."""

    ndisks: int
    duration_ms: float
    classes: List[DiskClass] = field(default_factory=list)
    requests: List[RequestClass] = field(default_factory=list)
    measured_reads: int = 0
    measured_writes: int = 0
    channel_rate: float = 0.0  # request arrivals per ms crossing the channel
    channel_nb: float = 1.0
    channel_nb_second: float = 1.0
    cache_stats: Optional[CacheHitStats] = None
    #: This array's integer share of the global cache counters.
    cache_share: Optional[dict] = None


# -- block-level helpers ------------------------------------------------------


def _expand(lb: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """All block addresses touched by the requests (``Σ nb`` entries)."""
    if len(lb) == 0:
        return np.zeros(0, dtype=np.int64)
    reps = nb.astype(np.int64)
    starts = np.repeat(lb, reps)
    ends = np.cumsum(reps)
    offsets = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - reps, reps)
    return starts + offsets


def _moments(nb: np.ndarray) -> tuple[float, float]:
    if len(nb) == 0:
        return 1.0, 1.0
    x = nb.astype(np.float64)
    return float(x.mean()), float((x * x).mean())


def _rates(
    block_counts: np.ndarray, runs: float, duration_ms: float
) -> np.ndarray:
    """Per-disk access rates from block counts and the total run count."""
    total = block_counts.sum()
    if total == 0 or runs == 0 or not math.isfinite(duration_ms) or duration_ms <= 0:
        return np.zeros_like(block_counts, dtype=np.float64)
    return block_counts * (runs / total) / duration_ms


def _weights(block_counts: np.ndarray) -> np.ndarray:
    total = block_counts.sum()
    if total == 0:
        return np.full(len(block_counts), 1.0 / len(block_counts))
    return block_counts / total


# -- per-organization mapping -------------------------------------------------


def _data_disks(config: SystemConfig, layout, blocks: np.ndarray) -> np.ndarray:
    disks, _ = layout.map_blocks(blocks)
    return disks


def _parity_disks(config: SystemConfig, layout, blocks: np.ndarray) -> np.ndarray:
    org = config.organization
    n = config.n
    if org in (Organization.RAID5, Organization.RAID4):
        rows = (blocks // config.striping_unit) // n
        if org is Organization.RAID5:
            return rows % (n + 1)
        return np.full(len(blocks), n, dtype=np.int64)
    # Parity Striping: group of (disk, data_area[, grain chunk]).
    disk, q = np.divmod(blocks, layout.data_blocks_per_disk)
    k, off = np.divmod(q, layout.area_blocks)
    if layout.parity_grain is not None:
        k = k + off // layout.parity_grain
    return (disk + 1 + k % n) % (n + 1)


def _disk_span(config: SystemConfig, layout, lb: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Number of distinct data disks each request touches."""
    org = config.organization
    last = lb + nb - 1
    if org in (Organization.RAID5, Organization.RAID4):
        su = config.striping_unit
        units = last // su - lb // su + 1
        return np.minimum(units, config.n)
    if org is Organization.PARITY_STRIPING:
        per = layout.data_blocks_per_disk
    else:  # Base / Mirror: logical disk == data disk (or mirror pair)
        per = config.blocks_per_disk
    return last // per - lb // per + 1


def _parity_span(config: SystemConfig, lb: np.ndarray, nb: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Number of distinct parity disks each write touches."""
    org = config.organization
    if org is Organization.RAID4:
        return np.ones(len(lb), dtype=np.int64)
    if org is Organization.RAID5:
        su = config.striping_unit
        row_blocks = config.n * su
        last = lb + nb - 1
        rows = last // row_blocks - lb // row_blocks + 1
        return np.minimum(rows, config.n + 1)
    # Parity Striping: one group per touched (disk, area) span ≈ one per
    # data disk for OLTP-sized requests.
    return m


# -- decomposition ------------------------------------------------------------


def decompose(
    config: SystemConfig, trace: Trace, warmup_ms: float = 0.0
) -> List[ArrayLoad]:
    """Split *trace* into per-array analytic workload descriptions.

    Heterogeneous configs return one :class:`ArrayLoad` per Virtual
    Array (in VA order); each VA is decomposed through its legacy-shaped
    :meth:`~repro.sim.config.SystemConfig.va_view`, so all the
    per-organization mapping above applies unchanged.
    """
    if config.heterogeneous:
        return _decompose_heterogeneous(config, trace, warmup_ms)
    narrays = config.arrays_for(trace.ndisks)
    per_array = config.n * config.blocks_per_disk
    records = trace.records
    times = records["time"]
    lblocks = records["lblock"]
    nblocks = records["nblocks"].astype(np.int64)
    is_write = records["is_write"]
    duration = trace.duration_ms if trace.duration_ms > 0 else math.inf

    stats = None
    if config.cached:
        stats = _cache_stats(config, trace)

    owners = lblocks // per_array
    loads = []
    for a in range(narrays):
        sel = owners == a
        lb = lblocks[sel] - a * per_array
        # Requests spanning into the next array are rare; clamp them to
        # the owning array (the DES splits them, same first-order load).
        nb = np.minimum(nblocks[sel], per_array - lb)
        wr = is_write[sel]
        measured = times[sel] >= warmup_ms
        load = _decompose_array(config, lb, nb, wr, duration, stats, narrays, a)
        load.measured_reads = int((measured & ~wr).sum())
        load.measured_writes = int((measured & wr).sum())
        loads.append(load)
    return loads


def _decompose_heterogeneous(
    config: SystemConfig, trace: Trace, warmup_ms: float
) -> List[ArrayLoad]:
    """Per-VA decomposition: VA-first routing over unequal spans."""
    records = trace.records
    times = records["time"]
    lblocks = records["lblock"]
    nblocks = records["nblocks"].astype(np.int64)
    is_write = records["is_write"]
    duration = trace.duration_ms if trace.duration_ms > 0 else math.inf

    spans = np.array(config.va_spans, dtype=np.int64)
    bounds = np.cumsum(spans)
    starts = bounds - spans
    owners = np.searchsorted(bounds, lblocks, side="right")

    loads = []
    for vi in range(len(config.vas)):
        vcfg = config.va_view(vi)
        sel = owners == vi
        lb = lblocks[sel] - starts[vi]
        # Requests spanning into the next VA are rare; clamp them to the
        # owning VA (the DES splits them, same first-order load).
        nb = np.minimum(nblocks[sel], spans[vi] - lb)
        wr = is_write[sel]
        measured = times[sel] >= warmup_ms
        stats = None
        if vcfg.cached:
            sub = np.empty(int(sel.sum()), dtype=records.dtype)
            sub["time"] = times[sel]
            sub["lblock"] = lb
            sub["nblocks"] = nb
            sub["is_write"] = wr
            sub_trace = Trace(
                sub, vcfg.n, vcfg.blocks_per_disk,
                name=f"{trace.name}#va{vi}",
            )
            stats = _cache_stats(vcfg, sub_trace)
        load = _decompose_array(vcfg, lb, nb, wr, duration, stats, 1, 0)
        load.measured_reads = int((measured & ~wr).sum())
        load.measured_writes = int((measured & wr).sum())
        loads.append(load)
    return loads


def _cache_stats(config: SystemConfig, trace: Trace) -> CacheHitStats:
    org = config.organization
    if org in (Organization.BASE, Organization.MIRROR):
        mode, layout = "plain", None
    elif org is Organization.RAID4 and config.parity_caching:
        mode, layout = "raid4pc", config.make_layout()
    else:
        mode, layout = "parity", None
    return simulate_hit_ratios(
        trace,
        config.n,
        config.cache_blocks,
        mode,
        destage_period_ms=config.destage_period_ms,
        layout=layout,
    )


def _share(total: int, narrays: int, a: int) -> int:
    """Array *a*'s integer share of a global counter (remainder to 0)."""
    base = total // narrays
    return base + (total - base * narrays if a == 0 else 0)


def _group_spans(*spans: np.ndarray):
    """Iterate over unique fan-out tuples with their request masks.

    Tuples come in lexicographic order: each request's tuple is packed
    into one mixed-radix int64 key (a column's radix is its range of
    values, and spans are counts of disks or rows, so the key stays
    small), and keys sort the way their tuples do.
    """
    if len(spans[0]) == 0:
        return
    key = np.zeros(len(spans[0]), dtype=np.int64)
    for span in spans:
        lo = int(span.min())
        key = key * (int(span.max()) - lo + 1) + (span - lo)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    for i, row in enumerate(first):
        yield tuple(int(span[row]) for span in spans), inverse == i


def _decompose_array(
    config: SystemConfig,
    lb: np.ndarray,
    nb: np.ndarray,
    wr: np.ndarray,
    duration: float,
    stats: Optional[CacheHitStats],
    narrays: int,
    a: int,
) -> ArrayLoad:
    org = config.organization
    layout = config.make_layout()
    ndisks = config.disks_per_array
    mirror = org is Organization.MIRROR
    parity = org in (
        Organization.RAID5,
        Organization.RAID4,
        Organization.PARITY_STRIPING,
    )

    load = ArrayLoad(ndisks=ndisks, duration_ms=duration)
    lb_r, nb_r = lb[~wr], nb[~wr]
    lb_w, nb_w = lb[wr], nb[wr]

    # -- read side -----------------------------------------------------------
    blocks_r = _expand(lb_r, nb_r)
    cr = np.bincount(
        _data_disks(config, layout, blocks_r), minlength=ndisks
    ).astype(np.float64)
    if mirror:
        # Shortest-of-two routing: half of each pair's load per member.
        pair = cr + cr[np.arange(ndisks) ^ 1]
        cr = pair / 2.0
    m_r = _disk_span(config, layout, lb_r, nb_r)
    w_read = _weights(cr)
    nb_r_mean, nb_r_second = _moments(nb_r)
    read_rate_scale = 1.0
    if stats is not None:
        read_rate_scale = 1.0 - stats.read_hit_ratio

    if len(lb_r):
        load.classes.append(
            DiskClass(
                "read",
                _rates(cr, float(m_r.sum()) * read_rate_scale, duration),
                nb_r_mean / max(float(m_r.mean()), 1.0),
                nb_r_second / max(float(m_r.mean()), 1.0) ** 2,
                nearest_of_two=mirror,
            )
        )

    # -- write side ----------------------------------------------------------
    blocks_w = _expand(lb_w, nb_w)
    cw = np.bincount(
        _data_disks(config, layout, blocks_w), minlength=ndisks
    ).astype(np.float64)
    if mirror:
        cw = cw + cw[np.arange(ndisks) ^ 1]  # both members written
    m_w = _disk_span(config, layout, lb_w, nb_w)
    w_write = _weights(cw)
    nb_w_mean, nb_w_second = _moments(nb_w)
    data_kind = "rmw" if parity else "write"

    cp = np.zeros(ndisks)
    g_w = np.zeros(0, dtype=np.int64)
    w_parity = np.full(ndisks, 1.0 / ndisks)
    if parity and len(lb_w):
        cp = np.bincount(
            _parity_disks(config, layout, blocks_w), minlength=ndisks
        ).astype(np.float64)
        g_w = _parity_span(config, lb_w, nb_w, m_w)
        w_parity = _weights(cp)

    if len(lb_w) and stats is None:
        runs_w = float(m_w.sum()) * (2.0 if mirror else 1.0)
        load.classes.append(
            DiskClass(
                data_kind,
                _rates(cw, runs_w, duration),
                nb_w_mean / max(float(m_w.mean()), 1.0),
                nb_w_second / max(float(m_w.mean()), 1.0) ** 2,
            )
        )
        if parity:
            g_mean = max(float(g_w.mean()), 1.0)
            load.classes.append(
                DiskClass(
                    "rmw",
                    _rates(cp, float(g_w.sum()), duration),
                    nb_w_mean / g_mean if org is Organization.PARITY_STRIPING
                    else min(nb_w_mean / g_mean, config.striping_unit),
                    nb_w_second / g_mean**2,
                )
            )

    # -- request classes ------------------------------------------------------
    for (m,), mask in _group_spans(m_r):
        size, size2 = _moments(nb_r[mask])
        per_branch = size / m
        branches = [
            Branch("read", per_branch, w_read, nearest_of_two=mirror)
            for _ in range(m)
        ]
        weight = float(mask.sum())
        if stats is not None:
            # Read hits answer from the cache: channel transfer only.
            load.requests.append(
                RequestClass(weight * stats.read_hit_ratio, False, size, [])
            )
            weight *= 1.0 - stats.read_hit_ratio
        load.requests.append(RequestClass(weight, False, size, branches))

    if stats is not None:
        # Write-behind: every write answers once the channel delivers it.
        if len(lb_w):
            load.requests.append(
                RequestClass(float(len(lb_w)), True, nb_w_mean, [])
            )
        _destage_classes(
            config, load, stats, narrays, duration, w_write, w_parity, parity, mirror
        )
    else:
        after = config.sync_policy_enum.value != "SI"
        for combo, mask in _group_spans(m_w, *((g_w,) if parity else ())):
            m = combo[0]
            size, _ = _moments(nb_w[mask])
            per_branch = size / m
            branches = [
                Branch(data_kind, per_branch, w_write) for _ in range(m)
            ]
            if mirror:
                branches += [
                    Branch(data_kind, per_branch, w_write) for _ in range(m)
                ]
            if parity:
                g = combo[1]
                psize = size / g if org is Organization.PARITY_STRIPING else min(
                    size / g, float(config.striping_unit)
                )
                branches += [
                    Branch("rmw", psize, w_parity, after_data=after)
                    for _ in range(g)
                ]
            load.requests.append(
                RequestClass(float(mask.sum()), True, size, branches)
            )

    # -- channel --------------------------------------------------------------
    total = len(lb)
    if total and math.isfinite(duration):
        load.channel_rate = total / duration
    load.channel_nb, load.channel_nb_second = _moments(nb)

    if stats is not None:
        load.cache_stats = stats
        load.cache_share = {
            "read_hits": _share(stats.read_hits, narrays, a),
            "read_misses": _share(stats.read_misses, narrays, a),
            "write_hits": _share(stats.write_hits, narrays, a),
            "write_misses": _share(stats.write_misses, narrays, a),
            "sync_writebacks": _share(stats.dirty_replacements, narrays, a),
            "destaged_blocks": _share(stats.destaged_blocks, narrays, a),
        }
    return load


def _destage_classes(
    config: SystemConfig,
    load: ArrayLoad,
    stats: CacheHitStats,
    narrays: int,
    duration: float,
    w_write: np.ndarray,
    w_parity: np.ndarray,
    parity: bool,
    mirror: bool,
) -> None:
    """Background disk load from the periodic destage (per array)."""
    if not math.isfinite(duration) or duration <= 0:
        return
    blocks = (stats.destaged_blocks + stats.dirty_replacements) / narrays
    if blocks <= 0:
        return
    rate = blocks / duration
    data_rate = rate * (2.0 if mirror else 1.0)
    if parity:
        # The data update is a plain write only when the old copy is
        # still cached (roughly: the write overwrote a resident block);
        # otherwise the data disk performs a read-modify-write whose
        # read supplies the parity delta.
        old_cached = stats.write_hit_ratio
        if old_cached > 0:
            load.classes.append(
                DiskClass(
                    "write", w_write * data_rate * old_cached, 1.0, 1.0,
                    background=True,
                )
            )
        if old_cached < 1:
            load.classes.append(
                DiskClass(
                    "rmw", w_write * data_rate * (1.0 - old_cached), 1.0, 1.0,
                    background=True,
                )
            )
    else:
        load.classes.append(
            DiskClass("write", w_write * data_rate, 1.0, 1.0, background=True)
        )
    if parity:
        if (
            config.organization is Organization.RAID4
            and config.parity_caching
        ):
            # Parity caching: updates are spooled to the dedicated disk
            # in cylinder order once per cycle (plain sequential writes).
            spooled = stats.spooled_parity_blocks / narrays
            if spooled > 0:
                rates = np.zeros(load.ndisks)
                rates[config.n] = spooled / duration
                load.classes.append(
                    DiskClass("write", rates, 1.0, 1.0, background=True)
                )
        else:
            load.classes.append(
                DiskClass("rmw", w_parity * rate, 1.0, 1.0, background=True)
            )
