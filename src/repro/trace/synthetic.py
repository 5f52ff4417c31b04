"""Calibrated synthetic OLTP trace generation.

The paper's IBM DB2 customer traces are proprietary; this generator
produces traces that reproduce the workload *shape* the paper reports,
each aspect controlled by an explicit knob:

===============================  ==========================================
Paper observation                 Generator mechanism
===============================  ==========================================
95–98% single-block requests      ``multiblock_fraction`` (sizes geometric)
10% / 28% writes                  ``write_fraction``
skewed per-disk access counts     Zipf-weighted disk choice (``disk_zipf``)
(Fig. 6)                          with a seeded permutation
within-disk locality /            per-disk hot region (``hot_spot_*``) and
seek affinity                     sequential run continuation
temporal locality (cache hits,    re-reference of an LRU-ish history with
Fig. 11 curves)                   lognormal stack distances (``rehit_*``)
write hit ratio ≈ 1 (Trace 1,     writes re-address recently *read* blocks
"read by the transaction          (``write_after_read_prob``) — the DB2
before being updated")            read-before-write pattern
bursty transaction arrivals       2-state modulated Poisson process
                                  (``burst_*``)
===============================  ==========================================

Presets :func:`trace1_config` and :func:`trace2_config` are calibrated
against Table 2 and the qualitative skew/locality descriptions in §3.1.

Every random stream is drawn up front as an array, one value per
request, and :func:`_fill_addresses` turns the columns into addresses
with array arithmetic.  A request's choice among the mechanisms above
depends only on its own draws and on how many requests and reads came
before it, so each mechanism computes on its own rows; sequential runs
follow per-disk cursor chains, and re-references and write-after-read
copies resolve through their sources.  :func:`generate_trace` makes one
call for the whole trace and :class:`TraceStream` one per chunk, with a
:class:`_WorkloadState` carrying the cursors, the recent addresses and
the counts from chunk to chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.trace.record import TRACE_DTYPE, Trace

__all__ = [
    "SyntheticTraceConfig",
    "TraceStream",
    "generate_trace",
    "trace1_config",
    "trace2_config",
]

#: Default logical-disk size: the largest block count that fits the
#: Table-1 disk (226 800 blocks) while being divisible by every array
#: width (N+1 for N = 5, 10, 15, 20 -> 6, 11, 16, 21) and striping unit
#: (powers of two up to 64) used in the paper's experiments.
#: 221 760 = 2^6 · 3^2 · 5 · 7 · 11 blocks = 908 MB — the paper's
#: "about 0.9 GByte" database slice per disk.
DEFAULT_BLOCKS_PER_DISK = 221_760


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """All knobs of the synthetic workload.  See the module docstring."""

    name: str
    ndisks: int
    blocks_per_disk: int
    n_requests: int
    duration_ms: float
    # Request mix.
    write_fraction: float
    multiblock_fraction: float
    multiblock_mean_extra: float
    max_request_blocks: int
    # Spatial skew and locality.
    disk_zipf: float
    hot_spot_fraction: float
    hot_spot_weight: float
    sequential_prob: float
    # Temporal locality: re-references draw a lognormal stack distance
    # (median ``stack_median`` requests back, log-sd ``stack_sigma``);
    # draws beyond the available history degrade to fresh accesses, so
    # short traces simply have fewer far re-references, as real trace
    # prefixes do.
    rehit_prob: float
    rehit_window: int
    stack_median: float
    stack_sigma: float
    # Read-before-write correlation.
    write_after_read_prob: float
    recent_read_window: int
    # Arrival process.
    burst_rate_multiplier: float
    burst_fraction: float
    burst_mean_length: float
    # Update-intensive pages: short, very hot *write* runs (DB2 free
    # space maps, index roots, append areas).  These are what make fine
    # striping units attractive — at a large unit a whole hot run lands
    # on one disk (and one parity disk) and queues there.
    hot_write_runs: int = 0
    hot_write_run_blocks: int = 16
    hot_write_weight: float = 0.0
    # Per-VA address-space targeting (Heterogeneous Disk Arrays): the
    # logical disks are partitioned into Virtual Arrays of ``va_disks``
    # consecutive disks each, accesses split across VAs by
    # ``va_weights`` (default: proportional to size), and writes are
    # additionally skewed toward the hottest VAs by ``va_write_skew``
    # (>1 concentrates small writes on the mirrored hot VA, <1 spreads
    # them; 1 = writes follow reads).  Empty ``va_disks`` = legacy
    # behaviour, bit-identical.
    va_disks: tuple = ()
    va_weights: tuple = ()
    va_write_skew: float = 1.0
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.ndisks < 1 or self.blocks_per_disk < 1 or self.n_requests < 1:
            raise ValueError("ndisks, blocks_per_disk and n_requests must be positive")
        if not isinstance(self.va_disks, tuple):
            object.__setattr__(self, "va_disks", tuple(self.va_disks))
        if not isinstance(self.va_weights, tuple):
            object.__setattr__(self, "va_weights", tuple(self.va_weights))
        if self.va_disks:
            if any(int(d) < 1 for d in self.va_disks):
                raise ValueError("va_disks entries must be >= 1")
            if sum(self.va_disks) != self.ndisks:
                raise ValueError(
                    f"va_disks {self.va_disks} must sum to ndisks={self.ndisks}"
                )
            if self.va_weights and len(self.va_weights) != len(self.va_disks):
                raise ValueError("va_weights must match va_disks in length")
            if any(w <= 0 for w in self.va_weights):
                raise ValueError("va_weights must be positive")
            if self.va_write_skew <= 0:
                raise ValueError("va_write_skew must be positive")
        elif self.va_weights:
            raise ValueError("va_weights requires va_disks")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        for f in (
            "write_fraction",
            "multiblock_fraction",
            "hot_spot_weight",
            "sequential_prob",
            "rehit_prob",
            "write_after_read_prob",
        ):
            v = getattr(self, f)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f} must be in [0, 1], got {v}")
        if not 0.0 < self.hot_spot_fraction <= 1.0:
            raise ValueError("hot_spot_fraction must be in (0, 1]")
        if self.max_request_blocks < 1:
            raise ValueError("max_request_blocks must be >= 1")
        if self.rehit_window < 1 or self.recent_read_window < 1:
            raise ValueError("rehit_window and recent_read_window must be >= 1")
        if self.burst_rate_multiplier < 1.0:
            raise ValueError("burst_rate_multiplier must be >= 1")
        if not 0.0 <= self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in [0, 1)")
        if not math.isfinite(self.burst_mean_length):
            raise ValueError(
                f"burst_mean_length must be finite, got {self.burst_mean_length}"
            )
        f = self.burst_fraction
        if f > 0.0 and not math.isfinite(self.burst_mean_length * (1.0 - f) / f):
            raise ValueError(
                f"burst_fraction {f} is too small: the normal-episode mean "
                f"burst_mean_length*(1-f)/f is not finite"
            )
        if not 0.0 <= self.hot_write_weight <= 1.0:
            raise ValueError("hot_write_weight must be in [0, 1]")
        if self.hot_write_runs < 0 or self.hot_write_run_blocks < 1:
            raise ValueError("invalid hot write run shape")

    def scaled(self, scale: float) -> "SyntheticTraceConfig":
        """Shrink/grow the trace while preserving the arrival rate.

        ``scale`` multiplies both the request count and the duration, so
        per-disk load is unchanged — a cheap way to make experiment runs
        tractable without altering queueing behaviour.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return replace(
            self,
            n_requests=max(1, int(round(self.n_requests * scale))),
            duration_ms=self.duration_ms * scale,
            name=f"{self.name}" if scale == 1.0 else f"{self.name}@{scale:g}x",
        )


def trace1_config(scale: float = 1.0) -> SyntheticTraceConfig:
    """Trace-1-like workload (Table 2, left column).

    3.36 M requests over 130 data disks in 3 h 3 min; 10% writes; 98%
    single-block; moderate skew; high temporal locality with small
    working sets; writes nearly always to freshly read blocks.
    """
    return SyntheticTraceConfig(
        name="trace1",
        ndisks=130,
        blocks_per_disk=DEFAULT_BLOCKS_PER_DISK,
        n_requests=3_362_505,
        duration_ms=(3 * 3600 + 3 * 60) * 1000.0,
        write_fraction=0.1003,
        multiblock_fraction=0.0213,
        multiblock_mean_extra=15.4,
        max_request_blocks=64,
        disk_zipf=0.42,
        hot_spot_fraction=0.015,
        hot_spot_weight=0.38,
        sequential_prob=0.16,
        rehit_prob=0.60,
        rehit_window=1_200_000,
        stack_median=150_000.0,
        stack_sigma=1.4,
        write_after_read_prob=0.96,
        recent_read_window=800,
        burst_rate_multiplier=10.0,
        burst_fraction=0.35,
        burst_mean_length=100.0,
        seed=19931,
    ).scaled(scale)


def trace2_config(scale: float = 1.0) -> SyntheticTraceConfig:
    """Trace-2-like workload (Table 2, right column).

    69.5 k requests over 10 data disks in 1 h 40 min; 28% writes; 95%
    single-block; strong disk skew; weaker locality with large working
    sets (the ad-hoc query component the paper mentions).
    """
    return SyntheticTraceConfig(
        name="trace2",
        ndisks=10,
        blocks_per_disk=DEFAULT_BLOCKS_PER_DISK,
        n_requests=69_539,
        duration_ms=(1 * 3600 + 40 * 60) * 1000.0,
        write_fraction=0.2826,
        multiblock_fraction=0.0593,
        multiblock_mean_extra=17.7,
        max_request_blocks=64,
        disk_zipf=1.15,
        hot_spot_fraction=0.04,
        hot_spot_weight=0.22,
        sequential_prob=0.10,
        rehit_prob=0.50,
        rehit_window=80_000,
        stack_median=22_000.0,
        stack_sigma=1.1,
        write_after_read_prob=0.55,
        recent_read_window=2_500,
        burst_rate_multiplier=18.0,
        burst_fraction=0.40,
        burst_mean_length=100.0,
        seed=19932,
    ).scaled(scale)


# ---------------------------------------------------------------------------


def _arrival_times(cfg: SyntheticTraceConfig, rng: np.random.Generator) -> np.ndarray:
    """Bursty arrivals: a 2-state (normal/burst) modulated Poisson process.

    A ``burst_fraction`` of requests arrive during burst episodes whose
    rate is ``burst_rate_multiplier`` × the long-run average; episode
    lengths are geometric with mean ``burst_mean_length`` requests.  The
    overall mean interarrival matches ``duration / n_requests``.
    """
    n = cfg.n_requests
    mean_iat = cfg.duration_ms / n
    f, m = cfg.burst_fraction, cfg.burst_rate_multiplier

    if f <= 0.0 or m == 1.0:
        iat = rng.exponential(mean_iat, size=n)
        return np.cumsum(iat)

    # Per-state mean interarrival, preserving the global mean:
    # f * mu_b + (1 - f) * mu_n = mean_iat with mu_b = mean_iat / m.
    mu_b = mean_iat / m
    mu_n = mean_iat * (1.0 - f / m) / (1.0 - f)

    burst_flags = np.empty(n, dtype=bool)
    pos = 0
    in_burst = False
    normal_mean = cfg.burst_mean_length * (1.0 - f) / f
    while pos < n:
        mean_len = cfg.burst_mean_length if in_burst else normal_mean
        length = 1 + rng.geometric(1.0 / max(mean_len, 1.0))
        end = min(pos + length, n)
        burst_flags[pos:end] = in_burst
        pos = end
        in_burst = not in_burst

    iat = rng.exponential(1.0, size=n)
    iat *= np.where(burst_flags, mu_b, mu_n)
    return np.cumsum(iat)


def _request_sizes(
    cfg: SyntheticTraceConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Single-block mostly; multi-block sizes 1 + geometric, clamped."""
    sizes = np.ones(n, dtype=np.int32)
    multi = rng.random(n) < cfg.multiblock_fraction
    count = int(multi.sum())
    if count:
        extra = rng.geometric(1.0 / cfg.multiblock_mean_extra, size=count)
        sizes[multi] = 1 + np.minimum(extra, cfg.max_request_blocks - 1)
    return sizes


def _disk_cdf(cfg: SyntheticTraceConfig, rng: np.random.Generator) -> np.ndarray:
    """Zipf-weighted disk popularity, randomly permuted across disks."""
    ranks = np.arange(1, cfg.ndisks + 1, dtype=np.float64)
    weights = ranks ** (-cfg.disk_zipf)
    rng.shuffle(weights)
    return np.cumsum(weights / weights.sum())


def _va_disk_cdfs(
    cfg: SyntheticTraceConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-VA targeted disk popularity: (read CDF, write CDF).

    Each VA's slice of logical disks gets its own permuted Zipf profile
    (the intra-VA skew of the legacy generator); the VA-level split
    follows ``va_weights`` for reads and ``va_weights ** va_write_skew``
    (renormalized) for writes — the hot/cold knob that concentrates
    small writes on the mirrored VA.
    """
    weights = np.array(
        cfg.va_weights if cfg.va_weights else cfg.va_disks, dtype=np.float64
    )
    read_share = weights / weights.sum()
    skewed = read_share ** cfg.va_write_skew
    write_share = skewed / skewed.sum()
    per_va = []
    for nv in cfg.va_disks:
        ranks = np.arange(1, int(nv) + 1, dtype=np.float64)
        zipf = ranks ** (-cfg.disk_zipf)
        rng.shuffle(zipf)
        per_va.append(zipf / zipf.sum())
    read_p = np.concatenate([s * p for s, p in zip(read_share, per_va)])
    write_p = np.concatenate([s * p for s, p in zip(write_share, per_va)])
    return np.cumsum(read_p), np.cumsum(write_p)


class _WorkloadState:
    """Generator state carried from one chunk of requests to the next.

    Per-disk hot-region origins and sequential cursors, the
    update-intensive run origins, the counts of requests and of reads
    generated so far, and two rings of past addresses: request ``g``'s
    address sits in slot ``g % len(history)`` and the address of read
    ``k`` (counting reads only) in slot ``k % len(recent_reads)``, so
    the rings hold the last ``rehit_window`` addresses and the last
    ``recent_read_window`` reads (a trace shorter than a window sizes
    its ring to the trace).  The arrival clock and the burst-episode
    position are the streaming path's own carry.  The full-trace and
    streaming paths share this state and :func:`_fill_addresses`, so
    their address arithmetic is the same code.
    """

    __slots__ = (
        "hot_size",
        "hot_start",
        "cursors",
        "hw_origins",
        "requests",
        "reads",
        "history",
        "recent_reads",
        "t_last",
        "in_burst",
        "burst_left",
    )

    def __init__(
        self,
        cfg: SyntheticTraceConfig,
        hot_start: np.ndarray,
        cursors: np.ndarray,
        hw_origins: np.ndarray,
    ) -> None:
        bpd = cfg.blocks_per_disk
        self.hot_size = max(1, int(bpd * cfg.hot_spot_fraction))
        self.hot_start = hot_start
        self.cursors = cursors
        self.hw_origins = hw_origins
        self.requests = 0
        self.reads = 0
        self.history = np.empty(min(cfg.rehit_window, cfg.n_requests), np.int64)
        self.recent_reads = np.empty(
            min(cfg.recent_read_window, cfg.n_requests), np.int64
        )
        # Arrival-process carry (used by the streaming path only).
        self.t_last = 0.0
        self.in_burst = False
        self.burst_left = 0

    @classmethod
    def draw(cls, cfg: SyntheticTraceConfig, rng: np.random.Generator) -> "_WorkloadState":
        """Draw the per-disk state the way :func:`generate_trace` does."""
        bpd = cfg.blocks_per_disk
        hot_size = max(1, int(bpd * cfg.hot_spot_fraction))
        hot_start = (rng.random(cfg.ndisks) * (bpd - hot_size)).astype(np.int64)
        cursors = (rng.random(cfg.ndisks) * bpd).astype(np.int64)
        hw_origins = np.zeros(0, dtype=np.int64)
        if cfg.hot_write_runs:
            span = cfg.ndisks * bpd - cfg.hot_write_run_blocks
            hw_origins = (rng.random(cfg.hot_write_runs) * span).astype(np.int64)
        return cls(cfg, hot_start, cursors, hw_origins)


def _ring_store(ring: np.ndarray, start: int, values: np.ndarray) -> None:
    """Write ``values[i]`` to slot ``(start + i) % len(ring)``; when
    *values* outnumber the slots, only its last ``len(ring)`` land."""
    size = len(ring)
    if len(values) > size:
        start += len(values) - size
        values = values[-size:]
    head = start % size
    first = min(size - head, len(values))
    ring[head : head + first] = values[:first]
    ring[: len(values) - first] = values[first:]


def _fill_addresses(
    cfg: SyntheticTraceConfig,
    state: _WorkloadState,
    sizes: np.ndarray,
    is_write: np.ndarray,
    u_mode: np.ndarray,
    u_hot: np.ndarray,
    u_pos: np.ndarray,
    u_war: np.ndarray,
    u_hw: np.ndarray,
    pick: np.ndarray,
    stack: np.ndarray,
    disks: np.ndarray,
) -> np.ndarray:
    """One logical address per request, given the pre-drawn random
    columns, advancing *state* past them.

    Each request takes the first of five branches whose test passes:
    an update-intensive hot-write run, a write-after-read copy of a
    recent read, a re-reference copy of the request a lognormal stack
    distance back, a sequential continuation of its disk's cursor, or
    a fresh hot-spot or uniform address.  Every test reads only the
    request's own columns and two counts known in advance (requests and
    reads before it), so the branches are boolean masks and each
    computes on its own rows.  Every float product and float-to-int
    truncation is the one a per-request Python computation makes, on
    the same IEEE doubles, so the addresses equal the per-request
    reference in ``tests/trace/test_address_reference.py`` bit for bit.
    """
    n = len(sizes)
    bpd = cfg.blocks_per_disk
    g0, r0 = state.requests, state.reads
    single = sizes == 1
    is_read = ~is_write
    read_rows = np.flatnonzero(is_read)
    reads_before = np.cumsum(is_read) - is_read + r0

    hw = is_write & single & (u_hw < cfg.hot_write_weight)
    hw &= len(state.hw_origins) > 0
    war = is_write & single & ~hw & (u_war < cfg.write_after_read_prob)
    war &= reads_before > 0
    # stack >= 0, so ``stack < min(g, window)`` also says the history is
    # not empty, and it equals ``int(stack) < min(g, window)`` without
    # converting a draw too large for an integer.
    history_len = np.minimum(np.arange(g0, g0 + n), cfg.rehit_window)
    rehit = single & ~(hw | war) & (u_mode < cfg.rehit_prob) & (stack < history_len)
    fresh = ~(hw | war | rehit)
    seq = fresh & single & (u_mode < cfg.rehit_prob + cfg.sequential_prob)
    hot = fresh & ~seq & (u_hot < cfg.hot_spot_weight)
    uniform = fresh & ~seq & ~hot

    addr = np.empty(n, np.int64)
    rows = np.flatnonzero(hw)
    n_hw = len(state.hw_origins)
    run = (u_hw[rows] / cfg.hot_write_weight * n_hw).astype(np.int64)
    offset = (u_pos[rows] * cfg.hot_write_run_blocks).astype(np.int64)
    addr[rows] = state.hw_origins[np.minimum(run, n_hw - 1)] + offset
    rows = np.flatnonzero(hot)
    d = disks[rows]
    offset = (u_pos[rows] * state.hot_size).astype(np.int64)
    addr[rows] = d * bpd + state.hot_start[d] + offset
    rows = np.flatnonzero(uniform)
    addr[rows] = disks[rows] * bpd + (u_pos[rows] * bpd).astype(np.int64)

    # Sequential continuation: each disk's cursor steps by one per
    # sequential request and restarts at each uniform address.  Sorted
    # stably by disk, the cursor events form one segment per restart,
    # plus one per disk for the steps before its first restart, which
    # continue the carried cursor.
    rows = np.flatnonzero(seq | uniform)
    if rows.size:
        rows = rows[np.argsort(disks[rows], kind="stable")]
        d = disks[rows]
        restart = uniform[rows]
        new_disk = np.ones(len(rows), bool)
        new_disk[1:] = d[1:] != d[:-1]
        head = restart | new_disk
        heads = np.flatnonzero(head)
        head_of = np.cumsum(head) - 1
        origin = np.where(
            restart[heads], addr[rows[heads]] - d[heads] * bpd, state.cursors[d[heads]] + 1
        )
        cursor = (origin[head_of] + np.arange(len(rows)) - heads[head_of]) % bpd
        step = ~restart
        addr[rows[step]] = d[step] * bpd + cursor[step]
        last = np.flatnonzero(np.append(new_disk[1:], True))
        state.cursors[d[last]] = cursor[last]

    # Clamp so the request stays inside its logical disk: only fresh
    # requests span several blocks, and a one-block request always fits.
    rows = np.flatnonzero(~single)
    a = addr[rows]
    addr[rows] = np.minimum(a, (a // bpd + 1) * bpd - sizes[rows])

    # Copies.  ``src`` is the row a copy takes its address from, or -1
    # once the address is known; a source before this chunk is read from
    # the rings.
    src = np.full(n, -1, np.int64)
    rows = np.flatnonzero(rehit)
    source = g0 + rows - 1 - stack[rows].astype(np.int64)
    carried = source < g0
    addr[rows[carried]] = state.history[source[carried] % len(state.history)]
    src[rows[~carried]] = source[~carried] - g0
    # A write-after-read copies the read in ring slot p; once the ring
    # has wrapped, slot p holds the latest read whose ordinal is p
    # modulo the window.
    rows = np.flatnonzero(war)
    before = reads_before[rows]
    window = cfg.recent_read_window
    p = (pick[rows] * np.minimum(before, window)).astype(np.int64)
    ordinal = p + window * ((before - 1 - p) // window)
    carried = ordinal < r0
    addr[rows[carried]] = state.recent_reads[ordinal[carried] % len(state.recent_reads)]
    src[rows[~carried]] = read_rows[ordinal[~carried] - r0]
    # Pointer doubling: a copy of a copy follows its source's pointer,
    # so a chain of length L resolves in log2(L) rounds.
    rows = np.flatnonzero(src >= 0)
    while rows.size:
        s = src[rows]
        addr[rows] = addr[s]
        src[rows] = src[s]
        rows = rows[src[rows] >= 0]

    _ring_store(state.history, g0, addr)
    _ring_store(state.recent_reads, r0, addr[read_rows])
    state.requests += n
    state.reads += len(read_rows)
    return addr


def generate_trace(cfg: SyntheticTraceConfig) -> Trace:
    """Generate a :class:`~repro.trace.record.Trace` from *cfg*.

    Deterministic for a given config (including the seed).
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_requests
    bpd = cfg.blocks_per_disk

    times = _arrival_times(cfg, rng)
    sizes = _request_sizes(cfg, rng, n)
    is_write = rng.random(n) < cfg.write_fraction
    if cfg.va_disks:
        read_cdf, write_cdf = _va_disk_cdfs(cfg, rng)
    else:
        disk_cdf = _disk_cdf(cfg, rng)

    # Pre-drawn random streams for the address computation.
    u_mode = rng.random(n)  # rehit / sequential / fresh choice
    u_disk = rng.random(n)
    u_hot = rng.random(n)
    u_pos = rng.random(n)
    u_war = rng.random(n)  # write-after-read
    # Lognormal stack distances for re-references.
    stack_mu = math.log(max(cfg.stack_median, 1.0))
    stack_draw = np.exp(rng.normal(stack_mu, cfg.stack_sigma, size=n))
    pick_idx = rng.random(n)

    # Per-disk state: hot-region origin and sequential cursor (plus the
    # update-intensive page runs), drawn in the historical order.
    state = _WorkloadState.draw(cfg, rng)
    u_hw = rng.random(n)

    if cfg.va_disks:
        disks_of = np.where(
            is_write,
            np.searchsorted(write_cdf, u_disk),
            np.searchsorted(read_cdf, u_disk),
        )
    else:
        disks_of = np.searchsorted(disk_cdf, u_disk)

    lblocks = _fill_addresses(
        cfg,
        state,
        sizes,
        is_write,
        u_mode,
        u_hot,
        u_pos,
        u_war,
        u_hw,
        pick_idx,
        stack_draw,
        disks_of,
    )

    records = np.empty(n, dtype=TRACE_DTYPE)
    records["time"] = times
    records["lblock"] = lblocks
    records["nblocks"] = sizes
    records["is_write"] = is_write
    return Trace(records, cfg.ndisks, bpd, name=cfg.name)


# ---------------------------------------------------------------------------
# Streaming generation
# ---------------------------------------------------------------------------


def _chunk_arrivals(
    cfg: SyntheticTraceConfig,
    rng: np.random.Generator,
    state: _WorkloadState,
    count: int,
) -> np.ndarray:
    """Next *count* arrival times, carrying the burst episode and clock.

    The same 2-state modulated Poisson process as :func:`_arrival_times`,
    generated incrementally: the current episode's phase and remaining
    length live in *state*, so chunk boundaries fall anywhere within an
    episode without changing the process.
    """
    mean_iat = cfg.duration_ms / cfg.n_requests
    f, m = cfg.burst_fraction, cfg.burst_rate_multiplier

    iat = rng.exponential(1.0, size=count)
    if f <= 0.0 or m == 1.0:
        iat *= mean_iat
    else:
        mu_b = mean_iat / m
        mu_n = mean_iat * (1.0 - f / m) / (1.0 - f)
        flags = np.empty(count, dtype=bool)
        normal_mean = cfg.burst_mean_length * (1.0 - f) / f
        pos = 0
        while pos < count:
            if state.burst_left == 0:
                mean_len = cfg.burst_mean_length if state.in_burst else normal_mean
                state.burst_left = 1 + rng.geometric(1.0 / max(mean_len, 1.0))
            take = min(state.burst_left, count - pos)
            flags[pos : pos + take] = state.in_burst
            state.burst_left -= take
            pos += take
            if state.burst_left == 0:
                state.in_burst = not state.in_burst
        iat *= np.where(flags, mu_b, mu_n)

    times = state.t_last + np.cumsum(iat)
    state.t_last = float(times[-1])
    return times


class TraceStream:
    """Chunked synthetic trace source with O(chunk) resident memory.

    Yields the workload as a sequence of :data:`TRACE_DTYPE` record
    arrays instead of materializing all ``n_requests`` at once, so
    multi-million-request campaigns run in bounded memory.  A consumer
    that pulls a chunk when it runs out of requests (``run_trace``
    does) generates it there, between two requests: generation and
    simulation take turns, they do not overlap.

    Determinism: a stream is bit-for-bit reproducible for a given
    ``(config, chunk_requests)`` pair, and :meth:`chunks` is
    re-iterable — every iteration restarts the generator from the seed
    and produces identical records.  The random streams are drawn
    per-chunk, so the request sequence is a *different* (equally
    calibrated) realization than :func:`generate_trace`'s whole-trace
    draw order — use one source or the other for a given experiment,
    not both.  :meth:`materialize` builds the equivalent
    :class:`~repro.trace.record.Trace` (O(n) memory, for tests and
    cross-checks); a simulation fed the stream and one fed that
    materialization see identical requests.
    """

    def __init__(self, config: SyntheticTraceConfig, chunk_requests: int = 65536) -> None:
        if chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        self.config = config
        self.chunk_requests = int(chunk_requests)
        self.name = config.name
        self.ndisks = config.ndisks
        self.blocks_per_disk = config.blocks_per_disk
        self.n_requests = config.n_requests
        #: Nominal workload duration (the arrival process targets it;
        #: the realized last arrival differs by sampling noise).
        self.duration_ms = config.duration_ms

    def __len__(self) -> int:
        return self.n_requests

    def chunks(self):
        """Yield :data:`TRACE_DTYPE` record arrays of ``chunk_requests``
        rows (the last one shorter), restarting from the seed."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        if cfg.va_disks:
            read_cdf, write_cdf = _va_disk_cdfs(cfg, rng)
        else:
            read_cdf, write_cdf = _disk_cdf(cfg, rng), None
        state = _WorkloadState.draw(cfg, rng)

        stack_mu = math.log(max(cfg.stack_median, 1.0))
        remaining = cfg.n_requests
        while remaining > 0:
            count = min(self.chunk_requests, remaining)
            remaining -= count

            times = _chunk_arrivals(cfg, rng, state, count)
            sizes = _request_sizes(cfg, rng, count)
            is_write = rng.random(count) < cfg.write_fraction
            u_mode = rng.random(count)
            u_disk = rng.random(count)
            u_hot = rng.random(count)
            u_pos = rng.random(count)
            u_war = rng.random(count)
            stack_draw = np.exp(rng.normal(stack_mu, cfg.stack_sigma, size=count))
            pick_idx = rng.random(count)
            u_hw = rng.random(count)

            if write_cdf is not None:
                disks_of = np.where(
                    is_write,
                    np.searchsorted(write_cdf, u_disk),
                    np.searchsorted(read_cdf, u_disk),
                )
            else:
                disks_of = np.searchsorted(read_cdf, u_disk)

            lblocks = _fill_addresses(
                cfg,
                state,
                sizes,
                is_write,
                u_mode,
                u_hot,
                u_pos,
                u_war,
                u_hw,
                pick_idx,
                stack_draw,
                disks_of,
            )

            records = np.empty(count, dtype=TRACE_DTYPE)
            records["time"] = times
            records["lblock"] = lblocks
            records["nblocks"] = sizes
            records["is_write"] = is_write
            yield records

    def materialize(self) -> Trace:
        """Concatenate all chunks into a :class:`~repro.trace.record.Trace`.

        O(n) memory — defeats the point of streaming; exists so tests
        can prove stream-fed and array-fed runs are bit-identical.
        """
        records = np.concatenate(list(self.chunks()))
        return Trace(
            records, self.ndisks, self.blocks_per_disk, name=self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TraceStream {self.name!r}: {self.n_requests} requests "
            f"in chunks of {self.chunk_requests}>"
        )
