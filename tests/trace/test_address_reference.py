"""The vectorized address core generates the per-request loop's traces.

The reference below is the generator's address loop as it was before
the address computation became array arithmetic: :class:`_WorkloadState`
with its Python-list history rings and ring positions, the loop
:func:`_fill_addresses`, and the two generators that feed it ``.tolist()``
columns, :func:`reference_generate_trace` (the whole-trace draw order)
and :func:`reference_chunks` (the streaming draw order).  They are kept
verbatim; only the generators' names changed.  The random draws are the
module's own helpers, so the two sides differ in the address
computation alone.

Hypothesis draws configurations that reach every branch of the loop and
its edges: one-disk arrays, 64-block disks that clamp multi-block
requests, history and recent-read windows down to one request so both
rings wrap, zero or several update-intensive runs (``hot_write_weight``
0 included), Virtual-Array targeting, all-read and all-write mixes, and
chunk sizes of 1, 7, 256 and the whole trace.  ``generate_trace`` and
every ``TraceStream`` chunk must equal the reference's bytes.
"""

import math
from itertools import zip_longest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.record import TRACE_DTYPE, Trace
from repro.trace.synthetic import (
    SyntheticTraceConfig,
    TraceStream,
    _arrival_times,
    _chunk_arrivals,
    _disk_cdf,
    _request_sizes,
    _va_disk_cdfs,
    generate_trace,
    trace1_config,
    trace2_config,
)

# ---------------------------------------------------------------------------
# The reference: the per-request address loop and its two generators.


class _WorkloadState:
    """Mutable generator state carried across requests (and chunks).

    Holds everything the address loop and the chunked arrival process
    thread from one request to the next: per-disk cursors and hot-region
    origins, the temporal-locality ring buffers, the arrival clock and
    the burst-episode position.  The full-trace and streaming paths share
    this state (and :func:`_fill_addresses`), so their per-request
    arithmetic is the same code.
    """

    __slots__ = (
        "hot_size",
        "hot_start",
        "cursors",
        "hw_origins",
        "history",
        "hist_pos",
        "recent_reads",
        "rr_pos",
        "t_last",
        "in_burst",
        "burst_left",
    )

    def __init__(
        self,
        cfg: SyntheticTraceConfig,
        hot_start: list,
        cursors: list,
        hw_origins: list,
    ) -> None:
        bpd = cfg.blocks_per_disk
        self.hot_size = max(1, int(bpd * cfg.hot_spot_fraction))
        self.hot_start = hot_start
        self.cursors = cursors
        self.hw_origins = hw_origins
        self.history: list[int] = []  # recent block addresses (ring buffer)
        self.hist_pos = 0
        self.recent_reads: list[int] = []
        self.rr_pos = 0
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
        return cls(cfg, hot_start.tolist(), cursors.tolist(), hw_origins.tolist())


def _fill_addresses(
    cfg: SyntheticTraceConfig,
    state: _WorkloadState,
    sizes_l: list,
    is_write_l: list,
    u_mode_l: list,
    u_hot_l: list,
    u_pos_l: list,
    u_war_l: list,
    u_hw_l: list,
    pick_l: list,
    stack_l: list,
    disks_l: list,
) -> list:
    """The address loop: one logical address per request, given the
    pre-drawn random streams, mutating *state* in place.

    Inputs are plain Python lists — a scalar ndarray index allocates a
    numpy scalar each access, which would dominate the loop's cost, and
    Python float arithmetic is the same IEEE double arithmetic as the
    numpy scalar ops it replaces, so every address is bit-identical.
    """
    n = len(sizes_l)
    bpd = cfg.blocks_per_disk
    hot_size = state.hot_size
    hot_start_l = state.hot_start
    cursors_l = state.cursors
    hw_origins_l = state.hw_origins
    n_hw = len(hw_origins_l)
    history = state.history
    hist_cap = cfg.rehit_window
    hist_pos = state.hist_pos
    recent_reads = state.recent_reads
    rr_cap = cfg.recent_read_window
    rr_pos = state.rr_pos
    lblocks = [0] * n

    rehit_p = cfg.rehit_prob
    seq_p = cfg.rehit_prob + cfg.sequential_prob
    war_p = cfg.write_after_read_prob
    hw_w = cfg.hot_write_weight
    hw_run = cfg.hot_write_run_blocks
    hot_w = cfg.hot_spot_weight

    for i in range(n):
        size = sizes_l[i]
        addr = -1

        if is_write_l[i] and size == 1 and n_hw and u_hw_l[i] < hw_w:
            # Update-intensive page: hammer a short hot run.
            run = int(u_hw_l[i] / hw_w * n_hw)
            addr = hw_origins_l[min(run, n_hw - 1)] + int(u_pos_l[i] * hw_run)
        elif (
            is_write_l[i]
            and size == 1
            and u_war_l[i] < war_p
            and recent_reads
        ):
            # DB2 pattern: update a block the transaction just read.
            addr = recent_reads[int(pick_l[i] * len(recent_reads))]
        elif (
            u_mode_l[i] < rehit_p
            and history
            and size == 1
            and int(stack_l[i]) < len(history)
        ):
            # Temporal re-reference at a lognormal stack distance;
            # history is a ring buffer and hist_pos-1 is the most recent.
            depth = int(stack_l[i])
            addr = history[(hist_pos - 1 - depth) % len(history)]
        else:
            disk = disks_l[i]
            base = disk * bpd
            if u_mode_l[i] < seq_p and size == 1:
                # Sequential continuation preserves seek affinity.
                cur = (cursors_l[disk] + 1) % bpd
                cursors_l[disk] = cur
                addr = base + cur
            elif u_hot_l[i] < hot_w:
                addr = base + hot_start_l[disk] + int(u_pos_l[i] * hot_size)
            else:
                addr = base + int(u_pos_l[i] * bpd)
                cursors_l[disk] = addr - base

        # Clamp so the request stays inside its logical disk.
        disk = addr // bpd
        limit = (disk + 1) * bpd
        if addr + size > limit:
            addr = limit - size

        lblocks[i] = addr

        # Update histories.
        if len(history) < hist_cap:
            history.append(addr)
            hist_pos = len(history) % hist_cap
        else:
            history[hist_pos] = addr
            hist_pos = (hist_pos + 1) % hist_cap
        if not is_write_l[i]:
            if len(recent_reads) < rr_cap:
                recent_reads.append(addr)
                rr_pos = len(recent_reads) % rr_cap
            else:
                recent_reads[rr_pos] = addr
                rr_pos = (rr_pos + 1) % rr_cap

    state.hist_pos = hist_pos
    state.rr_pos = rr_pos
    return lblocks


def reference_generate_trace(cfg: SyntheticTraceConfig) -> Trace:
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

    # Pre-drawn random streams for the address loop.
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
        sizes.tolist(),
        is_write.tolist(),
        u_mode.tolist(),
        u_hot.tolist(),
        u_pos.tolist(),
        u_war.tolist(),
        u_hw.tolist(),
        pick_idx.tolist(),
        stack_draw.tolist(),
        disks_of.tolist(),
    )

    records = np.empty(n, dtype=TRACE_DTYPE)
    records["time"] = times
    records["lblock"] = lblocks
    records["nblocks"] = sizes
    records["is_write"] = is_write
    return Trace(records, cfg.ndisks, bpd, name=cfg.name)


def reference_chunks(cfg: SyntheticTraceConfig, chunk_requests: int):
    """Yield :data:`TRACE_DTYPE` record arrays of ``chunk_requests``
    rows (the last one shorter), restarting from the seed."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.va_disks:
        read_cdf, write_cdf = _va_disk_cdfs(cfg, rng)
    else:
        read_cdf, write_cdf = _disk_cdf(cfg, rng), None
    state = _WorkloadState.draw(cfg, rng)

    stack_mu = math.log(max(cfg.stack_median, 1.0))
    remaining = cfg.n_requests
    while remaining > 0:
        count = min(chunk_requests, remaining)
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
            sizes.tolist(),
            is_write.tolist(),
            u_mode.tolist(),
            u_hot.tolist(),
            u_pos.tolist(),
            u_war.tolist(),
            u_hw.tolist(),
            pick_idx.tolist(),
            stack_draw.tolist(),
            disks_of.tolist(),
        )

        records = np.empty(count, dtype=TRACE_DTYPE)
        records["time"] = times
        records["lblock"] = lblocks
        records["nblocks"] = sizes
        records["is_write"] = is_write
        yield records


# ---------------------------------------------------------------------------
# The property: both generators equal the reference, byte for byte.


def _unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi, allow_subnormal=False)


def _virtual_arrays(ndisks):
    """*ndisks* split into consecutive Virtual Arrays: after each disk
    but the last, a cut or none."""
    cuts = st.lists(st.booleans(), min_size=ndisks - 1, max_size=ndisks - 1)
    return cuts.map(
        lambda cut: tuple(np.diff([0, *(np.flatnonzero(cut) + 1), ndisks]).tolist())
    )


@st.composite
def configs(draw):
    ndisks = draw(st.integers(1, 12))
    va_disks = draw(st.just(()) | _virtual_arrays(ndisks))
    va_weights = ()
    if va_disks and draw(st.booleans()):
        weights = st.lists(_unit(0.1, 5.0), min_size=len(va_disks), max_size=len(va_disks))
        va_weights = tuple(draw(weights))
    return SyntheticTraceConfig(
        name="reference",
        ndisks=ndisks,
        blocks_per_disk=draw(st.integers(64, 400) | st.sampled_from([2640, 221_760])),
        n_requests=draw(st.integers(1, 3000)),
        duration_ms=draw(_unit(1.0, 1e6)),
        write_fraction=draw(st.sampled_from([0.0, 1.0]) | _unit()),
        multiblock_fraction=draw(_unit()),
        multiblock_mean_extra=draw(_unit(1.0, 40.0)),
        max_request_blocks=draw(st.integers(1, 64)),
        disk_zipf=draw(_unit(0.0, 2.0)),
        hot_spot_fraction=draw(_unit(0.001, 1.0)),
        hot_spot_weight=draw(_unit()),
        sequential_prob=draw(_unit()),
        rehit_prob=draw(_unit()),
        rehit_window=draw(st.integers(1, 4000)),
        # Median 1 and sigma 0 make every stack distance exactly 1.0, the
        # edge of the ``int(stack) < len(history)`` guard.
        stack_median=draw(st.just(1.0) | _unit(1.0, 3000.0)),
        stack_sigma=draw(st.just(0.0) | _unit(0.0, 3.0)),
        write_after_read_prob=draw(_unit()),
        recent_read_window=draw(st.integers(1, 3000)),
        burst_rate_multiplier=draw(_unit(1.0, 20.0)),
        burst_fraction=draw(st.just(0.0) | _unit(0.05, 0.9)),
        burst_mean_length=draw(_unit(1.0, 200.0)),
        hot_write_runs=draw(st.integers(0, 5)),
        hot_write_run_blocks=draw(st.integers(1, 32)),
        hot_write_weight=draw(st.just(0.0) | _unit()),
        va_disks=va_disks,
        va_weights=va_weights,
        va_write_skew=draw(_unit(0.2, 4.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _assert_same(cfg, chunk_requests):
    got = generate_trace(cfg)
    want = reference_generate_trace(cfg)
    assert got.records.tobytes() == want.records.tobytes()
    chunks = zip_longest(
        TraceStream(cfg, chunk_requests).chunks(), reference_chunks(cfg, chunk_requests)
    )
    for k, (got, want) in enumerate(chunks):
        assert got is not None and want is not None, f"chunk {k} missing"
        assert got.tobytes() == want.tobytes(), f"chunk {k} differs"


@settings(deadline=None)
@given(cfg=configs(), chunk=st.sampled_from([1, 7, 256, None]))
def test_generated_traces_equal_the_reference(cfg, chunk):
    _assert_same(cfg, chunk or cfg.n_requests)


def test_presets_equal_the_reference():
    """Small slices of both presets: the paper's windows, one stream each."""
    for cfg in (trace1_config(0.0005), trace2_config(0.02)):
        _assert_same(cfg, 256)
