"""Tests for the fast cache-only hit-ratio simulator."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.cache import simulate_hit_ratios
from repro.layout import Raid4Layout
from repro.sim import Organization, SystemConfig, run_trace
from repro.trace import (
    TRACE_DTYPE,
    Trace,
    generate_trace,
    slice_arrays,
    trace1_config,
    trace2_config,
)


def make_trace(rows, ndisks=4, bpd=1000):
    records = np.array(rows, dtype=TRACE_DTYPE)
    return Trace(records, ndisks, bpd)


class TestBasics:
    def test_validation(self):
        t = make_trace([(0.0, 0, 1, False)])
        with pytest.raises(ValueError, match="divisible"):
            simulate_hit_ratios(t, 3, 100)
        with pytest.raises(ValueError, match="layout"):
            simulate_hit_ratios(t, 4, 100, "raid4pc")

    def test_cold_miss_then_hit(self):
        t = make_trace([(0.0, 5, 1, False), (1.0, 5, 1, False)])
        s = simulate_hit_ratios(t, 4, 100)
        assert s.read_misses == 1
        assert s.read_hits == 1
        assert s.read_hit_ratio == 0.5

    def test_write_then_read_hits(self):
        t = make_trace([(0.0, 5, 1, True), (1.0, 5, 1, False)])
        s = simulate_hit_ratios(t, 4, 100)
        assert s.write_misses == 1
        assert s.read_hits == 1

    def test_multiblock_hit_requires_all(self):
        t = make_trace(
            [
                (0.0, 5, 1, False),
                (1.0, 5, 2, False),  # block 6 missing -> request miss
                (2.0, 5, 2, False),  # now both present -> hit
            ]
        )
        s = simulate_hit_ratios(t, 4, 100)
        assert s.read_misses == 2
        assert s.read_hits == 1

    def test_multiblock_write_hit_requires_all(self):
        t = make_trace(
            [
                (0.0, 5, 1, False),
                (1.0, 5, 2, True),  # block 6 missing -> request miss
                (2.0, 5, 2, True),  # now both present -> hit
            ]
        )
        s = simulate_hit_ratios(t, 4, 100)
        assert (s.write_hits, s.write_misses) == (1, 1)

    def test_capacity_eviction(self):
        rows = [(float(i), i, 1, False) for i in range(10)]
        rows.append((10.0, 0, 1, False))  # 0 evicted by then (cache=4)
        t = make_trace(rows)
        s = simulate_hit_ratios(t, 4, 4)
        assert s.read_hits == 0

    def test_lru_policy(self):
        rows = [
            (0.0, 0, 1, False),
            (1.0, 1, 1, False),
            (2.0, 0, 1, False),  # touch 0
            (3.0, 2, 1, False),  # evicts 1 (cache=2)
            (4.0, 0, 1, False),  # hit
            (5.0, 1, 1, False),  # miss
        ]
        s = simulate_hit_ratios(make_trace(rows), 4, 2)
        assert s.read_hits == 2  # the touch at t=2 and the hit at t=4
        assert s.read_misses == 4

    def test_per_array_caches_are_independent(self):
        # Disk 0 -> array 0; disk 2 -> array 1 (N=2).
        rows = [
            (0.0, 5, 1, False),
            (1.0, 2005, 1, False),
            (2.0, 5, 1, False),
            (3.0, 2005, 1, False),
        ]
        s = simulate_hit_ratios(make_trace(rows), 2, 100)
        assert s.read_hits == 2
        assert s.read_misses == 2


class TestDestageAndOldBlocks:
    def test_parity_mode_lowers_capacity_for_reads(self):
        """Old copies in parity mode consume slots, lowering read hits
        for a tight cache (the Fig. 11 parity-vs-plain gap)."""
        rows = []
        t = 0.0
        for rep in range(40):
            for b in range(6):
                rows.append((t, b, 1, False))
                t += 1.0
                rows.append((t, b, 1, True))
                t += 1.0
        plain = simulate_hit_ratios(make_trace(rows), 4, 8, "plain", destage_period_ms=1e9)
        parity = simulate_hit_ratios(make_trace(rows), 4, 8, "parity", destage_period_ms=1e9)
        assert parity.read_hit_ratio <= plain.read_hit_ratio

    def test_destage_cleans_dirty(self):
        rows = [(0.0, 5, 1, True), (2000.0, 6, 1, False)]
        s = simulate_hit_ratios(make_trace(rows), 4, 100, destage_period_ms=1000.0)
        assert s.destage_cycles >= 1

    def test_dirty_replacement_counted(self):
        # Tiny cache, writes only, no destage -> dirty head replaced.
        rows = [(float(i), i, 1, True) for i in range(10)]
        s = simulate_hit_ratios(make_trace(rows), 4, 2, destage_period_ms=1e9)
        assert s.dirty_replacements > 0

    def test_raid4pc_mode_runs(self):
        layout = Raid4Layout(4, 1000, striping_unit=1)
        rows = [(float(i) * 100, i % 50, 1, i % 3 == 0) for i in range(200)]
        s = simulate_hit_ratios(
            make_trace(rows), 4, 64, "raid4pc", destage_period_ms=1000.0, layout=layout
        )
        assert s.read_hits + s.read_misses > 0

    def test_raid4pc_hit_ratio_not_higher_than_parity(self):
        """Buffered parity occupies slots: RAID4-PC read hit ratio must
        not exceed the plain parity organization's (Fig. 15)."""
        rng = np.random.default_rng(5)
        rows = []
        t = 0.0
        hot = rng.integers(0, 500, size=3000)
        for i, b in enumerate(hot):
            t += 50.0
            rows.append((t, int(b), 1, bool(rng.random() < 0.4)))
        layout = Raid4Layout(4, 1000, striping_unit=1)
        par = simulate_hit_ratios(make_trace(rows), 4, 128, "parity")
        pc = simulate_hit_ratios(
            make_trace(rows), 4, 128, "raid4pc", layout=layout
        )
        assert pc.read_hit_ratio <= par.read_hit_ratio + 0.01


class TestArraySpanningRequests:
    """A request crossing an array boundary is split the way the DES's
    ``ArraySystem.split`` splits it: each part is one request-level hit
    or miss in its own array's cache."""

    BPD = 1000

    def _compare(self, rows):
        trace = make_trace(rows, ndisks=4, bpd=self.BPD)
        cfg = SystemConfig(
            organization=Organization.BASE,
            n=2,
            cached=True,
            cache_mb=1,
            blocks_per_disk=self.BPD,
        )
        des = run_trace(cfg, trace, warmup_fraction=0.0)
        fast = simulate_hit_ratios(
            trace, 2, cfg.cache_blocks, destage_period_ms=cfg.destage_period_ms
        )

        def total(field):
            return sum(getattr(a, field) for a in des.arrays)

        fields = ("read_hits", "read_misses", "write_hits", "write_misses")
        assert tuple(getattr(fast, f) for f in fields) == tuple(map(total, fields))
        return fast

    def test_read_parts_hit_in_their_own_caches(self):
        edge = 2 * self.BPD  # first block of array 1
        fast = self._compare(
            [
                (0.0, edge - 1, 2, False),
                (1000.0, edge, 1, False),
                (2000.0, edge - 1, 1, False),
            ]
        )
        assert (fast.read_hits, fast.read_misses) == (2, 2)

    def test_write_parts_hit_in_their_own_caches(self):
        edge = 2 * self.BPD
        fast = self._compare(
            [
                (0.0, edge - 1, 2, False),
                (1000.0, edge - 1, 2, True),
            ]
        )
        assert (fast.write_hits, fast.write_misses) == (2, 0)


@pytest.fixture(scope="module")
def pinned_traces():
    return {
        "t2": generate_trace(trace2_config(0.05)),
        "t1": slice_arrays(generate_trace(trace1_config(0.02)), 0, 20),
    }


#: Every CacheHitStats field, in declaration order: read_hits,
#: read_misses, write_hits, write_misses, dirty_replacements,
#: destage_cycles, destaged_blocks, spooled_parity_blocks.
PINNED = {
    ("t2", "plain", 64): (116, 2389, 47, 925, 424, 348, 1750, 0),
    ("t2", "plain", 1024): (207, 2298, 244, 728, 0, 348, 2173, 0),
    ("t2", "parity", 64): (114, 2391, 47, 925, 425, 348, 1749, 0),
    ("t2", "parity", 1024): (207, 2298, 244, 728, 0, 348, 2173, 0),
    ("t2", "raid4pc", 64): (114, 2391, 47, 925, 429, 348, 1745, 118),
    ("t2", "raid4pc", 1024): (207, 2298, 243, 729, 0, 348, 2173, 475),
    ("t1", "plain", 64): (272, 10122, 764, 396, 75, 216, 1411, 0),
    ("t1", "plain", 1024): (705, 9689, 1094, 66, 0, 216, 1486, 0),
    ("t1", "parity", 64): (272, 10122, 758, 402, 85, 216, 1401, 0),
    ("t1", "parity", 1024): (705, 9689, 1094, 66, 0, 216, 1486, 0),
    ("t1", "raid4pc", 64): (268, 10126, 741, 419, 95, 216, 1391, 846),
    ("t1", "raid4pc", 1024): (705, 9689, 1094, 66, 0, 216, 1486, 1043),
}


class TestPinnedCounters:
    """Exact counters on seeded Trace-2 and Trace-1 workloads (two
    arrays of N=10 for the Trace-1 slice), so a speed-up of the replay
    loop cannot move a single cache decision."""

    @pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
    def test_counters(self, pinned_traces, key):
        name, mode, cache_blocks = key
        trace = pinned_traces[name]
        layout = None
        if mode == "raid4pc":
            layout = Raid4Layout(10, trace.blocks_per_disk, striping_unit=1)
        stats = simulate_hit_ratios(trace, 10, cache_blocks, mode, layout=layout)
        assert astuple(stats) == PINNED[key]
