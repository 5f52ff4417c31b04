"""Property-based end-to-end tests of the full simulator.

Random small workloads against random configurations must always
complete, conserve requests, produce physically sensible times, and be
bit-for-bit reproducible.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk import DiskGeometry, SeekModel
from repro.models.gray import ZeroLoadModel
from repro.sim import Organization, SystemConfig, run_trace
from repro.trace import TRACE_DTYPE, Trace

BPD = 2640
CHAN_MS = 4096 / 10000.0

workload_st = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=50.0),  # interarrival
        st.integers(min_value=0, max_value=4 * BPD - 8),  # lblock
        st.integers(min_value=1, max_value=8),  # nblocks
        st.booleans(),  # write?
    ),
    min_size=1,
    max_size=60,
)

org_st = st.sampled_from(["base", "mirror", "raid5", "raid4", "parity_striping"])


def build_trace(rows):
    records = np.empty(len(rows), dtype=TRACE_DTYPE)
    t = 0.0
    for i, (gap, lb, k, w) in enumerate(rows):
        t += gap
        records["time"][i] = t
        records["lblock"][i] = min(lb, 4 * BPD - k)
        records["nblocks"][i] = k
        records["is_write"][i] = w
    return Trace(records, 4, BPD)


class TestEndToEndProperties:
    @given(workload_st, org_st, st.booleans())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_all_requests_complete_with_sane_times(self, rows, org, cached):
        trace = build_trace(rows)
        cfg = SystemConfig(
            organization=Organization.parse(org),
            n=4,
            blocks_per_disk=BPD,
            cached=cached,
            cache_mb=1.0,
            destage_period_ms=200.0,
        )
        res = run_trace(cfg, trace, warmup_fraction=0.0)
        # Conservation: every request measured exactly once.
        assert res.response.count == len(trace)
        # Response times are bounded below by the channel transfer and
        # are finite.
        assert res.response.min >= CHAN_MS * 0.99
        assert np.isfinite(res.mean_response_ms)

    @given(workload_st, org_st)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_deterministic_repetition(self, rows, org):
        trace = build_trace(rows)
        cfg = SystemConfig(
            organization=Organization.parse(org), n=4, blocks_per_disk=BPD
        )
        a = run_trace(cfg, trace)
        b = run_trace(cfg, trace)
        assert a.mean_response_ms == b.mean_response_ms
        assert list(a.per_disk_accesses) == list(b.per_disk_accesses)

    @given(workload_st)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_uncached_reads_bounded_below_by_physics(self, rows):
        """No read finishes faster than its transfer + channel time."""
        trace = build_trace([(g, lb, 1, False) for g, lb, _, _ in rows])
        cfg = SystemConfig(
            organization=Organization.BASE, n=4, blocks_per_disk=BPD
        )
        res = run_trace(cfg, trace, warmup_fraction=0.0)
        xfer = DiskGeometry().block_transfer_time
        assert res.response.min >= (xfer + CHAN_MS) * 0.99

    @given(workload_st)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_parity_write_penalty_lower_bound(self, rows):
        """Uncached RAID5 single-block updates take at least a full
        revolution beyond the channel time (the RMW penalty)."""
        writes = [(g, lb, 1, True) for g, lb, _, _ in rows]
        trace = build_trace(writes)
        cfg = SystemConfig(
            organization=Organization.RAID5, n=4, blocks_per_disk=BPD
        )
        res = run_trace(cfg, trace, warmup_fraction=0.0)
        rev = DiskGeometry().revolution_time
        assert res.write_response.min >= rev * 0.99

    @given(workload_st, st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_phase_seed_changes_only_timing(self, rows, seed):
        """Spindle phases perturb response times but never lose
        requests or change access placement."""
        trace = build_trace(rows)
        cfg = SystemConfig(
            organization=Organization.RAID5,
            n=4,
            blocks_per_disk=BPD,
            phase_seed=seed,
        )
        res = run_trace(cfg, trace, warmup_fraction=0.0)
        base = run_trace(
            replace(cfg, phase_seed=seed + 1), trace, warmup_fraction=0.0
        )
        assert res.response.count == base.response.count
        assert list(res.per_disk_accesses) == list(base.per_disk_accesses)


class TestCrossCheckAgainstModels:
    def test_idle_array_read_matches_zero_load_model(self):
        """Widely spaced random reads on the Base organization average
        to the Gray zero-load read time."""
        rng = np.random.default_rng(8)
        n = 300
        records = np.empty(n, dtype=TRACE_DTYPE)
        records["time"] = np.cumsum(rng.uniform(80.0, 120.0, n))
        records["lblock"] = rng.integers(0, 4 * BPD, n)
        records["nblocks"] = 1
        records["is_write"] = False
        trace = Trace(records, 4, BPD)
        cfg = SystemConfig(organization=Organization.BASE, n=4, blocks_per_disk=BPD)
        res = run_trace(cfg, trace, warmup_fraction=0.0)
        geo = DiskGeometry()
        sm = SeekModel.fit()
        model = ZeroLoadModel(geo, sm)
        # The database spans ~15 cylinders per disk: seek distances are
        # tiny but the settle time still applies to every arm move.
        cyls = BPD // geo.blocks_per_cylinder + 1
        dists = np.abs(
            np.subtract.outer(np.arange(cyls), np.arange(cyls))
        ).ravel()
        mean_seek = float(np.mean(sm.seek_times(dists)))
        expected = (
            mean_seek
            + model.expected_latency
            + geo.block_transfer_time
            + CHAN_MS
        )
        assert res.mean_response_ms == pytest.approx(expected, rel=0.1)
