"""Tests for the synthetic trace generator: does it deliver the
workload characteristics it advertises (and the paper reports)?"""

import dataclasses

import numpy as np
import pytest

from repro.trace import (
    SyntheticTraceConfig,
    generate_trace,
    trace1_config,
    trace2_config,
)


def small_config(**overrides):
    base = dict(
        name="test",
        ndisks=8,
        blocks_per_disk=4096,
        n_requests=20_000,
        duration_ms=600_000.0,
        write_fraction=0.2,
        multiblock_fraction=0.05,
        multiblock_mean_extra=8.0,
        max_request_blocks=32,
        disk_zipf=0.8,
        hot_spot_fraction=0.05,
        hot_spot_weight=0.3,
        sequential_prob=0.1,
        rehit_prob=0.4,
        rehit_window=5_000,
        stack_median=500.0,
        stack_sigma=1.2,
        write_after_read_prob=0.7,
        recent_read_window=500,
        burst_rate_multiplier=5.0,
        burst_fraction=0.3,
        burst_mean_length=30.0,
        seed=7,
    )
    base.update(overrides)
    return SyntheticTraceConfig(**base)


#: Every float field of :class:`SyntheticTraceConfig`.
FLOAT_FIELDS = [
    "duration_ms",
    "write_fraction",
    "multiblock_fraction",
    "multiblock_mean_extra",
    "disk_zipf",
    "hot_spot_fraction",
    "hot_spot_weight",
    "sequential_prob",
    "rehit_prob",
    "stack_median",
    "stack_sigma",
    "write_after_read_prob",
    "burst_rate_multiplier",
    "burst_fraction",
    "burst_mean_length",
    "va_write_skew",
]


class TestConfigValidation:
    def test_defaults_valid(self):
        small_config()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ndisks", 0),
            ("n_requests", 0),
            ("duration_ms", 0.0),
            ("write_fraction", 1.5),
            ("multiblock_fraction", -0.1),
            ("hot_spot_fraction", 0.0),
            ("max_request_blocks", 0),
            ("rehit_window", 0),
            ("recent_read_window", 0),
            ("burst_rate_multiplier", 0.5),
            ("burst_fraction", 1.0),
            # The normal-episode mean burst_mean_length*(1-f)/f overflows.
            ("burst_fraction", 2.2e-313),
            ("burst_mean_length", float("nan")),
            ("burst_mean_length", float("inf")),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        """A config error naming the field (for the burst values, not
        numpy's "p <= 0, p > 1 or p contains NaNs" from the first
        geometric draw)."""
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_floats(self, field, value):
        """Every float knob, not only those with a range check: a NaN
        ``disk_zipf`` used to put every request on logical disk 0, and a
        NaN ``duration_ms`` failed later as "arrival times must be
        finite"."""
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_non_finite_va_weight(self, weight):
        """A NaN weight used to put every request on one disk."""
        with pytest.raises(ValueError, match="va_weights"):
            small_config(va_disks=(3, 5), va_weights=(weight, 1.0))

    @pytest.mark.parametrize(
        "field,value",
        [
            # p = 1/mean of the size draw must be in (0, 1]: numpy raised
            # "p <= 0, p > 1 or p contains NaNs", or ZeroDivisionError.
            ("multiblock_mean_extra", 0.5),
            ("multiblock_mean_extra", 0.0),
            # numpy raised "scale < 0" from the stack-distance draw.
            ("stack_sigma", -1.0),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    def test_range_edges_accepted(self):
        trace = generate_trace(
            small_config(n_requests=500, multiblock_mean_extra=1.0, stack_sigma=0.0)
        )
        assert len(trace) == 500

    def test_scaled(self):
        cfg = small_config().scaled(0.5)
        assert cfg.n_requests == 10_000
        assert cfg.duration_ms == 300_000.0
        # Arrival rate preserved.
        assert cfg.n_requests / cfg.duration_ms == pytest.approx(20_000 / 600_000.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            small_config().scaled(0)


class TestGeneratedShape:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(small_config())

    def test_request_count(self, trace):
        assert len(trace) == 20_000

    def test_deterministic(self):
        a = generate_trace(small_config())
        b = generate_trace(small_config())
        np.testing.assert_array_equal(a.records, b.records)

    def test_seed_changes_output(self):
        a = generate_trace(small_config())
        b = generate_trace(small_config(seed=8))
        assert not np.array_equal(a.records["lblock"], b.records["lblock"])

    def test_times_sorted_positive(self, trace):
        assert np.all(np.diff(trace.times) >= 0)
        assert trace.times[0] >= 0

    def test_duration_near_target(self, trace):
        assert trace.duration_ms == pytest.approx(600_000.0, rel=0.15)

    def test_write_fraction(self, trace):
        assert trace.stats().write_fraction == pytest.approx(0.2, abs=0.02)

    def test_multiblock_fraction(self, trace):
        assert 1 - trace.stats().single_block_fraction == pytest.approx(0.05, abs=0.01)

    def test_sizes_within_bounds(self, trace):
        assert trace.nblocks.min() >= 1
        assert trace.nblocks.max() <= 32

    def test_addresses_in_space(self, trace):
        assert trace.lblocks.min() >= 0
        assert (trace.lblocks + trace.nblocks).max() <= trace.logical_blocks

    def test_requests_stay_within_logical_disk(self, trace):
        start_disk = trace.lblocks // trace.blocks_per_disk
        end_disk = (trace.lblocks + trace.nblocks - 1) // trace.blocks_per_disk
        assert np.array_equal(start_disk, end_disk)

    def test_skew_present(self, trace):
        counts = trace.per_disk_access_counts()
        assert counts.max() > 2 * counts.min()

    def test_burstiness(self, trace):
        """The MMPP arrivals must be burstier than Poisson (CV > 1)."""
        iat = np.diff(trace.times)
        cv = iat.std() / iat.mean()
        assert cv > 1.2

    def test_no_bursts_gives_poisson_like(self):
        cfg = small_config(burst_fraction=0.0)
        iat = np.diff(generate_trace(cfg).times)
        assert iat.std() / iat.mean() == pytest.approx(1.0, abs=0.1)

    def test_temporal_locality_exists(self, trace):
        """Re-references must occur (same block accessed repeatedly)."""
        unique = len(np.unique(trace.lblocks))
        assert unique < len(trace) * 0.9

    def test_write_after_read(self, trace):
        """A healthy share of writes targets previously read blocks."""
        reads_seen = set()
        war = 0
        writes = 0
        for rec in trace.records:
            if rec["is_write"]:
                writes += 1
                if int(rec["lblock"]) in reads_seen:
                    war += 1
            else:
                reads_seen.add(int(rec["lblock"]))
        assert war / writes > 0.4


class TestPaperPresets:
    """The presets must reproduce Table 2 of the paper."""

    @pytest.fixture(scope="class")
    def t1(self):
        return generate_trace(trace1_config(scale=0.02))

    @pytest.fixture(scope="class")
    def t2(self):
        return generate_trace(trace2_config(scale=0.3))

    def test_trace1_shape(self, t1):
        s = t1.stats()
        assert s.ndisks == 130
        assert s.write_fraction == pytest.approx(0.10, abs=0.02)
        assert s.single_block_fraction == pytest.approx(0.98, abs=0.01)

    def test_trace2_shape(self, t2):
        s = t2.stats()
        assert s.ndisks == 10
        assert s.write_fraction == pytest.approx(0.28, abs=0.03)
        assert s.single_block_fraction == pytest.approx(0.95, abs=0.02)

    def test_trace2_more_skewed_than_trace1(self, t1, t2):
        assert t2.stats().disk_access_cv > t1.stats().disk_access_cv

    def test_full_scale_counts(self):
        assert trace1_config().n_requests == 3_362_505
        assert trace2_config().n_requests == 69_539

    def test_durations(self):
        assert trace1_config().duration_ms == pytest.approx(10_980_000.0)
        assert trace2_config().duration_ms == pytest.approx(6_000_000.0)

    def test_database_fits_table1_disk(self):
        from repro.disk import DiskGeometry

        assert trace1_config().blocks_per_disk <= DiskGeometry().total_blocks

    def test_bpd_divisible_by_array_widths(self):
        bpd = trace1_config().blocks_per_disk
        for width in (6, 11, 16, 21):  # N+1 for N = 5, 10, 15, 20
            assert bpd % width == 0
        for su in (1, 2, 4, 8, 16, 32, 64):
            assert bpd % su == 0
