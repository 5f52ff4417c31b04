"""End-to-end tests of the trace-driven runner."""

import numpy as np
import pytest

from repro.sim import Organization, SystemConfig, run_trace
from repro.trace import TRACE_DTYPE, Trace
from tests.validate.workload import make_trace as seeded_trace

BPD = 2640


def make_trace(rows, ndisks=10, bpd=BPD):
    records = np.array(rows, dtype=TRACE_DTYPE)
    return Trace(records, ndisks, bpd, name="unit")


def config(org="base", **kw):
    kw.setdefault("blocks_per_disk", BPD)
    return SystemConfig(organization=Organization.parse(org), **kw)


class TestBasics:
    def test_single_read(self):
        trace = make_trace([(0.0, 0, 1, False)])
        res = run_trace(config(), trace, warmup_fraction=0.0)
        assert res.response.count == 1
        assert res.read_response.count == 1
        assert res.write_response.count == 0
        assert res.mean_response_ms > 0

    def test_mismatched_bpd_rejected(self):
        trace = make_trace([(0.0, 0, 1, False)], bpd=100)
        with pytest.raises(ValueError, match="blocks/disk"):
            run_trace(config(), trace)

    @pytest.mark.parametrize("backend", ["des", "analytic"])
    def test_blocks_per_disk_beyond_the_disk_rejected(self, backend):
        # The stock disk holds 226,800 blocks: both backends refuse, at
        # a load the analytic model could otherwise answer.
        trace = seeded_trace(n=400, ndisks=4, bpd=300_000, rate_ms=50.0)
        with pytest.raises(
            ValueError,
            match="array 0 of raid5 needs 300000 blocks per disk, "
            "which exceeds its disk's 226800",
        ):
            run_trace(
                config("raid5", n=4, blocks_per_disk=300_000), trace, backend=backend
            )

    @pytest.mark.parametrize(
        "bad", [1.0, 1.5, -0.1, float("nan"), float("inf"), -float("inf")]
    )
    def test_bad_warmup(self, bad):
        # NaN fails both sides of the range check (comparisons with NaN
        # are false), so it must be rejected rather than slip through.
        trace = make_trace([(0.0, 0, 1, False)])
        with pytest.raises(ValueError, match="warmup_fraction"):
            run_trace(config(), trace, warmup_fraction=bad)

    def test_warmup_boundaries_accepted(self):
        trace = make_trace([(0.0, 0, 1, False)])
        assert run_trace(config(), trace, warmup_fraction=0.0).response.count == 1

    def test_checkers_require_validate(self):
        trace = make_trace([(0.0, 0, 1, False)])
        with pytest.raises(ValueError, match="validate"):
            run_trace(config(), trace, checkers=[])

    def test_validate_smoke(self):
        trace = make_trace([(0.0, 0, 1, False), (1.0, 4, 2, True)])
        res = run_trace(config("raid5"), trace, warmup_fraction=0.0, validate=True)
        assert res.response.count == 2


class TestTraceShapeValidation:
    """Malformed traces must be rejected at construction, not mid-run."""

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_trace([(0.0, 0, 1, False), (float("nan"), 1, 1, False)])

    def test_inf_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_trace([(float("inf"), 0, 1, False)])

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            make_trace([(5.0, 0, 1, False), (1.0, 1, 1, False)])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_trace([(-1.0, 0, 1, False)])

    def test_zero_nblocks_rejected(self):
        with pytest.raises(ValueError, match="nblocks"):
            make_trace([(0.0, 0, 0, False)])

    def test_out_of_range_block_rejected(self):
        with pytest.raises(ValueError, match="address space"):
            make_trace([(0.0, 10 * BPD - 1, 2, False)])  # spills past the end
        with pytest.raises(ValueError, match="address space"):
            make_trace([(0.0, -1, 1, False)])

    def test_indivisible_disks_rejected(self):
        trace = make_trace([(0.0, 0, 1, False)], ndisks=7)
        with pytest.raises(ValueError):
            run_trace(config(), trace)

    def test_warmup_excludes_early_requests(self):
        rows = [(float(i) * 100.0, i, 1, False) for i in range(10)]
        trace = make_trace(rows)
        res = run_trace(config(), trace, warmup_fraction=0.5)
        assert res.response.count < 10
        assert res.requests == 10

    def test_arrival_times_respected(self):
        rows = [(1000.0, 0, 1, False)]
        res = run_trace(config(), make_trace(rows), warmup_fraction=0.0)
        assert res.simulated_ms >= 1000.0

    def test_multiple_arrays(self):
        rows = [
            (0.0, 0, 1, False),
            (1.0, 5 * BPD + 3, 1, False),  # second array (N=5)
        ]
        res = run_trace(config(n=5), make_trace(rows), warmup_fraction=0.0)
        assert res.narrays == 2
        assert res.response.count == 2
        assert len(res.arrays) == 2
        # Each array saw exactly one access.
        assert res.arrays[0].disk_accesses.sum() == 1
        assert res.arrays[1].disk_accesses.sum() == 1

    def test_request_spanning_arrays(self):
        rows = [(0.0, 5 * BPD - 1, 2, False)]  # one block in each array
        res = run_trace(config(n=5), make_trace(rows), warmup_fraction=0.0)
        assert res.response.count == 1
        assert res.arrays[0].disk_accesses.sum() == 1
        assert res.arrays[1].disk_accesses.sum() == 1

    def test_deterministic(self):
        rows = [(float(i) * 5.0, (i * 37) % (10 * BPD), 1, i % 4 == 0) for i in range(200)]
        r1 = run_trace(config("raid5"), make_trace(rows))
        r2 = run_trace(config("raid5"), make_trace(rows))
        assert r1.mean_response_ms == r2.mean_response_ms

    def test_keep_samples_false(self):
        rows = [(0.0, 0, 1, False)]
        res = run_trace(config(), make_trace(rows), keep_samples=False)
        with pytest.raises(ValueError):
            res.p95_response_ms


class TestEmptyRun:
    """A zero-request trace runs end to end and reports NaN headlines
    instead of raising."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_trace(config(), make_trace([]))

    def test_counts(self, result):
        assert result.requests == 0
        assert result.response.count == 0
        assert result.simulated_ms == 0.0

    def test_headline_properties_are_nan(self, result):
        import math

        for value in (
            result.mean_response_ms,
            result.p95_response_ms,
            result.read_hit_ratio,
            result.write_hit_ratio,
        ):
            assert math.isnan(value)
        assert result.mean_disk_utilization == 0.0

    def test_summary_renders(self, result):
        text = result.summary()
        assert "requests measured" in text

    def test_empty_run_with_observability(self):
        res = run_trace(config(), make_trace([]), trace=True, metrics=True)
        assert res.trace is not None
        assert res.trace.roots() == []
        assert res.metrics.get("requests_total").value == 0.0


class TestMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        rng = np.random.default_rng(11)
        rows = []
        t = 0.0
        for _ in range(500):
            t += float(rng.exponential(10.0))
            rows.append((t, int(rng.integers(0, 10 * BPD)), 1, bool(rng.random() < 0.3)))
        return run_trace(config("raid5", cached=True, cache_mb=1), make_trace(rows))

    def test_summary_renders(self, result):
        text = result.summary()
        assert "mean response" in text
        assert "hit ratios" in text

    def test_hit_ratios_in_range(self, result):
        assert 0.0 <= result.read_hit_ratio <= 1.0
        assert 0.0 <= result.write_hit_ratio <= 1.0

    def test_per_disk_accesses_shape(self, result):
        assert len(result.per_disk_accesses) == 11  # N+1 disks

    def test_utilizations_in_range(self, result):
        assert 0.0 <= result.mean_disk_utilization <= 1.0
        assert result.max_disk_utilization >= result.mean_disk_utilization


class TestCrossOrganizationSanity:
    """Small end-to-end runs must reproduce the paper's core orderings."""

    @pytest.fixture(scope="class")
    def skewed_bursty_trace(self):
        rng = np.random.default_rng(7)
        rows = []
        t = 0.0
        disks = [0] * 6 + [1, 2, 3, 4]  # disk 0 gets ~60% of the load
        for i in range(3000):
            # Bursts of 25 requests at 3 ms spacing, ~1.2 s apart: the
            # hot disk saturates during bursts in the Base organization.
            t += 3.0 if i % 25 else 1200.0
            disk = int(rng.choice(disks))
            block = disk * BPD + int(rng.integers(0, BPD))
            rows.append((t, block, 1, bool(rng.random() < 0.15)))
        return make_trace(rows, ndisks=5)

    @pytest.fixture(scope="class")
    def results(self, skewed_bursty_trace):
        out = {}
        for org in ("base", "mirror", "raid5", "parity_striping"):
            out[org] = run_trace(config(org, n=5), skewed_bursty_trace)
        return out

    def test_mirror_beats_base(self, results):
        assert results["mirror"].mean_response_ms < results["base"].mean_response_ms

    def test_raid5_balances_skewed_load(self, results):
        """Under heavy skew with queueing, RAID5 must beat Base (§4.2)."""
        assert results["raid5"].mean_response_ms < results["base"].mean_response_ms

    def test_raid5_beats_parity_striping(self, results):
        """The paper's headline: RAID5 outperforms Parity Striping in
        all cases because of load balancing."""
        assert (
            results["raid5"].mean_response_ms
            < results["parity_striping"].mean_response_ms
        )

    def test_raid5_access_counts_balanced(self, results):
        counts = results["raid5"].per_disk_accesses
        base_counts = results["base"].per_disk_accesses
        assert counts.std() / counts.mean() < base_counts.std() / base_counts.mean()

    def test_write_penalty_visible(self, results):
        """Parity organizations pay the RMW penalty on writes."""
        assert (
            results["raid5"].write_response.mean
            > results["base"].write_response.mean
        )
