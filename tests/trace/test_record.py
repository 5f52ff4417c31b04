"""Tests for the Trace data model and Table-2 statistics."""

import numpy as np
import pytest

from repro.trace import TRACE_DTYPE, Trace


def make_trace(rows, ndisks=4, bpd=100):
    records = np.array(rows, dtype=TRACE_DTYPE)
    return Trace(records, ndisks, bpd)


class TestValidation:
    def test_wrong_dtype(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(3), 4, 100)

    def test_unsorted_times(self):
        with pytest.raises(ValueError, match="sorted"):
            make_trace([(5.0, 0, 1, False), (1.0, 0, 1, False)])

    def test_negative_time(self):
        with pytest.raises(ValueError):
            make_trace([(-1.0, 0, 1, False)])

    def test_zero_nblocks(self):
        with pytest.raises(ValueError):
            make_trace([(0.0, 0, 0, False)])

    def test_address_out_of_space(self):
        with pytest.raises(ValueError):
            make_trace([(0.0, 399, 2, False)])  # 399+2 > 400
        with pytest.raises(ValueError):
            make_trace([(0.0, -1, 1, False)])

    def test_bad_shape_params(self):
        records = np.zeros(0, dtype=TRACE_DTYPE)
        with pytest.raises(ValueError):
            Trace(records, 0, 100)
        with pytest.raises(ValueError):
            Trace(records, 4, 0)

    def test_empty_trace_allowed(self):
        t = Trace(np.zeros(0, dtype=TRACE_DTYPE), 4, 100)
        assert len(t) == 0
        assert t.duration_ms == 0.0
        with pytest.raises(ValueError):
            t.stats()


class TestAccessors:
    @pytest.fixture
    def trace(self):
        return make_trace(
            [
                (0.0, 0, 1, False),
                (1.0, 150, 2, True),
                (3.5, 399, 1, False),
            ]
        )

    def test_len_and_iter(self, trace):
        assert len(trace) == 3
        assert len(list(trace)) == 3

    def test_duration(self, trace):
        assert trace.duration_ms == 3.5

    def test_logical_blocks(self, trace):
        assert trace.logical_blocks == 400

    def test_field_views(self, trace):
        np.testing.assert_array_equal(trace.times, [0.0, 1.0, 3.5])
        np.testing.assert_array_equal(trace.lblocks, [0, 150, 399])
        np.testing.assert_array_equal(trace.nblocks, [1, 2, 1])
        np.testing.assert_array_equal(trace.is_write, [False, True, False])

    def test_interarrivals(self, trace):
        np.testing.assert_allclose(trace.interarrival_times(), [1.0, 2.5])

    def test_repr(self, trace):
        assert "3 requests" in repr(trace)


class TestStats:
    def test_table2_fields(self):
        trace = make_trace(
            [
                (0.0, 0, 1, False),  # single read
                (1.0, 10, 1, True),  # single write
                (2.0, 20, 4, False),  # multi read
                (3.0, 30, 2, True),  # multi write
            ]
        )
        s = trace.stats()
        assert s.n_ios == 4
        assert s.blocks_transferred == 8
        assert s.single_block_reads == 1
        assert s.single_block_writes == 1
        assert s.multiblock_reads == 1
        assert s.multiblock_writes == 1
        assert s.write_fraction == 0.5
        assert s.single_block_fraction == 0.5
        assert s.ndisks == 4

    def test_as_table_renders(self):
        trace = make_trace([(0.0, 0, 1, False)])
        text = trace.stats().as_table()
        assert "# of I/O accesses" in text
        assert "Write fraction" in text

    def test_per_disk_counts_block_weighted(self):
        trace = make_trace(
            [
                (0.0, 0, 3, False),  # 3 blocks on disk 0
                (1.0, 100, 1, False),  # 1 block on disk 1
                (2.0, 100, 1, True),
            ]
        )
        np.testing.assert_array_equal(trace.per_disk_access_counts(), [3, 2, 0, 0])

    def test_per_disk_counts_straddling_request(self):
        trace = make_trace([(0.0, 98, 4, False)])  # 2 blocks disk0, 2 disk1
        np.testing.assert_array_equal(trace.per_disk_access_counts(), [2, 2, 0, 0])

    def test_skew_metrics(self):
        rows = [(float(i), 0, 1, False) for i in range(90)]
        rows += [(float(90 + i), 150, 1, False) for i in range(10)]
        trace = make_trace(rows, ndisks=10, bpd=100)
        s = trace.stats()
        assert s.disk_access_cv > 1.0  # strongly skewed
        assert s.top_decile_share == pytest.approx(0.9)
