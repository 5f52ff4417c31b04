"""Tests for trace transforms and file formats."""

import io

import numpy as np
import pytest

from repro.trace import (
    TRACE_DTYPE,
    Trace,
    clip_requests,
    scale_speed,
    slice_arrays,
)
from repro.trace.io_ import (
    load_npz,
    read_paper_format,
    save_npz,
    write_paper_format,
)


@pytest.fixture
def trace():
    records = np.array(
        [
            (0.0, 5, 1, False),
            (10.0, 150, 2, True),
            (25.0, 250, 1, False),
            (40.0, 399, 1, True),
        ],
        dtype=TRACE_DTYPE,
    )
    return Trace(records, 4, 100, name="t")


class TestScaleSpeed:
    def test_double_speed_halves_times(self, trace):
        fast = scale_speed(trace, 2.0)
        np.testing.assert_allclose(fast.times, trace.times / 2)

    def test_half_speed_doubles_times(self, trace):
        slow = scale_speed(trace, 0.5)
        np.testing.assert_allclose(slow.times, trace.times * 2)

    def test_requests_unchanged(self, trace):
        fast = scale_speed(trace, 2.0)
        np.testing.assert_array_equal(fast.lblocks, trace.lblocks)
        np.testing.assert_array_equal(fast.is_write, trace.is_write)

    def test_original_untouched(self, trace):
        scale_speed(trace, 2.0)
        assert trace.times[1] == 10.0

    def test_invalid_speed(self, trace):
        with pytest.raises(ValueError):
            scale_speed(trace, 0.0)

    def test_name_annotated(self, trace):
        assert "speed2" in scale_speed(trace, 2.0).name


class TestSliceArrays:
    def test_keeps_only_range(self, trace):
        part = slice_arrays(trace, 1, 2)  # disks 1..2 -> blocks 100..299
        assert len(part) == 2
        np.testing.assert_array_equal(part.lblocks, [50, 150])
        assert part.ndisks == 2

    def test_rebased_addresses(self, trace):
        part = slice_arrays(trace, 3, 1)
        np.testing.assert_array_equal(part.lblocks, [99])
        assert part.logical_blocks == 100

    def test_times_preserved(self, trace):
        part = slice_arrays(trace, 0, 1)
        np.testing.assert_array_equal(part.times, [0.0])

    def test_straddling_request_clipped(self):
        records = np.array([(0.0, 98, 4, False)], dtype=TRACE_DTYPE)
        trace = Trace(records, 4, 100)
        left = slice_arrays(trace, 0, 1)
        assert len(left) == 1
        assert left.lblocks[0] == 98
        assert left.nblocks[0] == 2
        right = slice_arrays(trace, 1, 1)
        assert right.lblocks[0] == 0
        assert right.nblocks[0] == 2

    def test_validation(self, trace):
        with pytest.raises(ValueError):
            slice_arrays(trace, 4, 1)
        with pytest.raises(ValueError):
            slice_arrays(trace, 0, 5)
        with pytest.raises(ValueError):
            slice_arrays(trace, 2, 3)


class TestClip:
    def test_clip(self, trace):
        c = clip_requests(trace, 2)
        assert len(c) == 2
        with pytest.raises(ValueError):
            clip_requests(trace, 0)


class TestNpzFormat:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.npz"
        save_npz(trace, path)
        loaded = load_npz(path)
        np.testing.assert_array_equal(loaded.records, trace.records)
        assert loaded.ndisks == trace.ndisks
        assert loaded.blocks_per_disk == trace.blocks_per_disk
        assert loaded.name == trace.name


class TestPaperFormat:
    def test_write_format(self, trace):
        buf = io.StringIO()
        write_paper_format(trace, buf)
        lines = buf.getvalue().strip().split("\n")
        # 4 requests, one is 2 blocks -> 5 lines.
        assert len(lines) == 5
        # Continuation block has zero delta.
        assert lines[2].startswith("0.000000 151 w")

    def test_roundtrip_preserves_requests(self, trace):
        buf = io.StringIO()
        write_paper_format(trace, buf)
        buf.seek(0)
        back = read_paper_format(buf, trace.ndisks, trace.blocks_per_disk)
        np.testing.assert_allclose(back.times, trace.times, atol=1e-5)
        np.testing.assert_array_equal(back.lblocks, trace.lblocks)
        np.testing.assert_array_equal(back.nblocks, trace.nblocks)
        np.testing.assert_array_equal(back.is_write, trace.is_write)

    def test_read_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            read_paper_format(io.StringIO("1.0 5\n"), 4, 100)
        with pytest.raises(ValueError, match="direction"):
            read_paper_format(io.StringIO("1.0 5 x\n"), 4, 100)

    def test_read_skips_comments_and_blanks(self):
        text = "# header\n\n1.0 5 r\n"
        t = read_paper_format(io.StringIO(text), 4, 100)
        assert len(t) == 1

    def test_zero_delta_different_direction_not_merged(self):
        text = "1.0 5 r\n0.0 6 w\n"
        t = read_paper_format(io.StringIO(text), 4, 100)
        assert len(t) == 2

    def test_zero_delta_nonadjacent_not_merged(self):
        text = "1.0 5 r\n0.0 9 r\n"
        t = read_paper_format(io.StringIO(text), 4, 100)
        assert len(t) == 2
