"""Trace file formats.

Two interchange formats:

* **npz** — compact binary (NumPy archive) with metadata; lossless.
* **text** — the paper's raw format: one line per *block*, with the time
  delta since the previous request, zeroed for continuation blocks of a
  multi-block request ("The time field is set to zero when both accesses
  are part of the same multiblock request", §3.1).
"""

from __future__ import annotations

import os
from typing import TextIO, Union

import numpy as np

from repro.trace.record import TRACE_DTYPE, Trace

__all__ = ["save_npz", "load_npz", "write_paper_format", "read_paper_format"]


def save_npz(trace: Trace, path: Union[str, os.PathLike]) -> None:
    """Save a trace as a compressed NumPy archive."""
    np.savez_compressed(
        path,
        records=trace.records,
        ndisks=np.int64(trace.ndisks),
        blocks_per_disk=np.int64(trace.blocks_per_disk),
        name=np.str_(trace.name),
    )


def load_npz(path: Union[str, os.PathLike]) -> Trace:
    """Load a trace saved by :func:`save_npz`."""
    with np.load(path, allow_pickle=False) as data:
        return Trace(
            data["records"],
            int(data["ndisks"]),
            int(data["blocks_per_disk"]),
            name=str(data["name"]),
        )


def write_paper_format(trace: Trace, fh: TextIO) -> None:
    """Write in the paper's per-block format.

    Columns: ``delta_ms  absolute_block  r|w``.  Continuation blocks of a
    multi-block request carry a zero delta.
    """
    prev_time = 0.0
    for rec in trace.records:
        delta = float(rec["time"]) - prev_time
        prev_time = float(rec["time"])
        rw = "w" if rec["is_write"] else "r"
        fh.write(f"{delta:.6f} {int(rec['lblock'])} {rw}\n")
        for extra in range(1, int(rec["nblocks"])):
            fh.write(f"0.000000 {int(rec['lblock']) + extra} {rw}\n")


def read_paper_format(
    fh: TextIO, ndisks: int, blocks_per_disk: int, name: str = "trace"
) -> Trace:
    """Parse the paper's per-block format back into a :class:`Trace`.

    Consecutive lines with zero delta and consecutive block numbers of
    the same direction are coalesced into one multi-block request.
    """
    times: list[float] = []
    lblocks: list[int] = []
    nblocks: list[int] = []
    writes: list[bool] = []
    now = 0.0
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed trace line: {line!r}")
        delta, block, rw = float(parts[0]), int(parts[1]), parts[2]
        if rw not in ("r", "w"):
            raise ValueError(f"bad direction {rw!r} in line {line!r}")
        now += delta
        is_write = rw == "w"
        if (
            delta == 0.0
            and lblocks
            and writes[-1] == is_write
            and lblocks[-1] + nblocks[-1] == block
        ):
            nblocks[-1] += 1
        else:
            times.append(now)
            lblocks.append(block)
            nblocks.append(1)
            writes.append(is_write)

    records = np.empty(len(times), dtype=TRACE_DTYPE)
    records["time"] = times
    records["lblock"] = lblocks
    records["nblocks"] = nblocks
    records["is_write"] = writes
    return Trace(records, ndisks, blocks_per_disk, name=name)
