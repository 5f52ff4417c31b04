"""Trace data model and Table-2-style characterisation.

A trace is a time-ordered sequence of I/O requests against a *logical*
database address space of ``ndisks × blocks_per_disk`` 4 KB blocks (the
data disks of the Base organization).  Requests are stored in a compact
NumPy structured array; multi-block requests are single records with
``nblocks > 1`` (the paper's raw format repeats entries with a zero time
delta — :mod:`repro.trace.io_` converts between the two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["TRACE_DTYPE", "Trace", "TraceStats"]

#: time: arrival in ms; lblock: first logical block; nblocks: request
#: length in blocks; is_write: request direction.
TRACE_DTYPE = np.dtype(
    [
        ("time", np.float64),
        ("lblock", np.int64),
        ("nblocks", np.int32),
        ("is_write", np.bool_),
    ]
)


@dataclass(frozen=True)
class TraceStats:
    """The characteristics the paper reports in Table 2, plus skew."""

    duration_ms: float
    ndisks: int
    n_ios: int
    blocks_transferred: int
    single_block_reads: int
    single_block_writes: int
    multiblock_reads: int
    multiblock_writes: int
    write_fraction: float
    single_block_fraction: float
    #: Coefficient of variation of per-disk access counts (skew measure).
    disk_access_cv: float
    #: Share of accesses landing on the busiest 10% of disks.
    top_decile_share: float

    def as_table(self) -> str:
        """Render in the shape of the paper's Table 2."""
        rows = [
            ("Duration", f"{self.duration_ms / 60000.0:.1f} min"),
            ("# of disks", f"{self.ndisks}"),
            ("# of I/O accesses", f"{self.n_ios:,}"),
            ("# of blocks transferred", f"{self.blocks_transferred:,}"),
            ("# of single block reads", f"{self.single_block_reads:,}"),
            ("# of single block writes", f"{self.single_block_writes:,}"),
            ("# of multiblock reads", f"{self.multiblock_reads:,}"),
            ("# of multiblock writes", f"{self.multiblock_writes:,}"),
            ("Write fraction", f"{self.write_fraction:.1%}"),
            ("Single-block fraction", f"{self.single_block_fraction:.1%}"),
            ("Disk access CV", f"{self.disk_access_cv:.3f}"),
            ("Top-decile share", f"{self.top_decile_share:.1%}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


class Trace:
    """A time-ordered I/O request trace over a logical database.

    Parameters
    ----------
    records:
        Structured array with :data:`TRACE_DTYPE` fields, sorted by time.
    ndisks:
        Number of logical (Base-organization data) disks addressed.
    blocks_per_disk:
        Size of each logical disk in blocks.
    name:
        Label for reports.
    """

    def __init__(
        self,
        records: np.ndarray,
        ndisks: int,
        blocks_per_disk: int,
        name: str = "trace",
    ) -> None:
        records = np.asarray(records)
        if records.dtype != TRACE_DTYPE:
            raise ValueError(f"records must have dtype {TRACE_DTYPE}")
        if ndisks < 1 or blocks_per_disk < 1:
            raise ValueError("ndisks and blocks_per_disk must be positive")
        if len(records):
            # NaN compares false against everything, so the ordering and
            # sign checks below would silently pass a poisoned trace.
            if not np.isfinite(records["time"]).all():
                raise ValueError("arrival times must be finite")
            if np.any(np.diff(records["time"]) < 0):
                raise ValueError("records must be sorted by time")
            if records["time"][0] < 0:
                raise ValueError("negative arrival time")
            if np.any(records["nblocks"] < 1):
                raise ValueError("nblocks must be >= 1")
            last = records["lblock"] + records["nblocks"]
            if np.any(records["lblock"] < 0) or np.any(last > ndisks * blocks_per_disk):
                raise ValueError("request outside the logical address space")
        self.records = records
        self.ndisks = ndisks
        self.blocks_per_disk = blocks_per_disk
        self.name = name

    # -- basic shape -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[np.void]:
        return iter(self.records)

    @property
    def logical_blocks(self) -> int:
        """Size of the logical address space."""
        return self.ndisks * self.blocks_per_disk

    @property
    def duration_ms(self) -> float:
        """Arrival time of the last request."""
        return float(self.records["time"][-1]) if len(self.records) else 0.0

    @property
    def times(self) -> np.ndarray:
        return self.records["time"]

    @property
    def lblocks(self) -> np.ndarray:
        return self.records["lblock"]

    @property
    def nblocks(self) -> np.ndarray:
        return self.records["nblocks"]

    @property
    def is_write(self) -> np.ndarray:
        return self.records["is_write"]

    # -- characterisation ---------------------------------------------------------
    def stats(self) -> TraceStats:
        """Compute the Table-2 characteristics of this trace."""
        r = self.records
        n = len(r)
        if n == 0:
            raise ValueError("empty trace has no statistics")
        single = r["nblocks"] == 1
        writes = r["is_write"]
        counts = self.per_disk_access_counts()
        mean = counts.mean()
        cv = float(counts.std() / mean) if mean > 0 else 0.0
        k = max(1, int(round(self.ndisks * 0.1)))
        top = np.sort(counts)[::-1][:k].sum()
        return TraceStats(
            duration_ms=self.duration_ms,
            ndisks=self.ndisks,
            n_ios=n,
            blocks_transferred=int(r["nblocks"].sum()),
            single_block_reads=int(np.sum(single & ~writes)),
            single_block_writes=int(np.sum(single & writes)),
            multiblock_reads=int(np.sum(~single & ~writes)),
            multiblock_writes=int(np.sum(~single & writes)),
            write_fraction=float(np.mean(writes)),
            single_block_fraction=float(np.mean(single)),
            disk_access_cv=cv,
            top_decile_share=float(top / counts.sum()) if counts.sum() else 0.0,
        )

    def per_disk_access_counts(self) -> np.ndarray:
        """Block accesses per logical disk (the Base histogram of Fig. 6).

        Multi-block requests contribute one access per touched block; the
        rare request spanning two logical disks is attributed block by
        block.
        """
        counts = np.zeros(self.ndisks, dtype=np.int64)
        bpd = self.blocks_per_disk
        start_disk = self.records["lblock"] // bpd
        end_disk = (self.records["lblock"] + self.records["nblocks"] - 1) // bpd
        within = start_disk == end_disk
        np.add.at(counts, start_disk[within], self.records["nblocks"][within].astype(np.int64))
        for rec in self.records[~within]:
            for b in range(rec["lblock"], rec["lblock"] + rec["nblocks"]):
                counts[b // bpd] += 1
        return counts

    def __repr__(self) -> str:
        return (
            f"<Trace {self.name!r}: {len(self)} requests, "
            f"{self.ndisks} disks, {self.duration_ms / 1000.0:.1f} s>"
        )
