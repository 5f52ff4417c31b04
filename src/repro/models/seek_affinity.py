"""Seek-affinity analysis.

"Seek affinity is a measure of the spatial locality that may exist
among disk accesses.  The higher the seek affinity, the smaller the
disk arm movements.  Data striping decreases seek affinity" (§4.2).

:func:`empirical_seek_profile` replays a trace's accesses through a
layout and measures the arm travel each disk would see if it serviced
its accesses in arrival order — a timing-free way to quantify how much
affinity each organization preserves, the mechanism behind Figs. 5, 8
and 9.  No experiment or benchmark calls it; ``tests/models`` checks
that striping lowers the affinity it measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.geometry import DiskGeometry
from repro.layout.common import Layout
from repro.trace.record import Trace

__all__ = ["SeekProfile", "empirical_seek_profile"]


@dataclass(frozen=True)
class SeekProfile:
    """Arm-travel statistics of one (trace, layout) pairing."""

    mean_seek_distance: float
    median_seek_distance: float
    zero_seek_fraction: float  # consecutive accesses on the same cylinder
    per_disk_accesses: np.ndarray


def empirical_seek_profile(
    trace: Trace,
    layout: Layout,
    geometry: DiskGeometry | None = None,
) -> SeekProfile:
    """Measure in-order arm travel per disk for *trace* under *layout*.

    Only each request's first block is considered (requests are mostly
    single-block); multi-array traces are folded onto one array — the
    profile is a per-disk property and arrays are statistically alike.
    """
    geometry = geometry or DiskGeometry()
    per_array = layout.logical_blocks
    lblocks = trace.lblocks % per_array
    disks, pblocks = layout.map_blocks(lblocks)
    # Physical block -> cylinder through the real geometry.
    cylinders = pblocks // geometry.blocks_per_cylinder

    ndisks = layout.ndisks
    distances: list[np.ndarray] = []
    counts = np.zeros(ndisks, dtype=np.int64)
    for d in range(ndisks):
        mine = cylinders[disks == d]
        counts[d] = mine.size
        if mine.size > 1:
            distances.append(np.abs(np.diff(mine)))
    if distances:
        all_d = np.concatenate(distances)
    else:
        all_d = np.zeros(1, dtype=np.int64)
    return SeekProfile(
        mean_seek_distance=float(all_d.mean()),
        median_seek_distance=float(np.median(all_d)),
        zero_seek_fraction=float(np.mean(all_d == 0)),
        per_disk_accesses=counts,
    )
