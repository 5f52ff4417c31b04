"""Building a simulated I/O subsystem from a configuration.

Each array is self-contained — its own disks, channel, controller and
(if cached) NV cache — mirroring §3.2: "Each array has one controller
and an independent channel connecting it to the host."

:func:`build_system` builds the arrays :meth:`SystemConfig.arrays_for`
lists: copies of one array for a uniform config, one array per Virtual
Array (over the disks the allocation policy placed) for a heterogeneous
one.  The logical address space is the concatenation of the array
spans; equal spans route with one ``divmod``, unequal ones bisect the
cumulative bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.array.cached import CachedController
from repro.array.controller import ArrayController
from repro.array.uncached import (
    UncachedBaseController,
    UncachedMirrorController,
    UncachedParityController,
)
from repro.channel.bus import Channel
from repro.des import Environment
from repro.disk.drive import Disk
from repro.disk.scheduler import SSTFScheduler
from repro.sim.config import DiskParams, Organization, SystemConfig

__all__ = ["ArraySystem", "build_system"]


@dataclass
class ArraySystem:
    """A built subsystem: ``narrays`` independent arrays.

    ``spans`` is the logical block count owned by each array, in address
    order.  When every span is equal, routing is one ``divmod``;
    otherwise it bisects the cumulative bounds.  Routing a block outside
    ``[0, capacity)`` raises :class:`ValueError`.
    """

    env: Environment
    config: SystemConfig
    controllers: list[ArrayController]
    spans: tuple[int, ...]
    _bounds: list[int] = field(init=False, repr=False, default_factory=list)
    #: The common span when every array has the same one, else 0.
    _per_array: int = field(init=False, repr=False, default=0)
    #: Logical blocks across all arrays.
    capacity: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        total = 0
        for span in self.spans:
            total += span
            self._bounds.append(total)
        if len(set(self.spans)) == 1:
            self._per_array = self.spans[0]
        self.capacity = total

    @property
    def narrays(self) -> int:
        return len(self.controllers)

    @property
    def total_disks(self) -> int:
        """Physical disks across all arrays (the equal-capacity cost)."""
        return sum(len(c.disks) for c in self.controllers)

    def controller_for(self, lblock: int) -> tuple[int, ArrayController, int]:
        """Route a global logical block: ``(array, controller, local_block)``."""
        if not 0 <= lblock < self.capacity:
            raise self._outside(lblock, 1)
        if self._per_array:
            idx, local = divmod(lblock, self._per_array)
            return idx, self.controllers[idx], local
        idx = bisect_right(self._bounds, lblock)
        start = self._bounds[idx - 1] if idx else 0
        return idx, self.controllers[idx], lblock - start

    def array_end(self, idx: int) -> int:
        """First global logical block past array *idx*."""
        if self._per_array:
            return (idx + 1) * self._per_array
        return self._bounds[idx]

    def split(self, lblock: int, nblocks: int) -> list[tuple[int, ArrayController, int, int]]:
        """Split a request into per-array parts.

        Returns ``(array, controller, local_block, span)`` tuples in
        address order; most requests yield exactly one part.  An empty
        request or one reaching outside ``[0, capacity)`` raises
        :class:`ValueError`.
        """
        end = lblock + nblocks
        if not 0 <= lblock < end <= self.capacity:
            raise self._outside(lblock, nblocks)
        per_array = self._per_array
        if per_array:
            # Equal spans: one divmod answers a request inside one array.
            idx, local = divmod(lblock, per_array)
            if local + nblocks <= per_array:
                return [(idx, self.controllers[idx], local, nblocks)]
        parts = []
        pos = lblock
        while pos < end:
            idx, controller, local = self.controller_for(pos)
            span = min(end - pos, self.array_end(idx) - pos)
            parts.append((idx, controller, local, span))
            pos += span
        return parts

    def _outside(self, lblock: int, nblocks: int) -> ValueError:
        return ValueError(
            f"request of {nblocks} block(s) at {lblock} is not inside the "
            f"{self.capacity} logical blocks of {self.narrays} array(s)"
        )


def build_system(
    env: Environment,
    config: SystemConfig,
    arrays: list[tuple[SystemConfig, list[DiskParams]]],
) -> ArraySystem:
    """Instantiate *arrays*, the list :meth:`SystemConfig.arrays_for`
    gives for *config* (``config.arrays_for(trace.ndisks)``).

    Each array gets the controller of its own config's organization (a
    VA's :meth:`~SystemConfig.va_view`).  The uncached controllers also
    carry the failure state that a failure schedule drives
    (:mod:`repro.failure`).
    """
    if not arrays:
        raise ValueError("need at least one array")
    models: dict = {}  # DiskParams -> (geometry, seek_model), built once
    phase_rng = np.random.default_rng(config.phase_seed)

    controllers: list[ArrayController] = []
    for ai, (acfg, params_list) in enumerate(arrays):
        layout = acfg.make_layout()
        disks = []
        for di, params in enumerate(params_list):
            cached = models.get(params)
            if cached is None:
                cached = (params.geometry(), params.seek_model())
                models[params] = cached
            geometry, seek_model = cached
            disks.append(
                Disk(
                    env,
                    geometry,
                    seek_model,
                    name=f"a{ai}.d{di}",
                    scheduler=(
                        SSTFScheduler(geometry)
                        if config.disk_scheduler == "sstf"
                        else None
                    ),
                    phase=0.0 if config.spindle_sync else float(phase_rng.random()),
                )
            )
        channel = Channel(env, name=f"a{ai}.chan")
        controllers.append(_make_controller(env, layout, disks, channel, acfg))
    spans = tuple(acfg.n * acfg.blocks_per_disk for acfg, _ in arrays)
    return ArraySystem(env=env, config=config, controllers=controllers, spans=spans)


def _make_controller(env, layout, disks, channel, config: SystemConfig) -> ArrayController:
    if config.cached:
        return CachedController(env, layout, disks, channel, config)
    org = config.organization
    if org is Organization.BASE:
        return UncachedBaseController(env, layout, disks, channel, config)
    if org is Organization.MIRROR:
        return UncachedMirrorController(env, layout, disks, channel, config)
    return UncachedParityController(env, layout, disks, channel, config)
