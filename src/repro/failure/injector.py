"""Driving a failure schedule against a built system.

The :class:`FailureInjector` is the bridge between the declarative
:class:`~repro.failure.schedule.FailureSchedule` and the DES: it
validates the schedule against the actual system (disk/array/block
ranges, organization capabilities), then runs a single timeline process
that applies each event at its scheduled time through the ordinary
kernel event hooks — a :class:`~repro.des.Timeout` per event, controller
state transitions at fire time.  No special kernel support: failure
injection is just another deterministic process in the event heap.

Determinism: :func:`~repro.sim.runner.run_trace` creates the injector
*before* the trace source process, so events scheduled for the same
instant as a request arrival are applied first (lower sequence number) —
a failure at t=0 is visible to the very first request, every run,
serial or parallel.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.array.uncached import UncachedBaseController
from repro.des import Environment, Event
from repro.failure.degraded import RebuildProcess
from repro.failure.errors import FailureScheduleError
from repro.failure.schedule import (
    DiskFailure,
    FailureSchedule,
    LatentError,
    SpareArrival,
)
from repro.failure.scrub import ScrubProcess

__all__ = ["FailureInjector"]


class FailureInjector:
    """Applies *schedule* to *system*'s controllers at the right times."""

    def __init__(self, env: Environment, system, schedule: FailureSchedule) -> None:
        self.env = env
        self.system = system
        self.schedule = schedule
        #: ``(array_index, RebuildProcess)`` in start order.
        self.rebuilds: list[tuple[int, RebuildProcess]] = []
        #: ``(array_index, ScrubProcess)`` in array order.
        self.scrubs: list[tuple[int, ScrubProcess]] = []
        self._validate()
        self._timeline = env.process(self._run_timeline())
        if schedule.scrub is not None:
            for i, ctrl in enumerate(system.controllers):
                self.scrubs.append((i, ScrubProcess(ctrl, schedule.scrub)))

    # -- system-dependent validation ------------------------------------------
    def _validate(self) -> None:
        controllers = self.system.controllers
        narrays = len(controllers)
        failures: dict[int, DiskFailure] = {}
        for ev in self.schedule.events:
            if ev.array >= narrays:
                raise FailureScheduleError(
                    f"{type(ev).__name__} targets array {ev.array} but the "
                    f"system has {narrays} array(s)"
                )
            ctrl = controllers[ev.array]
            layout = ctrl.layout
            if isinstance(ev, DiskFailure):
                if ev.disk >= layout.ndisks:
                    raise FailureScheduleError(
                        f"DiskFailure targets disk {ev.disk} but array "
                        f"{ev.array} has {layout.ndisks} disks"
                    )
                failures[ev.array] = ev
            elif isinstance(ev, SpareArrival):
                if isinstance(ctrl, UncachedBaseController):
                    raise FailureScheduleError(
                        "the base organization has no redundancy to rebuild "
                        "from; remove the SpareArrival or pick a redundant "
                        "organization"
                    )
                if (
                    ev.rebuild_blocks is not None
                    and ev.rebuild_blocks > layout.blocks_per_disk
                ):
                    raise FailureScheduleError(
                        f"SpareArrival rebuilds {ev.rebuild_blocks} blocks but "
                        f"array {ev.array} has {layout.blocks_per_disk} blocks "
                        f"per disk"
                    )
            elif isinstance(ev, LatentError):
                if ev.disk >= layout.ndisks:
                    raise FailureScheduleError(
                        f"LatentError targets disk {ev.disk} but array "
                        f"{ev.array} has {layout.ndisks} disks"
                    )
                if ev.pblock >= layout.blocks_per_disk:
                    raise FailureScheduleError(
                        f"LatentError targets pblock {ev.pblock} but disks "
                        f"have {layout.blocks_per_disk} blocks"
                    )
                failure = failures.get(ev.array)
                if (
                    failure is not None
                    and failure.disk == ev.disk
                    and failure.at_ms <= ev.at_ms
                ):
                    raise FailureScheduleError(
                        f"LatentError on disk {ev.disk} at {ev.at_ms:g} ms is "
                        f"moot: the whole disk fails at {failure.at_ms:g} ms"
                    )

    # -- the timeline ----------------------------------------------------------
    def _run_timeline(self) -> Generator[Event, None, None]:
        env = self.env
        controllers = self.system.controllers
        for ev in self.schedule.ordered_events():
            if ev.at_ms > env.now:
                yield env.timeout(ev.at_ms - env.now)
            ctrl = controllers[ev.array]
            if isinstance(ev, DiskFailure):
                ctrl.fail_disk(ev.disk)
            elif isinstance(ev, SpareArrival):
                ctrl.attach_spare()
                self.rebuilds.append(
                    (
                        ev.array,
                        RebuildProcess(
                            ctrl,
                            chunk_blocks=ev.rebuild_chunk_blocks,
                            delay_ms=ev.rebuild_delay_ms,
                            used_blocks=ev.rebuild_blocks,
                        ),
                    )
                )
            else:
                ctrl.inject_latent(ev.disk, ev.pblock)

    # -- post-trace drain -------------------------------------------------------
    def drain(self) -> None:
        """Run the clock past the foreground trace until the scenario is
        complete: all events applied, all started rebuilds finished, and
        every scrubber through ``min_passes`` full passes.

        ``env.run(until=...)`` on an already-processed event returns
        immediately, so draining an already-complete scenario is free.
        """
        env = self.env
        env.run(until=self._timeline)
        # A rebuild may only be *created* by a late SpareArrival the
        # timeline just applied, hence the second loop after the first.
        for _, rb in self.rebuilds:
            env.run(until=rb.process)
        policy = self.schedule.scrub
        if policy is not None and policy.min_passes > 0:
            for _, sc in self.scrubs:
                while sc.passes < policy.min_passes:
                    env.run(until=sc.pass_done)
