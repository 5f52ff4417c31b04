"""Abstract array controller.

A controller owns the disks of one array, the array's channel and (for
cached organizations) its NV cache.  The simulation runner calls
:meth:`ArrayController.handle` once per trace request; the returned
generator is spawned as a process whose completion time defines the
request's response time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Generator, Sequence

from repro.channel.bus import Channel
from repro.des import Environment, Event
from repro.disk.drive import Disk
from repro.disk.geometry import BLOCK_BYTES
from repro.layout.common import Layout, Run

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.config import SystemConfig

__all__ = ["ArrayController"]


class ArrayController(ABC):
    """Base class for the five organizations' controllers.

    Parameters
    ----------
    env, layout, disks, channel:
        The array's building blocks; ``len(disks) == layout.ndisks``.
    config:
        The array's configuration (organization, policies...).
    """

    def __init__(
        self,
        env: Environment,
        layout: Layout,
        disks: Sequence[Disk],
        channel: Channel,
        config: "SystemConfig",
    ) -> None:
        if len(disks) != layout.ndisks:
            raise ValueError(
                f"layout expects {layout.ndisks} disks, got {len(disks)}"
            )
        self.env = env
        self.layout = layout
        self.disks = list(disks)
        self.channel = channel
        self.config = config
        #: Probe slot: the system's probe bus while anything observes it
        #: (the controller taps of ``repro.obs.probes.TAPS``).  ``None``
        #: keeps request admission at one identity check.
        self.probe = None

    @abstractmethod
    def handle(
        self, lstart: int, nblocks: int, is_write: bool
    ) -> Generator[Event, None, None]:
        """Service one logical request; yields until it completes."""

    # -- shared helpers -------------------------------------------------------
    def _channel_transfer(self, nblocks: int) -> Generator[Event, None, float]:
        """Move *nblocks* worth of data over the array channel."""
        return self.channel.transfer(nblocks * BLOCK_BYTES)

    def _nearer_copy(self, run: Run) -> Disk:
        """Shortest-seek mirror routing: the copy of *run* whose arm is
        nearer its start, or on a tie the one with the shorter queue.

        Only for mirrored layouts (``self.layout.mirror_of``).
        """
        a = self.disks[run.disk]
        b = self.disks[self.layout.mirror_of(run.disk)]
        da, db = a.seek_distance_to(run.start), b.seek_distance_to(run.start)
        if da != db:
            chosen = a if da < db else b
        else:
            chosen = a if a.pending <= b.pending else b
        if self.probe is not None:
            alt, s_c, s_a = (b, da, db) if chosen is a else (a, db, da)
            self.probe.on_mirror_route(self, run, chosen, alt, s_c, s_a)
        return chosen
