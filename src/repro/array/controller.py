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
from repro.layout.common import Layout

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
        The full system configuration (block size, policies...).
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
        self.requests_handled = 0
        #: Optional validation tap (``repro.validate``): an object with
        #: ``on_handle(controller, lstart, nblocks, is_write)`` and
        #: ``on_destage(controller, run)``.  ``None`` keeps request
        #: admission at one identity check.
        self.probe = None

    @property
    def block_bytes(self) -> int:
        return self.config.block_bytes

    @abstractmethod
    def handle(
        self, lstart: int, nblocks: int, is_write: bool
    ) -> Generator[Event, None, None]:
        """Service one logical request; yields until it completes."""

    # -- shared helpers -------------------------------------------------------
    def _channel_transfer(self, nblocks: int) -> Generator[Event, None, float]:
        """Move *nblocks* worth of data over the array channel."""
        return self.channel.transfer(nblocks * self.block_bytes)
