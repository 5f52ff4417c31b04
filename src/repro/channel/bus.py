"""The host ↔ array channel.

A single shared link per array (10 MB/s in Table 1).  Transfers queue
first come, first served and hold the channel for ``bytes / rate``.
Channel time matters mainly as a fixed per-request cost plus occasional
contention when many disks in an array complete at once — exactly how
the paper uses it ("we account for all channel and disk-related
effects").
"""

from __future__ import annotations

from typing import Generator

from repro.des import Environment, Event, Resource, TimeWeighted

__all__ = ["CHANNEL_MB_PER_S", "Channel"]

#: Channel transfer rate in MB/s (Table 1).
CHANNEL_MB_PER_S = 10.0


class Channel:
    """A shared transfer link at :data:`CHANNEL_MB_PER_S`.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Identification for metrics.
    """

    def __init__(self, env: Environment, name: str = "channel") -> None:
        self.env = env
        self.name = name
        self.bytes_per_ms = CHANNEL_MB_PER_S * 1e6 / 1000.0
        self._link = Resource(env, capacity=1)
        self.busy_time = 0.0
        self.bytes_transferred = 0
        self.transfers = 0
        self.queue_length = TimeWeighted(env.now, 0.0)
        #: Probe slot: the system's probe bus while anything observes it
        #: (the ``channel_*`` taps of ``repro.obs.probes.TAPS``), else
        #: ``None``.
        self.probe = None

    def transfer_time(self, nbytes: int) -> float:
        """Pure wire time for *nbytes* in ms."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        return nbytes / self.bytes_per_ms

    def transfer(self, nbytes: int) -> Generator[Event, None, float]:
        """Acquire the channel and move *nbytes*; returns completion time.

        Use as ``yield from channel.transfer(...)`` inside a process.
        A non-positive *nbytes* raises before the transfer is probed,
        queued or granted the link.
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        env = self.env
        if self.probe is not None:
            self.probe.on_channel_request(self, nbytes)
        queue_length = self.queue_length
        queue_length.add(env.now, +1)
        with self._link.request() as claim:
            yield claim
            queue_length.add(env.now, -1)
            duration = nbytes / self.bytes_per_ms  # transfer_time(nbytes)
            yield env.timeout(duration)
            self.busy_time += duration
            self.bytes_transferred += nbytes
            self.transfers += 1
            if self.probe is not None:
                self.probe.on_channel_transfer(self, nbytes, duration)
        return env.now

    def utilization(self, now: float | None = None) -> float:
        """Fraction of time the channel has been busy."""
        t = self.env.now if now is None else now
        return self.busy_time / t if t > 0 else 0.0

    def __repr__(self) -> str:
        return f"<Channel {self.name} {self.bytes_per_ms * 1000 / 1e6:.1f} MB/s>"
