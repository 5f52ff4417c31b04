"""Controller track buffers.

Non-cached controllers hold a small pool of track buffers — five per
attached disk in the paper — staging data between the disk surface and
the channel, and holding old data/parity while new parity is computed.

The pool is a counting semaphore with FIFO waiters and *atomic*
multi-buffer acquisition: a request that needs ``k`` buffers takes all
``k`` at once or waits.  (Incremental acquisition would allow
hold-and-wait deadlock between concurrent parity updates.)  At five
buffers per disk the pool almost never binds, which the tests verify.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.des import Environment, Event

__all__ = ["TrackBufferPool"]


class TrackBufferPool:
    """Pool of identical track buffers shared by an array's controller."""

    def __init__(self, env: Environment, ndisks: int, buffers_per_disk: int = 5) -> None:
        if ndisks < 1 or buffers_per_disk < 1:
            raise ValueError("need at least one disk and one buffer per disk")
        self.env = env
        self.capacity = ndisks * buffers_per_disk
        self._available = self.capacity
        self._waiters: deque[tuple[int, Event]] = deque()
        self.peak_in_use = 0
        self.acquisitions = 0

    @property
    def in_use(self) -> int:
        """Buffers currently held."""
        return self.capacity - self._available

    @property
    def available(self) -> int:
        return self._available

    @property
    def waiting(self) -> int:
        """Acquisition requests queued for buffers."""
        return len(self._waiters)

    def acquire(self, k: int = 1) -> Generator[Event, None, None]:
        """Atomically claim *k* buffers; waits (FIFO) if short.

        Use as ``yield from pool.acquire(k)``.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > self.capacity:
            raise ValueError(f"cannot acquire {k} of {self.capacity} buffers")
        if self._waiters or self._available < k:
            grant = Event(self.env)
            self._waiters.append((k, grant))
            yield grant
        else:
            self._take(k)

    def release(self, k: int = 1) -> None:
        """Return *k* buffers and wake satisfiable waiters in FIFO order."""
        if k < 1 or self.in_use < k:
            raise ValueError(f"cannot release {k} buffers ({self.in_use} in use)")
        self._available += k
        while self._waiters and self._waiters[0][0] <= self._available:
            need, grant = self._waiters.popleft()
            self._take(need)
            grant.succeed()

    def _take(self, k: int) -> None:
        self._available -= k
        self.acquisitions += 1
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
