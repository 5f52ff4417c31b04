"""Disk request descriptors.

A :class:`DiskRequest` describes one contiguous access to a single disk.
Besides plain reads and writes there is a read-modify-write (``RMW``)
access used by the parity organizations: the old contents are read, the
head then waits (at least) one full rotation and the new contents are
written in place.  For parity updates, the new contents are not computable
until the old *data* has been read on the data disk(s); the optional
``data_ready`` event expresses that dependency, and the servicing disk
spins in whole revolutions until it triggers (the cost the paper's
synchronization policies are designed to contain).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.des import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des import Environment

__all__ = ["AccessKind", "DiskRequest", "Priority"]

_req_counter = itertools.count()


class AccessKind(enum.Enum):
    """What the disk is asked to do with the addressed blocks."""

    READ = "read"
    WRITE = "write"
    #: Read old contents, rotate, write new contents in place.
    RMW = "rmw"


class Priority:
    """Standard queue priorities (lower value is served first)."""

    PARITY_URGENT = -1.0  # parity accesses under the /PR policies
    NORMAL = 0.0  # synchronous (user-visible) accesses
    DESTAGE = 1.0  # background destage writes


@dataclass(slots=True)
class DiskRequest:
    """One contiguous access to a single disk.

    Parameters
    ----------
    kind:
        READ, WRITE or RMW.
    start_block:
        First physical block on the disk.
    nblocks:
        Number of consecutive blocks.
    priority:
        Queue priority (see :class:`Priority`).
    data_ready:
        For RMW/WRITE accesses whose payload depends on other reads
        (parity updates): the disk cannot write before this event.
    tag:
        Free-form annotation for tracing/debugging.
    """

    kind: AccessKind
    start_block: int
    nblocks: int = 1
    priority: float = Priority.NORMAL
    data_ready: Optional["Event"] = None
    #: For RMW accesses issued before their data is ready (the SI
    #: policy): how many whole revolutions the disk may be held waiting
    #: for ``data_ready`` before giving up and requeueing the access.
    #: ``None`` waits indefinitely (safe for RF/DF, whose dependency is
    #: guaranteed to resolve).
    max_hold_revolutions: Optional[int] = None
    tag: Any = None
    seq: int = field(default_factory=lambda: next(_req_counter))

    # Filled in by Disk.submit().
    submit_time: float = field(default=0.0, init=False)
    #: Triggered when the disk begins servicing this request.
    started: Optional["Event"] = field(default=None, init=False)
    #: Triggered when the read phase of an RMW completes (and for plain
    #: reads, at read completion, just before ``done``).
    read_complete: Optional["Event"] = field(default=None, init=False)
    #: Triggered at completion; value is the completion time.
    done: Optional["Event"] = field(default=None, init=False)
    #: Extra whole revolutions spent waiting for ``data_ready``.
    spin_revolutions: int = field(default=0, init=False)
    #: Times the disk gave up holding and requeued this access.
    hold_retries: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.nblocks <= 0:
            raise ValueError(f"nblocks must be positive, got {self.nblocks}")
        if self.start_block < 0:
            raise ValueError(f"start_block must be >= 0, got {self.start_block}")

    @property
    def end_block(self) -> int:
        """One past the last block accessed."""
        return self.start_block + self.nblocks

    def attach(self, env: "Environment") -> None:
        """Create the lifecycle events (called by :meth:`Disk.submit`)."""
        self.submit_time = env.now
        self.started = Event(env)
        self.read_complete = Event(env)
        self.done = Event(env)

    def renumber(self) -> None:
        """Assign a fresh sequence number (requeue goes behind peers)."""
        self.seq = next(_req_counter)

    def __repr__(self) -> str:
        return (
            f"DiskRequest({self.kind.value}, start={self.start_block}, "
            f"n={self.nblocks}, prio={self.priority}, tag={self.tag!r})"
        )
