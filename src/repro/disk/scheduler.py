"""Disk queue scheduling disciplines.

The paper's simulator services each disk queue in arrival order, with the
*/PR* synchronization policies expressed as a higher queue priority for
parity accesses.  :class:`FCFSScheduler` implements exactly that (priority
classes, FIFO within a class).  :class:`SSTFScheduler` (shortest seek time
first within the top priority class) is provided as an extension used by
the ablation benchmarks.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Iterator, Optional

from repro.disk.request import DiskRequest

__all__ = ["DiskScheduler", "FCFSScheduler", "SSTFScheduler"]


class DiskScheduler(ABC):
    """Holds queued :class:`DiskRequest` items and picks the next one."""

    __slots__ = ()

    @abstractmethod
    def put(self, request: DiskRequest) -> None:
        """Enqueue a request."""

    @abstractmethod
    def pop(self, current_cylinder: int) -> DiskRequest:
        """Remove and return the next request to service.

        ``current_cylinder`` is the arm's position, for position-aware
        disciplines.  Must not be called on an empty queue.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of queued requests."""

    @abstractmethod
    def __iter__(self) -> Iterator[DiskRequest]:
        """Iterate over queued requests (service order not guaranteed)."""


class FCFSScheduler(DiskScheduler):
    """Priority classes served lowest-value first, FIFO within a class."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, DiskRequest]] = []

    # put/pop run once per disk access on the simulator hot path; the
    # default-arg bindings skip the module-attribute lookups.
    def put(self, request: DiskRequest, _heappush=heapq.heappush) -> None:
        _heappush(self._heap, (request.priority, request.seq, request))

    def pop(self, current_cylinder: int, _heappop=heapq.heappop) -> DiskRequest:
        if not self._heap:
            raise IndexError("pop from empty disk queue")
        return _heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[DiskRequest]:
        return (entry[2] for entry in self._heap)


class SSTFScheduler(DiskScheduler):
    """Shortest-seek-time-first within the most urgent priority class.

    Starvation note: pure SSTF can starve far-away requests under load;
    this implementation confines the position choice to the best priority
    class, so synchronous traffic still pre-empts background destage
    writes deterministically.
    """

    __slots__ = ("_items", "_geometry")

    def __init__(self, geometry) -> None:
        self._items: list[DiskRequest] = []
        self._geometry = geometry

    def put(self, request: DiskRequest) -> None:
        self._items.append(request)

    def pop(self, current_cylinder: int) -> DiskRequest:
        if not self._items:
            raise IndexError("pop from empty disk queue")
        best_prio = min(req.priority for req in self._items)
        best_idx = -1
        best_key: Optional[tuple[int, int]] = None
        for i, req in enumerate(self._items):
            if req.priority != best_prio:
                continue
            dist = abs(self._geometry.cylinder_of(req.start_block) - current_cylinder)
            key = (dist, req.seq)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = i
        return self._items.pop(best_idx)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[DiskRequest]:
        return iter(self._items)
