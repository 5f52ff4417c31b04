"""Shared resources and stores for the DES kernel.

:class:`Resource`
    Limited-capacity server pool with priority queueing (lower value =
    higher priority; FIFO within a priority class).  Used to model the
    host channel and track-buffer pools.

:class:`Store` / :class:`PriorityStore`
    Producer/consumer buffers of Python objects.  The simulator does not
    use them: each disk queues its requests in :mod:`repro.disk.scheduler`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.des.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment

__all__ = ["Request", "Release", "Resource", "Store", "StorePut", "StoreGet", "PriorityStore"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Supports the context-manager protocol so that callers can write::

        with resource.request() as req:
            yield req
            ...

    and have the claim released automatically: a granted claim is
    released, and one still queued (the waiter left the block without
    being granted, e.g. its generator was closed at the ``yield``) is
    withdrawn.
    """

    __slots__ = ("resource", "priority", "time")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        # Event.__init__ written out: one claim per channel transfer.
        env = self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._exc = None
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        self.time = env._now

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._value is PENDING:
            self.cancel()
        else:
            self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        self.resource._cancel(self)


class Release(Event):
    """Event representing the completion of a release (always immediate)."""

    __slots__ = ("request",)

    def __init__(self, env: "Environment", request: Request) -> None:
        # Born succeeded: Event.__init__ plus succeed(), written out.
        self.env = env
        self.callbacks = []
        self._value = None
        self._exc = None
        self._ok = True
        self._defused = False
        self.request = request
        env._seq += 1
        env._ready.append(self)


class Resource:
    """A pool of ``capacity`` identical servers with a priority queue.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of claims that may be outstanding simultaneously.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self._waiting: list[tuple[float, int, Request]] = []
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of currently granted claims."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    def request(self, priority: float = 0.0) -> Request:
        """Claim a server; the returned event triggers when granted."""
        req = Request(self, priority)
        if len(self.users) < self.capacity and not self._waiting:
            self.users.append(req)
            req.succeed()
        else:
            self._seq += 1
            heapq.heappush(self._waiting, (priority, self._seq, req))
        return req

    def release(self, request: Request) -> Release:
        """Release a granted claim, waking the highest-priority waiter."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(f"{request!r} does not hold {self!r}") from None
        self._grant_next()
        return Release(self.env, request)

    def _cancel(self, request: Request) -> None:
        for i, (_, _, queued) in enumerate(self._waiting):
            if queued is request:
                del self._waiting[i]
                heapq.heapify(self._waiting)
                return

    def _grant_next(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            _, _, req = heapq.heappop(self._waiting)
            if req.triggered:  # pragma: no cover - cancelled and re-granted
                continue
            self.users.append(req)
            req.succeed()


class StorePut(Event):
    """Completion event of a :meth:`Store.put` (always immediate here)."""

    __slots__ = ("item",)

    def __init__(self, env: "Environment", item: Any) -> None:
        super().__init__(env)
        self.item = item


class StoreGet(Event):
    """Event that triggers with the next available store item."""

    __slots__ = ()


class Store:
    """Unbounded FIFO buffer of Python objects."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list[Any]:
        """Snapshot of buffered items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> StorePut:
        """Add *item*; wakes the oldest waiting getter, if any."""
        event = StorePut(self.env, item)
        event.succeed(item)
        self._items.append(item)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Request the next item; triggers immediately if one is buffered."""
        event = StoreGet(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            if getter.triggered:  # pragma: no cover - defensive
                continue
            getter.succeed(self._pop_item())

    def _pop_item(self) -> Any:
        return self._items.popleft()


class PriorityStore(Store):
    """Store whose items are retrieved lowest-priority-value first.

    Items are inserted with an explicit priority; ties are FIFO.
    """

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> list[Any]:
        """Snapshot of buffered items in retrieval order."""
        return [item for _, _, item in sorted(self._heap)]

    def put(self, item: Any, priority: float = 0.0) -> StorePut:  # type: ignore[override]
        """Insert *item* with the given priority."""
        event = StorePut(self.env, item)
        event.succeed(item)
        self._seq += 1
        heapq.heappush(self._heap, (priority, self._seq, item))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        while self._getters and self._heap:
            getter = self._getters.popleft()
            if getter.triggered:  # pragma: no cover - defensive
                continue
            getter.succeed(self._pop_item())

    def _pop_item(self) -> Any:
        _, _, item = heapq.heappop(self._heap)
        return item
