"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence with an outcome (a value on
success, an exception on failure).  Processes wait on events by yielding
them; arbitrary callbacks may also be attached.  Events move through three
states:

``pending``
    created but not yet triggered; ``callbacks`` is a (possibly empty) list.
``triggered``
    an outcome has been set and the event sits in one of the environment's
    queues.
``processed``
    the environment has invoked the callbacks; ``callbacks`` is ``None``.

A :class:`Timeout` is due a fixed delay after its creation.  A
:class:`Condition` (``a & b``, ``a | b``, :class:`AllOf`, :class:`AnyOf`)
waits on several events at once and succeeds with ``None``; its waiter
reads the sub-events' own values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
]


class _PendingType:
    """Sentinel type for the value of an untriggered event."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Sentinel marking an event whose outcome has not been decided yet.
PENDING = _PendingType()


class Event:
    """A one-shot simulation event.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked (in order) when the event is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._exc: Optional[BaseException] = None
        self._ok: bool = True
        self._defused: bool = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once an outcome (success or failure) has been set."""
        return self._value is not PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's outcome value.

        Raises :class:`AttributeError` if the event is not yet triggered.
        """
        if self._value is PENDING and self._exc is None:
            raise AttributeError(f"value of {self!r} is not yet available")
        if not self._ok:
            assert self._exc is not None
            return self._exc
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Set a successful outcome and schedule the event immediately."""
        if self._value is not PENDING or self._exc is not None:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # ``env.schedule(self)`` inlined: due now, so the ready queue.
        env = self.env
        env._seq += 1
        env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Set a failure outcome and schedule the event immediately.

        The failure propagates to every waiting process; if nobody handles
        it (``defused``), the environment re-raises it from ``run`` or
        ``step``, ending the simulation loudly rather than silently
        dropping an error.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._exc = exception
        self.env.schedule(self)
        return self

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__}() object at 0x{id(self):x}>"


class Timeout(Event):
    """An event that triggers after a fixed delay.

    The timeout is scheduled at construction time, so creating one is
    enough; there is no separate activation step.

    Timeouts carry a single-slot fast lane (``_proc``): when exactly one
    process yields a pending timeout that has no other callbacks, the
    process parks itself in ``_proc`` instead of appending a bound
    ``_resume`` to the callback list.  The environment resumes ``_proc``
    first when the timeout fires — semantically the slot is
    ``callbacks[0]``, so dispatch order is unchanged — and may then
    recycle the object through its freelist.  Any second waiter, explicit
    callback or condition falls back to the ordinary list (and inhibits
    recycling).
    """

    __slots__ = ("delay", "_proc")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # ``not >=`` rather than ``<``: NaN fails every comparison.
        if not delay >= 0:
            raise ValueError(f"invalid delay {delay} (must be >= 0)")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self._proc = None
        env.schedule(self, delay)

    @property
    def triggered(self) -> bool:
        # A timeout's outcome is decided at creation; it is "triggered"
        # only once its time has come (i.e. it has been processed).
        return self.processed

    def __repr__(self) -> str:
        return f"<Timeout({self.delay}) object at 0x{id(self):x}>"


class Condition(Event):
    """An event that triggers when a predicate over sub-events holds.

    Used through the ``&`` / ``|`` operators or the :class:`AllOf` /
    :class:`AnyOf` helpers.  The condition succeeds with ``None``; a
    waiter reads each sub-event's own ``value``.  The first sub-event to
    fail fails the condition with its exception.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list["Event"], int], bool],
        events: Iterable["Event"],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")

        # Immediately check events that are already processed, subscribe
        # to the rest.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self._events:
            # An empty condition is trivially satisfied.
            self.succeed()

    def _check(self, event: "Event") -> None:
        if self._value is not PENDING or self._exc is not None:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._exc)  # type: ignore[arg-type]
        elif self._evaluate(self._events, self._count):
            self.succeed(None)

    @staticmethod
    def all_events(events: list["Event"], count: int) -> bool:
        """Predicate: all sub-events have triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list["Event"], count: int) -> bool:
        """Predicate: at least one sub-event has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition that triggers once *all* of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable["Event"]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once *any* of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable["Event"]) -> None:
        super().__init__(env, Condition.any_events, events)
