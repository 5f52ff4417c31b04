"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield``ed event
suspends the process; when that event triggers, the process resumes with
the event's value (or the event's exception is thrown into the generator).
A process is itself an event that triggers when the generator returns, so
processes can wait for each other.  Nothing interrupts a process: it
waits on the event it yielded until that event is processed.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.des.events import Event, PENDING, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment

__all__ = ["Process"]


class Process(Event):
    """An active simulation entity driven by a generator.

    The process is started immediately: an initialization event is
    scheduled at the current simulation time, so the generator body begins
    executing once the environment processes that event (i.e. *not*
    synchronously inside the constructor).
    """

    __slots__ = ("_generator", "_send", "name", "parent")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        # Any object with send() and throw() runs as a process (timing
        # proxies wrap generators this way); true generators skip the
        # attribute probes.
        if type(generator) is GeneratorType:
            name = generator.__name__
        elif hasattr(generator, "send") and hasattr(generator, "throw"):
            name = getattr(generator, "__name__", "process")
        else:
            raise TypeError(f"{generator!r} is not a generator")
        # Event.__init__ written out: one process per request.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._exc = None
        self._ok = True
        self._defused = False
        self._generator = generator
        # Pre-bound send(): one attribute hop instead of two per resume.
        self._send = generator.send
        self.name = name
        #: The process that was active when this one was spawned (``None``
        #: for processes created outside any process, e.g. at build time).
        #: Observers use the chain to attribute work to a logical request.
        self.parent: Optional[Process] = env._active_proc

        init = Event(env)
        init._value = None
        init.callbacks = [self._resume]
        # ``env.schedule(init)``, inlined as in Event.succeed.
        env._seq += 1
        env._ready.append(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING and self._exc is None

    # -- machinery ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome."""
        env = self.env
        env._active_proc = self
        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    # The process handles (or propagates) the failure.
                    event._defused = True
                    exc = event._exc
                    assert exc is not None
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                # ``env.schedule(self)``, inlined as in Event.succeed.
                env._seq += 1
                env._ready.append(self)
                break
            except BaseException as error:
                self._ok = False
                self._exc = error
                self._defused = False
                env.schedule(self)
                break

            # The dominant sleep-resume pattern — yielding a fresh pending
            # timeout nobody else waits on — parks this process in the
            # timeout's fast-lane slot, skipping the bound-method
            # allocation and list append of the generic path below.
            if type(next_event) is Timeout:
                cbs = next_event.callbacks
                if cbs is not None:
                    if next_event._proc is None and not cbs:
                        next_event._proc = self
                    else:
                        cbs.append(self._resume)
                    break
                # Already processed: continue synchronously.
                event = next_event
                continue

            if not isinstance(next_event, Event):
                error = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._exc = error
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                next_event.callbacks.append(self._resume)
                break

            # Already processed: continue synchronously with its outcome.
            event = next_event

        env._active_proc = None

    def __repr__(self) -> str:
        return f"<Process({self.name}) object at 0x{id(self):x}>"
