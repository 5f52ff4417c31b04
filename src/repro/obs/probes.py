"""The probe bus: every observation tap, declared once.

The simulator reports what it does through *taps*.  Each array
controller, channel, disk and cache has one ``probe`` slot, and each tap
is a call site of the form ::

    if self.probe is not None:
        self.probe.on_disk_submit(self, request)

With nothing observing a system every slot is ``None``, so a tap costs
that one branch.  Once anything observes it, every slot holds one shared
:class:`ProbeBus`.  Observers subscribe to the bus by defining
``on_<tap>`` methods for the taps of :data:`TAPS` they want: the
validation monitor subscribes its invariant checkers, the span tracer
and the metrics collector subscribe themselves.  The runner emits its
three request-lifecycle taps on the same bus.  Observers may attach and
detach in any order; the last one out clears every slot.
"""

from __future__ import annotations

import inspect
from typing import Any, Iterator, Sequence

__all__ = ["TAPS", "ProbeBus", "probe_slots"]

#: Every tap, by name, with the arguments its ``on_<name>`` receives.
TAPS: dict[str, tuple[str, ...]] = {
    # Disks: queued, completed, and each timed service phase (seek,
    # rotation, transfer, sync_wait, rmw_rotate, ...).
    "disk_submit": ("disk", "request"),
    "disk_complete": ("disk", "request"),
    "disk_phase": ("disk", "request", "phase", "t0", "t1"),
    # Channels: at enqueue, and at the end of the wire transfer.
    "channel_request": ("channel", "nbytes"),
    "channel_transfer": ("channel", "nbytes", "duration"),
    # Caches: after every mutation (reserve, release, insert_clean,
    # write, evict, begin_destage, finish_destage).
    "cache_op": ("cache", "op", "arg"),
    # Controllers: request admission, write planning, destage, and the
    # degraded-mode events of the uncached controllers.
    "handle": ("controller", "lstart", "nblocks", "is_write"),
    "destage": ("controller", "run"),
    "write_group": ("controller", "group"),
    "parity_update": ("controller", "run", "parity_runs"),
    "degraded": ("controller", "kind"),
    "data_loss": ("controller", "kind", "disk", "pblock"),
    "mirror_route": ("controller", "run", "chosen", "alternate", "seek_chosen", "seek_alt"),
    # The runner: a request released (with its root process) and
    # completed, and each response time it measures after warm-up.
    "request_released": ("rid", "process", "lstart", "nblocks", "is_write"),
    "request_completed": ("rid",),
    "response": ("rt_ms", "is_write"),
}


def probe_slots(controllers: Sequence) -> Iterator[Any]:
    """Every object with a probe slot in *controllers*' arrays, as they
    are now (a spare attached after a failure included)."""
    for ctrl in controllers:
        yield ctrl
        yield ctrl.channel
        yield from ctrl.disks
        cache = getattr(ctrl, "cache", None)
        if cache is not None:
            yield cache


def _ignore(*args) -> None:
    """What a tap no subscriber defines is bound to."""


def _fan_out(handlers: tuple):
    def fan_out(*args) -> None:
        for handler in handlers:
            handler(*args)

    return fan_out


def _check_taps(subscriber) -> None:
    """Reject an ``on_*`` method that is not a tap or cannot take its
    arguments: it would otherwise never fire, or fail mid-run."""
    for name in dir(subscriber):
        if not name.startswith("on_"):
            continue
        where = f"{type(subscriber).__name__}.{name}"
        args = TAPS.get(name[3:])
        if args is None:
            raise TypeError(f"{where} is not a probe tap (see repro.obs.probes.TAPS)")
        try:
            inspect.signature(getattr(subscriber, name)).bind(*args)
        except TypeError:
            raise TypeError(
                f"{where} cannot take the tap's arguments ({', '.join(args)})"
            ) from None


class ProbeBus:
    """Dispatches each tap to the subscribers that define ``on_<tap>``.

    Whenever a subscriber joins or leaves, the bus rebinds its own
    ``on_<tap>`` attributes: to the bound method of the one subscriber
    that defines the tap, to a loop over several, or to a no-op.  A
    subscriber thus costs nothing on the taps it does not define.

    Use :meth:`of` to get the bus of a system, so that every observer of
    it shares one.
    """

    def __init__(self, controllers: Sequence) -> None:
        self.controllers = list(controllers)
        self.subscribers: list = []
        self._rebind()

    @classmethod
    def of(cls, controllers: Sequence) -> "ProbeBus":
        """The bus observing *controllers*, or a new one if none does."""
        for ctrl in controllers:
            if isinstance(ctrl.probe, cls):
                return ctrl.probe
        return cls(controllers)

    def subscribe(self, *subscribers) -> None:
        """Add *subscribers*; the bus then holds every probe slot."""
        for subscriber in subscribers:
            _check_taps(subscriber)
        self.subscribers.extend(subscribers)
        self._rebind()
        self._install()

    def unsubscribe(self, *subscribers) -> None:
        """Remove *subscribers*; without any left, every slot is cleared."""
        for subscriber in subscribers:
            self.subscribers.remove(subscriber)
        self._rebind()
        self._install()

    def _rebind(self) -> None:
        for tap in TAPS:
            name = "on_" + tap
            handlers = tuple(
                getattr(s, name) for s in self.subscribers if hasattr(s, name)
            )
            if not handlers:
                setattr(self, name, _ignore)
            elif len(handlers) == 1:
                setattr(self, name, handlers[0])
            else:
                setattr(self, name, _fan_out(handlers))

    def _install(self) -> None:
        probe = self if self.subscribers else None
        for obj in probe_slots(self.controllers):
            obj.probe = probe
