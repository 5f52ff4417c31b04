"""Discrete-event simulation kernel.

A compact, deterministic, generator-coroutine DES kernel in the style of
simpy, which is not a dependency.  Simulation *processes* are Python
generators that ``yield`` :class:`~repro.des.events.Event` instances; the
:class:`~repro.des.environment.Environment` advances a virtual clock and
resumes processes when the events they wait on are processed.  The kernel
holds only what the simulator runs: unlike simpy's, its processes cannot
be interrupted, and a condition (``AllOf``, ``AnyOf``, ``&``, ``|``)
succeeds with ``None`` instead of a mapping of its sub-events' values.

Determinism: events scheduled for the same simulated time are processed in
schedule order (a monotonically increasing sequence number breaks ties), so a
simulation with a fixed random seed is exactly reproducible.

Example
-------
>>> from repro.des import Environment
>>> def clock(env, out):
...     while env.now < 3:
...         out.append(env.now)
...         yield env.timeout(1)
>>> env = Environment()
>>> ticks = []
>>> env.process(clock(env, ticks))
<Process(clock) object at ...>
>>> env.run()
>>> ticks
[0, 1, 2]
"""

from repro.des.environment import Environment
from repro.des.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.des.process import Process
from repro.des.resources import (
    PriorityStore,
    Release,
    Request,
    Resource,
    Store,
)
from repro.des.monitor import Tally, TimeWeighted

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "PriorityStore",
    "Process",
    "Release",
    "Request",
    "Resource",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
]
