"""Layer ledger: host-time spans around the entry points of each layer.

The ledger attributes the host time of a run to the ``repro``
subpackages (the *layers*) without editing them.  While installed it
patches, from the outside:

* ``Environment.process`` — every generator handed to the kernel is
  replaced by a proxy that times each resume as a span of the
  subpackage whose code defines the generator (the sim request loop,
  controller sub-processes, the disk service process, destage and
  spooler processes);
* ``Environment.run`` — a kernel span; its self time is the kernel's
  dispatch.  An ``Environment.on_event`` hook counts events by type;
* the cross-layer calls listed in :data:`TARGETS` — a span each; a call
  that returns a generator (``Channel.transfer``, ``handle``...) also
  hands back a proxy timing that generator's resumes.

A span's *self time* is its duration minus the durations of the spans
nested in it, so the self times of all layers add up to the root span.
A call into the layer that is already running is counted but gets no
span of its own: its time belongs to that layer either way, and
skipping the clock keeps nested cache and layout calls cheap.

Tracing costs host time — about 2 µs per span on a DES run with
CPython 3.11 on x86-64, about as much as the simulator work a span
encloses — and the part outside a span's clock reads lands in the layer
that makes the traced call or resume (the kernel, for process
resumes).  Compare self times between commits
under the same ledger, never with untraced wall time.

Every resume and call is aggregated.  Full spans (id, parent, request,
layer, name, start, end) are kept in memory for the first
:data:`SPAN_REQUESTS` requests and for background work that starts
before that many requests were released; :meth:`Ledger.write_spans` writes them
out when the run is over.  The disk service process serves many
requests, so its spans carry request id -1 (background).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Iterator

__all__ = ["Ledger", "SPAN_REQUESTS", "TARGETS"]

_GENERATOR = types.GeneratorType
_NO_KWARGS: dict = {}

#: Requests whose full spans are kept for :meth:`Ledger.write_spans`.
SPAN_REQUESTS = 1000

#: Cross-layer entry points: (module, owner, attributes, layer).  An
#: owner of ``None`` means module-level functions; a class owner is
#: patched on itself and on every subclass that defines the attribute.
#: ``"*public*"`` selects every public plain function of the class.
TARGETS = (
    ("repro.array.controller", "ArrayController", ("handle",), "array"),
    ("repro.channel.bus", "Channel", ("transfer",), "channel"),
    ("repro.channel.trackbuffer", "TrackBufferPool", ("acquire", "release"), "channel"),
    ("repro.layout.common", "Layout",
     ("map_block", "map_blocks", "read_runs", "write_plan"), "layout"),
    ("repro.cache.lru", "LRUCache", "*public*", "cache"),
    ("repro.cache.paritycache", "ParityCacheQueue", "*public*", "cache"),
    ("repro.cache.destage", None, ("plan_destage_runs",), "cache"),
    ("repro.cache.fastsim", None, ("simulate_hit_ratios",), "cache"),
    ("repro.disk.drive", "Disk", ("submit",), "disk"),
    ("repro.trace.synthetic", None, ("generate_trace",), "trace"),
    ("repro.trace.synthetic", "TraceStream", ("chunks",), "trace"),
    ("repro.trace.transform", None, ("slice_arrays",), "trace"),
    ("repro.sim.system", None, ("build_system",), "sim"),
    ("repro.sim.runner", None, ("run_trace",), "sim"),
    ("repro.analytic.solver", None, ("solve_trace",), "analytic"),
    ("repro.analytic.decompose", None, ("decompose",), "analytic"),
)

#: Layer of the benchmark's own code (the root span's self time).
ROOT_LAYER = "bench"


def layer_of_module(module: str) -> str:
    """``repro.disk.drive`` -> ``disk``; anything outside repro -> bench."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return ROOT_LAYER


class _Proxy:
    """A generator stand-in timing each resume as a span of one layer.

    Forwards ``send``, ``throw`` and ``close``; the wrapped generator's
    return value travels in the ``StopIteration`` unchanged, so
    ``yield from`` and the kernel see exactly what they would without
    it.
    """

    def __init__(self, ledger: "Ledger", gen, layer: int, rid: int, name: str) -> None:
        self._gen = gen
        self._send = gen.send
        self._span = ledger.span
        self._resumes = ledger.resumes
        self._layer = layer
        self._rid = rid
        self._name = name
        # Process names come from the generator's __name__.
        self.__name__ = gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._layer, self._name, self._rid, self._resumes,
                          self._send, (None,), _NO_KWARGS)

    def send(self, value):
        return self._span(self._layer, self._name, self._rid, self._resumes,
                          self._send, (value,), _NO_KWARGS)

    def throw(self, *exc):
        return self._span(self._layer, self._name, self._rid, self._resumes,
                          self._gen.throw, exc, _NO_KWARGS)

    def close(self):
        return self._gen.close()


class Ledger:
    """Per-layer self time, call and resume counts, and event counts.

    Use as::

        ledger = Ledger()
        with ledger.installed():
            ledger.root(work)      # the root span
        ledger.self_seconds()      # {layer: seconds}
    """

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._index: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []    # per layer, same-layer calls included
        self.resumes: list[int] = []  # per layer, generator resumes
        # Open spans, innermost last: [layer, child_ns, span_id].
        self.stack: list[list] = []
        # [current request id, requests released, next span id]
        self._ctx = [-1, 0, 0]
        self.spans: list[tuple] = []
        self.root_ns = 0
        #: Processed kernel events by event class.
        self.events: defaultdict = defaultdict(int)
        #: Every ArraySystem returned by ``build_system`` while installed.
        self.systems: list = []
        self._patches: list[tuple[object, str, object]] = []
        self.span = self._make_span()

    # -- accounting ----------------------------------------------------------
    def layer(self, name: str) -> int:
        """Index of layer *name*, registering it on first use."""
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.layers)
            self.layers.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
            self.resumes.append(0)
        return idx

    def _make_span(self) -> Callable:
        # A closure over locals: this runs for every traced call and
        # resume, and each attribute lookup saved is tracing cost saved.
        stack, self_ns, spans, ctx = self.stack, self.self_ns, self.spans, self._ctx
        limit = SPAN_REQUESTS
        clock = time.perf_counter_ns

        def span(layer, name, rid, counts, fn, args, kwargs):
            """Run ``fn(*args, **kwargs)`` as a span of *layer*."""
            parent = stack[-1]
            counts[layer] += 1
            if parent[0] == layer:
                return fn(*args, **kwargs)
            if (0 <= rid < limit) or (rid < 0 and ctx[1] < limit):
                sid = ctx[2]
                ctx[2] = sid + 1
            else:
                sid = -1
            frame = [layer, 0, sid]
            prev_rid = ctx[0]
            ctx[0] = rid
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ctx[0] = prev_rid
                dur = t1 - t0
                self_ns[layer] += dur - frame[1]
                parent[1] += dur
                if sid >= 0:
                    spans.append((sid, parent[2], rid, layer, name, t0, t1))

        return span

    def root(self, fn: Callable, *args, **kwargs):
        """Run *fn* as the root span (the benchmark's own layer)."""
        if self.stack:
            raise RuntimeError("the root span is already open")
        layer = self.layer(ROOT_LAYER)
        sid = self._ctx[2]
        self._ctx[2] += 1
        frame = [layer, 0, sid]
        self.stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            dur = t1 - t0
            self.root_ns += dur
            self.self_ns[layer] += dur - frame[1]
            self.spans.append((sid, -1, -1, layer, fn.__name__, t0, t1))

    def self_seconds(self) -> dict[str, float]:
        return {name: self.self_ns[i] / 1e9 for i, name in enumerate(self.layers)}

    def count(self, layer: str, resumes: bool = False) -> int:
        idx = self._index.get(layer)
        if idx is None:
            return 0
        return (self.resumes if resumes else self.calls)[idx]

    @property
    def spans_opened(self) -> int:
        """Calls and resumes counted, same-layer calls included."""
        return sum(self.calls) + sum(self.resumes)

    def event_kinds(self) -> dict[str, int]:
        """Processed events grouped as timeout/condition/process/resource/other."""
        from repro.des import Condition, Process, Timeout
        from repro.des.resources import Release, Request, StoreGet, StorePut

        kinds = dict.fromkeys(("timeout", "condition", "process", "resource", "other"), 0)
        for cls, n in self.events.items():
            if issubclass(cls, Timeout):
                kinds["timeout"] += n
            elif issubclass(cls, Condition):
                kinds["condition"] += n
            elif issubclass(cls, Process):
                kinds["process"] += n
            elif issubclass(cls, (Request, Release, StorePut, StoreGet)):
                kinds["resource"] += n
            else:
                kinds["other"] += n
        return kinds

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w") as fh:
            for sid, parent, rid, layer, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": rid,
                    "layer": self.layers[layer], "name": name,
                    "start_ns": t0, "end_ns": t1,
                }) + "\n")
        return len(self.spans)

    # -- patching --------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Patch the entry points for the duration of the ``with`` block."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _wrap(self, fn, layer_name: str, name: str, after: Callable | None = None):
        layer = self.layer(layer_name)
        span, ctx, calls = self.span, self._ctx, self.calls
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = span(layer, name, ctx[0], calls, fn, args, kwargs)
            if after is not None:
                after(result)
            if type(result) is _GENERATOR:
                return _Proxy(ledger, result, layer, ctx[0], name)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        from repro.des.environment import Environment
        from repro.sim import runner

        wrapped_functions: dict[int, tuple] = {}
        for module_name, owner_name, attrs, layer in TARGETS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                for attr in attrs:
                    fn = getattr(module, attr)
                    after = self.systems.append if attr == "build_system" else None
                    wrapped_functions[id(fn)] = (fn, self._wrap(fn, layer, attr, after))
                continue
            for cls in _class_tree(getattr(module, owner_name)):
                names = attrs
                if attrs == "*public*":
                    names = [
                        k for k, v in cls.__dict__.items()
                        if not k.startswith("_") and inspect.isfunction(v)
                    ]
                for attr in names:
                    fn = cls.__dict__.get(attr)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    self._set(cls, attr, self._wrap(fn, layer, f"{cls.__name__}.{attr}"))

        # Module-level functions are rebound wherever they were imported
        # by name (``from repro.sim.system import build_system``...).
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrapped_functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

        self._install_kernel(Environment, runner._request.__code__)

    def _install_kernel(self, environment, request_code) -> None:
        ledger = self
        span, ctx, calls = self.span, self._ctx, self.calls
        des = self.layer("des")
        orig_process = environment.process
        orig_run = environment.run
        layer_by_code: dict = {}

        def process(env, generator):
            if type(generator) is _GENERATOR:
                code = generator.gi_code
                layer = layer_by_code.get(code)
                if layer is None:
                    module = generator.gi_frame.f_globals.get("__name__", "")
                    layer = layer_by_code[code] = ledger.layer(layer_of_module(module))
                if code is request_code:
                    rid = ctx[1]
                    ctx[1] += 1
                else:
                    rid = ctx[0]
                generator = _Proxy(ledger, generator, layer, rid, generator.__qualname__)
            return span(des, "Environment.process", ctx[0], calls, orig_process,
                        (env, generator), _NO_KWARGS)

        events = self.events

        def count_event(_time, event):
            events[type(event)] += 1

        def run(env, until=None):
            env.on_event(count_event)
            try:
                return span(des, "Environment.run", ctx[0], calls, orig_run,
                            (env, until), _NO_KWARGS)
            finally:
                env.off_event(count_event)

        self._set(environment, "process", process)
        self._set(environment, "run", run)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _class_tree(base: type) -> list[type]:
    """*base* and all its (transitively) imported subclasses."""
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen
