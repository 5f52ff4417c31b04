"""Deterministic fault injectors — proof that the checkers are alive.

A checker that never fires is indistinguishable from a checker that
checks nothing, so every stock checker ships with a fault that breaks
exactly the invariant it guards.  Each injector is a context manager
that patches a simulator class method for its scope and restores it on
exit; all are deterministic (no randomness), so a mutation smoke-test
fails reproducibly.

These exist for the test suite.  Production code must never import
them.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "drop_parity_updates",
    "lose_completions",
    "suppress_cache_probe",
    "inflate_cache_hits",
    "inflate_channel_busy",
    "leak_track_buffer",
    "write_through_failed_disk",
]


@contextmanager
def drop_parity_updates():
    """Controllers silently stop updating parity.

    Uncached write groups lose their ``parity_runs``; cached destages
    derive an empty parity set.  Trips ``parity-consistency``.
    """
    from repro.array.cached import CachedController
    from repro.array.uncached import _UncachedController

    orig_group = _UncachedController._write_group
    orig_pruns = CachedController._parity_runs_for

    def faulty_group(self, group):
        group.parity_runs = []
        return orig_group(self, group)

    def faulty_pruns(self, run):
        return []

    _UncachedController._write_group = faulty_group
    CachedController._parity_runs_for = faulty_pruns
    try:
        yield
    finally:
        _UncachedController._write_group = orig_group
        CachedController._parity_runs_for = orig_pruns


@contextmanager
def lose_completions(every: int = 2):
    """Every *every*-th request completion notification is dropped.

    Models a runner that loses track of in-flight requests.  Trips
    ``request-conservation`` at finalize (requests released but never
    completed).
    """
    from repro.validate.conservation import RequestConservationChecker

    orig = RequestConservationChecker.on_request_completed
    state = {"n": 0}

    def faulty(self, rid):
        state["n"] += 1
        if state["n"] % every == 0:
            return
        orig(self, rid)

    RequestConservationChecker.on_request_completed = faulty
    try:
        yield
    finally:
        RequestConservationChecker.on_request_completed = orig


@contextmanager
def suppress_cache_probe(every: int = 3):
    """Every *every*-th cache write mutates state without reporting it.

    The real cache and the shadow model diverge.  Trips
    ``cache-accounting`` at finalize.
    """
    from repro.cache.lru import LRUCache

    orig = LRUCache.write
    state = {"n": 0}

    def faulty(self, lblock):
        state["n"] += 1
        if state["n"] % every == 0:
            probe, self.probe = self.probe, None
            try:
                return orig(self, lblock)
            finally:
                self.probe = probe
        return orig(self, lblock)

    LRUCache.write = faulty
    try:
        yield
    finally:
        LRUCache.write = orig


@contextmanager
def inflate_cache_hits(extra: int = 1):
    """The cache over-reports read hits by *extra* (once).

    Hits + misses no longer reconcile with the requests the controller
    admitted.  Trips ``cache-accounting`` at finalize.
    """
    from repro.cache.lru import LRUCache

    orig = LRUCache.probe_read
    state = {"done": False}

    def faulty(self, lblocks):
        if not state["done"]:
            state["done"] = True
            self.read_hits += extra
        return orig(self, lblocks)

    LRUCache.probe_read = faulty
    try:
        yield
    finally:
        LRUCache.probe_read = orig


@contextmanager
def inflate_channel_busy(extra_ms: float = 5.0):
    """The channel's busy-time counter drifts from its real transfers.

    Trips ``resource-sanity`` at finalize (shadow busy-time mismatch).
    """
    from repro.channel.bus import Channel

    orig = Channel.transfer
    state = {"done": False}

    def faulty(self, nbytes):
        result = yield from orig(self, nbytes)
        if not state["done"]:
            state["done"] = True
            self.busy_time += extra_ms
        return result

    Channel.transfer = faulty
    try:
        yield
    finally:
        Channel.transfer = orig


@contextmanager
def leak_track_buffer():
    """The first track-buffer release is silently dropped.

    Buffers stay "in use" forever.  Trips ``resource-sanity`` at
    finalize (non-empty pool at end of run).
    """
    from repro.channel.trackbuffer import TrackBufferPool

    orig = TrackBufferPool.release
    state = {"done": False}

    def faulty(self, k=1):
        if not state["done"]:
            state["done"] = True
            return None
        return orig(self, k)

    TrackBufferPool.release = faulty
    try:
        yield
    finally:
        TrackBufferPool.release = orig


@contextmanager
def write_through_failed_disk():
    """Degraded parity arrays run write groups as planned for a healthy
    array, so a write reaches the failed disk.  Trips ``failed-disk``.
    """
    from repro.array.uncached import UncachedParityController

    orig = UncachedParityController._degrade

    def faulty(self, group):
        return [group]

    UncachedParityController._degrade = faulty
    try:
        yield
    finally:
        UncachedParityController._degrade = orig
