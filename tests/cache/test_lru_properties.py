"""Randomized property tests: LRUCache versus an independent reference model.

Hypothesis drives the cache with arbitrary legal operation streams and
checks, after every step, that residency, recency order, dirty state,
old-copy and reservation accounting all match a straightforward
reference implementation (a plain OrderedDict of dicts).  The reference
re-implements the §3.4 semantics from the docstrings, not from the
cache's code, so an agreement failure means the cache diverged from its
spec.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import BlockState, LRUCache

CAPACITY = 8
BLOCKS = 12  # > capacity, to force eviction pressure

ops_st = st.lists(st.integers(min_value=0, max_value=6 * BLOCKS - 1), max_size=200)


class Reference:
    """Independent model of the cache's documented semantics."""

    def __init__(self, capacity, track_old):
        self.capacity = capacity
        self.track_old = track_old
        self.entries = OrderedDict()  # lblock -> dict
        self.old_copies = 0
        self.reserved = 0

    @classmethod
    def of(cls, cache):
        """A model starting from *cache*'s current state."""
        ref = cls(cache.capacity, cache.track_old)
        for lb, e in cache.iter_blocks():
            ref.entries[lb] = dict(
                dirty=e.state is BlockState.DIRTY,
                old=e.has_old,
                destaging=e.destaging,
                redirtied=e.redirtied,
            )
        ref.old_copies = cache.old_copies
        ref.reserved = cache.reserved_slots
        return ref

    @property
    def occupancy(self):
        return len(self.entries) + self.old_copies + self.reserved

    @property
    def free(self):
        return self.capacity - self.occupancy

    def read(self, b):
        if b in self.entries:
            self.entries.move_to_end(b)
            return True
        return False

    def insert_clean(self, b):
        self.entries[b] = dict(dirty=False, old=False, destaging=False, redirtied=False)

    def write(self, b):
        e = self.entries.get(b)
        if e is None:
            self.entries[b] = dict(dirty=True, old=False, destaging=False, redirtied=False)
            return
        self.entries.move_to_end(b)
        if not e["dirty"]:
            e["dirty"] = True
            if self.track_old:
                e["old"] = True
                self.old_copies += 1
        elif e["destaging"]:
            e["redirtied"] = True

    def evict(self, b):
        del self.entries[b]

    def begin_destage(self, b):
        e = self.entries[b]
        e["destaging"] = True
        e["redirtied"] = False

    def finish_destage(self, b):
        e = self.entries[b]
        e["destaging"] = False
        if e["old"]:
            e["old"] = False
            self.old_copies -= 1
        if e["redirtied"]:
            e["redirtied"] = False
            if self.track_old and self.free >= 1:
                e["old"] = True
                self.old_copies += 1
        else:
            e["dirty"] = False


def apply_op(cache, ref, code):
    """Decode one operation and apply it to both implementations."""
    kind, b = divmod(code, BLOCKS)
    if kind == 0:  # read probe
        assert cache.probe_read([b]) == ref.read(b)
    elif kind == 1:  # fill from disk
        if b not in cache and cache.free_slots >= 1:
            cache.insert_clean(b)
            ref.insert_clean(b)
    elif kind == 2:  # host write
        entry = cache.get(b)
        if entry is None:
            legal = cache.free_slots >= 1
        elif entry.state is BlockState.CLEAN and cache.track_old:
            legal = entry.has_old or cache.free_slots >= 1
        else:
            legal = True
        if legal:
            cache.write(b)
            ref.write(b)
    elif kind == 3:  # replacement
        candidate = cache.eviction_candidate()
        if candidate is not None:
            lb, entry = candidate
            if entry.state is BlockState.CLEAN:
                cache.evict(lb)
                ref.evict(lb)
    elif kind == 4:  # destage begin/finish
        dirty = cache.dirty_blocks()
        if dirty and b % 2 == 0:
            lb = min(dirty)
            cache.begin_destage(lb)
            ref.begin_destage(lb)
        else:
            in_flight = [
                lb for lb, e in cache.iter_blocks() if e.destaging
            ]
            if in_flight:
                lb = min(in_flight)
                cache.finish_destage(lb)
                ref.finish_destage(lb)
    else:  # slot reservation traffic (parity deltas)
        if b % 2 == 0:
            if cache.reserve_slots(1):
                ref.reserved += 1
        elif cache.reserved_slots:
            cache.release_slots(1)
            ref.reserved -= 1


def check_agreement(cache, ref):
    assert list(lb for lb, _ in cache.iter_blocks()) == list(ref.entries)
    assert cache.occupancy == ref.occupancy <= cache.capacity
    assert cache.old_copies == ref.old_copies
    assert cache.reserved_slots == ref.reserved
    for lb, entry in cache.iter_blocks():
        model = ref.entries[lb]
        assert (entry.state is BlockState.DIRTY) == model["dirty"], lb
        assert entry.has_old == model["old"], lb
        assert entry.destaging == model["destaging"], lb
    assert sorted(cache.dirty_blocks(include_destaging=True)) == sorted(
        lb for lb, e in ref.entries.items() if e["dirty"]
    )


class TestLRUAgainstReference:
    @given(ops=ops_st, track_old=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_op_streams_agree(self, ops, track_old):
        cache = LRUCache(CAPACITY, track_old=track_old)
        ref = Reference(CAPACITY, track_old)
        for code in ops:
            apply_op(cache, ref, code)
            check_agreement(cache, ref)

    @given(ops=ops_st)
    @settings(max_examples=100, deadline=None)
    def test_eviction_order_is_least_recently_used(self, ops):
        """The eviction candidate is always the least recently used
        non-destaging block of the reference ordering."""
        cache = LRUCache(CAPACITY, track_old=False)
        ref = Reference(CAPACITY, track_old=False)
        for code in ops:
            apply_op(cache, ref, code)
            candidate = cache.eviction_candidate()
            expected = next(
                (lb for lb, e in ref.entries.items() if not e["destaging"]), None
            )
            assert (candidate[0] if candidate else None) == expected


def legacy_make_room(cache, needed, counters):
    """The eviction loop the hit-ratio replay ran before
    ``LRUCache.make_room`` existed, kept as the reference."""
    while cache.free_slots < needed:
        head = cache.lru_block()
        if head is None:
            raise RuntimeError("cache capacity exhausted by reservations")
        lblock, entry = head
        if entry.state is BlockState.DIRTY:
            counters["dirty_replacements"] += 1
            if not entry.destaging:
                cache.begin_destage(lblock)
            cache.finish_destage(lblock)
        cache.evict(lblock)


def cache_state(cache):
    return (
        [
            (lb, e.state, e.has_old, e.destaging, e.redirtied)
            for lb, e in cache.iter_blocks()
        ],
        cache.old_copies,
        cache.reserved_slots,
        sorted(cache.dirty_blocks(include_destaging=True)),
        cache.evictions,
    )


def outcome(fn):
    try:
        return fn(), None
    except RuntimeError as exc:
        return None, str(exc)


class TestMakeRoomMatchesLegacyLoop:
    @given(
        steps=st.lists(
            st.tuples(
                st.lists(st.integers(0, 6 * BLOCKS - 1), max_size=30),
                st.integers(min_value=0, max_value=CAPACITY),
            ),
            max_size=12,
        ),
        track_old=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_state_as_legacy_loop(self, steps, track_old):
        """Between bursts of arbitrary legal operations, ``make_room(k)``
        and the legacy loop leave identical caches, count the same
        writebacks and raise the same errors."""
        new = LRUCache(CAPACITY, track_old=track_old)
        old = LRUCache(CAPACITY, track_old=track_old)
        for ops, k in steps:
            for cache in (new, old):
                ref = Reference.of(cache)
                for code in ops:
                    apply_op(cache, ref, code)
            counters = {"dirty_replacements": 0}
            got, err = outcome(lambda: new.make_room(k))
            _, legacy_err = outcome(lambda: legacy_make_room(old, k, counters))
            assert err == legacy_err
            if err is None:
                assert got == counters["dirty_replacements"]
                assert new.free_slots >= k
            assert cache_state(new) == cache_state(old)
