"""Unit and property tests for the LRU block cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BlockState, LRUCache


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_insert_and_lookup(self):
        c = LRUCache(4)
        c.insert_clean(10)
        assert 10 in c
        assert c.get(10).state is BlockState.CLEAN
        assert len(c) == 1
        assert c.occupancy == 1
        assert c.free_slots == 3

    def test_duplicate_insert_rejected(self):
        c = LRUCache(4)
        c.insert_clean(10)
        with pytest.raises(ValueError):
            c.insert_clean(10)

    def test_insert_without_room_rejected(self):
        c = LRUCache(1)
        c.insert_clean(1)
        with pytest.raises(RuntimeError):
            c.insert_clean(2)

    def test_probe_read_all_or_nothing(self):
        c = LRUCache(4)
        c.insert_clean(1)
        c.insert_clean(2)
        assert c.probe_read([1, 2])
        assert not c.probe_read([1, 2, 3])

    def test_touch(self):
        c = LRUCache(2)
        c.insert_clean(1)
        c.insert_clean(2)
        assert c.touch(1)
        assert not c.touch(99)
        # 2 is now the LRU candidate.
        assert c.lru_block()[0] == 2


class TestLRUOrder:
    def test_eviction_order_is_lru(self):
        c = LRUCache(3)
        for b in (1, 2, 3):
            c.insert_clean(b)
        c.touch(1)
        assert c.lru_block()[0] == 2
        c.evict(2)
        assert c.lru_block()[0] == 3

    def test_write_moves_to_mru(self):
        c = LRUCache(4)
        c.insert_clean(1)
        c.insert_clean(2)
        c.write(1)
        assert c.lru_block()[0] == 2

    def test_evict_requires_clean(self):
        c = LRUCache(4)
        c.insert_clean(1)
        c.write(1)  # now dirty
        with pytest.raises(RuntimeError):
            c.evict(1)

    def test_evict_missing_raises(self):
        with pytest.raises(KeyError):
            LRUCache(4).evict(1)

    def test_eviction_candidate_skips_destaging(self):
        c = LRUCache(4)
        c.insert_clean(1)
        c.insert_clean(2)
        c.write(1)
        c.begin_destage(1)
        # 1 is oldest but destaging; candidate must be 2.
        assert c.eviction_candidate()[0] == 2

    def test_eviction_candidate_none_when_all_destaging(self):
        c = LRUCache(4)
        c.write(1)
        c.begin_destage(1)
        assert c.eviction_candidate() is None


class TestDirtyAndOld:
    def test_write_miss_inserts_dirty_without_old(self):
        c = LRUCache(4, track_old=True)
        assert not c.write(5)
        e = c.get(5)
        assert e.state is BlockState.DIRTY
        assert not e.has_old
        assert c.occupancy == 1

    def test_write_hit_on_clean_keeps_old(self):
        """§3.4: old data kept to save the extra rotation at destage."""
        c = LRUCache(4, track_old=True)
        c.insert_clean(5)
        assert c.write(5)
        e = c.get(5)
        assert e.state is BlockState.DIRTY
        assert e.has_old
        assert c.old_copies == 1
        assert c.occupancy == 2  # block + old copy

    def test_no_old_tracking_for_plain_orgs(self):
        c = LRUCache(4, track_old=False)
        c.insert_clean(5)
        c.write(5)
        assert not c.get(5).has_old
        assert c.occupancy == 1

    def test_rewrite_dirty_keeps_single_old(self):
        c = LRUCache(4, track_old=True)
        c.insert_clean(5)
        c.write(5)
        c.write(5)
        assert c.old_copies == 1
        assert c.occupancy == 2

    def test_old_copy_requires_room(self):
        c = LRUCache(1, track_old=True)
        c.insert_clean(5)
        with pytest.raises(RuntimeError):
            c.write(5)

    def test_dirty_blocks_listing(self):
        c = LRUCache(8, track_old=True)
        c.write(1)
        c.write(2)
        c.insert_clean(3)
        assert sorted(c.dirty_blocks()) == [1, 2]
        assert sorted(c.dirty_blocks(include_destaging=True)) == [1, 2]


class TestDestageLifecycle:
    def test_full_cycle_frees_old_copy(self):
        c = LRUCache(4, track_old=True)
        c.insert_clean(5)
        c.write(5)
        c.begin_destage(5)
        assert c.dirty_blocks() == []  # in-flight excluded
        assert c.dirty_blocks(include_destaging=True) == [5]
        c.finish_destage(5)
        e = c.get(5)
        assert e.state is BlockState.CLEAN
        assert not e.has_old
        assert c.old_copies == 0
        assert c.occupancy == 1

    def test_begin_requires_dirty(self):
        c = LRUCache(4)
        c.insert_clean(5)
        with pytest.raises(RuntimeError):
            c.begin_destage(5)

    def test_double_begin_rejected(self):
        c = LRUCache(4)
        c.write(5)
        c.begin_destage(5)
        with pytest.raises(RuntimeError):
            c.begin_destage(5)

    def test_redirty_during_destage_stays_dirty(self):
        c = LRUCache(4, track_old=True)
        c.write(5)
        c.begin_destage(5)
        c.write(5)  # re-dirtied in flight
        c.finish_destage(5)
        e = c.get(5)
        assert e.state is BlockState.DIRTY
        # The destaged version is now on disk: it becomes the old copy.
        assert e.has_old
        assert 5 in c.dirty_blocks()

    def test_evict_mid_destage_rejected(self):
        c = LRUCache(4)
        c.write(5)
        c.begin_destage(5)
        c.finish_destage(5)
        c.write(5)
        c.begin_destage(5)
        with pytest.raises(RuntimeError):
            c.evict(5)


class TestReservations:
    def test_reserve_release(self):
        c = LRUCache(4)
        assert c.reserve_slots(3)
        assert c.occupancy == 3
        assert not c.reserve_slots(2)
        c.release_slots(3)
        assert c.occupancy == 0

    def test_reserve_validation(self):
        c = LRUCache(4)
        with pytest.raises(ValueError):
            c.reserve_slots(-1)
        with pytest.raises(ValueError):
            c.release_slots(1)

    def test_reservations_block_inserts(self):
        c = LRUCache(2)
        c.reserve_slots(2)
        with pytest.raises(RuntimeError):
            c.insert_clean(1)


class TestMakeRoom:
    def test_noop_when_room_is_free(self):
        c = LRUCache(4)
        c.insert_clean(1)
        assert c.make_room(3) == 0
        assert list(b for b, _ in c.iter_blocks()) == [1]

    def test_evicts_in_lru_head_order(self):
        c = LRUCache(4)
        for b in (1, 2, 3, 4):
            c.insert_clean(b)
        c.touch(1)  # order: 2, 3, 4, 1
        assert c.make_room(2) == 0
        assert list(b for b, _ in c.iter_blocks()) == [4, 1]
        assert c.free_slots == 2
        assert c.evictions == 2

    def test_dirty_head_counted_and_old_copy_released(self):
        c = LRUCache(4, track_old=True)
        c.insert_clean(1)
        c.write(1)  # dirty, old copy held: 2 slots
        c.insert_clean(2)
        c.insert_clean(3)  # full; head is dirty block 1
        assert c.make_room(1) == 1
        assert 1 not in c
        assert c.old_copies == 0
        assert c.dirty_blocks(include_destaging=True) == []
        assert c.free_slots == 2  # the block and its old copy

    def test_raises_when_reservations_leave_nothing_to_evict(self):
        c = LRUCache(4)
        c.reserve_slots(3)
        c.insert_clean(1)
        with pytest.raises(RuntimeError, match="reservations"):
            c.make_room(2)
        assert len(c) == 0
        assert c.reserved_slots == 3

    def test_probe_sees_the_writeback_then_the_eviction(self):
        class Probe:
            def __init__(self):
                self.ops = []

            def on_cache_op(self, cache, op, arg):
                self.ops.append((op, arg))

        c = LRUCache(2)
        c.write(7)
        c.insert_clean(8)
        c.probe = probe = Probe()
        assert c.make_room(1) == 1
        assert probe.ops == [
            ("begin_destage", 7),
            ("finish_destage", 7),
            ("evict", 7),
        ]


class TestOccupancyInvariant:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "destage", "evict"]),
                st.integers(min_value=0, max_value=19),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=100)
    def test_never_exceeds_capacity(self, ops):
        """Occupancy stays within capacity under arbitrary operation
        sequences that respect the make-room-first contract."""
        c = LRUCache(8, track_old=True)
        for op, block in ops:
            if op == "read":
                if c.get(block) is None:
                    if c.free_slots < 1:
                        continue
                    c.insert_clean(block)
                else:
                    c.touch(block)
            elif op == "write":
                e = c.get(block)
                need = 1 if e is None else (1 if e.state is BlockState.CLEAN and not e.has_old else 0)
                if c.free_slots < need:
                    continue
                c.write(block)
            elif op == "destage":
                for b in c.dirty_blocks():
                    c.begin_destage(b)
                    c.finish_destage(b)
            elif op == "evict":
                cand = c.eviction_candidate()
                if cand is not None and cand[1].state is BlockState.CLEAN:
                    c.evict(cand[0])
            assert 0 <= c.occupancy <= c.capacity
            assert c.old_copies >= 0
            # dirty set is consistent with entry states
            for b in c.dirty_blocks(include_destaging=True):
                assert c.get(b).state is BlockState.DIRTY
