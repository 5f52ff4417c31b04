"""Tests for destage planning and the RAID4 parity cache queue."""

import pytest

from repro.cache import LRUCache, ParityCacheQueue, plan_destage_runs
from repro.layout import BaseLayout, Raid5Layout


class TestPlanDestageRuns:
    def test_empty_when_clean(self):
        cache = LRUCache(16)
        layout = BaseLayout(4, 240)
        assert plan_destage_runs(cache, layout) == []

    def test_groups_consecutive_physical_blocks(self):
        cache = LRUCache(16)
        layout = BaseLayout(4, 240)
        for b in (10, 11, 12, 50):
            cache.write(b)
        runs = plan_destage_runs(cache, layout)
        assert len(runs) == 2
        assert runs[0].start == 10 and runs[0].nblocks == 3
        assert runs[1].start == 50 and runs[1].nblocks == 1
        assert runs[0].lblocks == [10, 11, 12]

    def test_marks_blocks_destaging(self):
        cache = LRUCache(16)
        layout = BaseLayout(4, 240)
        cache.write(5)
        plan_destage_runs(cache, layout)
        assert cache.get(5).destaging
        # A second plan skips in-flight blocks.
        assert plan_destage_runs(cache, layout) == []

    def test_raid5_su1_groups_per_disk(self):
        """With a 1-block striping unit, logically consecutive dirty
        blocks land on different disks -> one run per disk."""
        cache = LRUCache(16)
        layout = Raid5Layout(4, 240, striping_unit=1)
        for b in (0, 1, 2, 3):
            cache.write(b)
        runs = plan_destage_runs(cache, layout)
        assert len(runs) == 4
        assert {r.disk for r in runs} == {
            layout.map_block(b).disk for b in range(4)
        }

    def test_all_old_cached_flag(self):
        cache = LRUCache(16, track_old=True)
        layout = BaseLayout(4, 240)
        cache.insert_clean(10)
        cache.write(10)  # has old
        cache.write(11)  # write miss: no old
        runs = plan_destage_runs(cache, layout)
        assert len(runs) == 1
        assert not runs[0].all_old_cached

    def test_all_old_cached_true_case(self):
        cache = LRUCache(16, track_old=True)
        layout = BaseLayout(4, 240)
        for b in (10, 11):
            cache.insert_clean(b)
            cache.write(b)
        runs = plan_destage_runs(cache, layout)
        assert runs[0].all_old_cached


class TestParityCacheQueue:
    @pytest.fixture
    def cache(self):
        return LRUCache(8)

    @pytest.fixture
    def queue(self, cache):
        return ParityCacheQueue(cache)

    def test_add_reserves_slot(self, cache, queue):
        assert queue.add(100)
        assert cache.reserved_slots == 1
        assert len(queue) == 1
        assert 100 in queue

    def test_merge_no_extra_slot(self, cache, queue):
        queue.add(100)
        queue.add(100, full=True)
        assert cache.reserved_slots == 1
        assert len(queue) == 1
        assert queue.merged == 1

    def test_full_flag_upgrades_and_sticks(self, queue):
        queue.add(100, full=True)
        queue.add(100, full=False)
        deltas, _ = queue.pop_scan_run(0, True)
        assert deltas[0].full

    def test_rejects_when_cache_full(self, cache, queue):
        cache.reserve_slots(8)
        assert not queue.add(100)
        assert queue.rejected == 1

    def test_pop_scan_ascending(self, queue):
        for b in (50, 10, 90):
            queue.add(b)
        delta, up = queue.pop_scan(20, True)
        assert delta.pblock == 50
        assert up is True

    def test_pop_scan_reverses_at_top(self, queue):
        for b in (10, 30):
            queue.add(b)
        delta, up = queue.pop_scan(40, True)  # nothing above 40
        assert delta.pblock == 30
        assert up is False
        delta, up = queue.pop_scan(30, False)
        assert delta.pblock == 10

    def test_pop_scan_reverses_at_bottom(self, queue):
        queue.add(50)
        delta, up = queue.pop_scan(10, False)
        assert delta.pblock == 50
        assert up is True

    def test_pop_empty_returns_none(self, queue):
        assert queue.pop_scan(0, True) is None
        assert queue.pop_scan_run(0, True) is None

    def test_pop_does_not_release_slot(self, cache, queue):
        queue.add(100)
        queue.pop_scan(0, True)
        assert cache.reserved_slots == 1  # caller releases after the write

    def test_pop_scan_run_coalesces_adjacent(self, queue):
        for b in (10, 11, 12, 40):
            queue.add(b)
        deltas, up = queue.pop_scan_run(0, True)
        assert [d.pblock for d in deltas] == [10, 11, 12]
        assert len(queue) == 1

    def test_pop_scan_run_respects_full_boundary(self, queue):
        queue.add(10, full=False)
        queue.add(11, full=True)
        deltas, _ = queue.pop_scan_run(0, True)
        assert len(deltas) == 1

    def test_pop_scan_run_max_blocks(self, queue):
        for b in range(20):
            queue.add(b)
        deltas, _ = queue.pop_scan_run(0, True, max_blocks=4)
        assert len(deltas) == 4

    def test_scan_order_never_skips(self, queue):
        """Elevator property: a full ascending pass visits blocks in
        nondecreasing order until reversal."""
        import random

        rng = random.Random(3)
        blocks = rng.sample(range(1000), 50)
        for b in blocks:
            queue.add(b)
        pos, up = 0, True
        visited = []
        while len(queue):
            delta, up = queue.pop_scan(pos, up)
            visited.append(delta.pblock)
            pos = delta.pblock
        # One ascending sweep then one descending sweep.
        peak = visited.index(max(visited))
        assert visited[: peak + 1] == sorted(visited[: peak + 1])
        assert visited[peak:] == sorted(visited[peak:], reverse=True)
