"""The per-process trace memo behind ``get_trace``."""

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import (
    T1_BASE_SCALE,
    T1_DISKS,
    T2_BASE_SCALE,
    _pad_disks,
    get_trace,
)
from repro.experiments.registry import EXPERIMENTS
from repro.trace import (
    generate_trace,
    scale_speed,
    slice_arrays,
    trace1_config,
    trace2_config,
)

SCALE = 0.02


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test starts with an empty memo and zeroed counters."""
    common._base_trace.cache_clear()
    yield
    common._base_trace.cache_clear()


def memo():
    return common._base_trace.cache_info()


def direct_trace1(scale=SCALE):
    full = generate_trace(trace1_config(scale=round(T1_BASE_SCALE * scale, 6)))
    return slice_arrays(full, 0, T1_DISKS)


def direct_trace2(scale=SCALE):
    return generate_trace(trace2_config(scale=round(T2_BASE_SCALE * scale, 6)))


def assert_same_trace(got, want):
    assert np.array_equal(got.records, want.records)
    assert (got.ndisks, got.blocks_per_disk, got.name) == (
        want.ndisks,
        want.blocks_per_disk,
        want.name,
    )


def test_cached_generate_matches_direct_generation():
    assert_same_trace(get_trace(2, SCALE), direct_trace2())
    assert_same_trace(get_trace(1, SCALE), direct_trace1())
    # A remembered recipe is still exactly the generator's output.
    assert_same_trace(get_trace(2, SCALE), direct_trace2())


def test_memory_hit_returns_same_object():
    assert get_trace(2, SCALE) is get_trace(2, SCALE)
    assert get_trace(1, SCALE) is get_trace(1, SCALE)


def test_trace1_array_sizes_share_one_generation():
    """Trace 1 is never padded, so every N reads the one sliced base."""
    at5 = get_trace(1, SCALE, n=5)
    at20 = get_trace(1, SCALE, n=20)
    assert at5 is at20
    assert at5.ndisks == T1_DISKS
    assert memo().misses == 1


def test_padded_and_speed_scaled_traces_match_direct_transforms():
    assert_same_trace(
        get_trace(2, SCALE, n=20), _pad_disks(direct_trace2(), 20)
    )
    assert_same_trace(
        get_trace(2, SCALE, speed=2.0, n=15),
        scale_speed(_pad_disks(direct_trace2(), 15), 2.0),
    )
    assert_same_trace(
        get_trace(1, SCALE, speed=0.5), scale_speed(direct_trace1(), 0.5)
    )
    # The transforms run per call; the base trace was generated once each.
    assert memo().misses == 2


def test_config_key_covers_every_knob():
    """Trace, scale and HDA overrides each name a different base trace."""
    hda = (("seed", 999),)
    traces = [
        get_trace(2, SCALE),
        get_trace(1, SCALE),
        get_trace(2, 2 * SCALE),
        get_trace(2, SCALE, hda=hda),
    ]
    assert memo().misses == len(traces)
    assert len({id(t) for t in traces}) == len(traces)
    assert not np.array_equal(traces[0].records, traces[3].records)
    # Speed and N are applied to the base, not keyed into the memo.
    get_trace(2, SCALE, speed=2.0, n=20)
    assert memo().misses == len(traces)


def test_memory_lru_is_bounded():
    """The memo has a constant size that holds every base trace of
    ``all``: the trace recipes of every experiment's points."""
    recipes = set()
    for exp in EXPERIMENTS.values():
        for point in exp.points(1.0):
            base = T1_BASE_SCALE if point.spec.which == 1 else T2_BASE_SCALE
            recipes.add(
                (point.spec.which, round(base * point.spec.scale, 6), point.spec.hda)
            )
    size = memo().maxsize
    assert size is not None
    assert len(recipes) <= size


class TestStats:
    """The memo's hit/miss counters (``functools.lru_cache`` info)."""

    def test_cold_lookup_counts_miss_generate_store(self):
        get_trace(2, SCALE)
        info = memo()
        assert (info.misses, info.hits, info.currsize) == (1, 0, 1)

    def test_memory_hit_counted(self):
        get_trace(2, SCALE)
        get_trace(2, SCALE, n=20)
        info = memo()
        assert (info.misses, info.hits) == (1, 1)

    def test_eviction_counted(self):
        """Past its size the memo drops the least recent base trace,
        which the next lookup must generate again."""
        size = memo().maxsize
        for i in range(size + 1):
            get_trace(2, 0.002 * (i + 1))
        assert memo().currsize == size
        get_trace(2, 0.002)
        assert memo().misses == size + 2
