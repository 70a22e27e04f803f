"""Differential tests: the folded op-log replays exactly like eager access.

``Cache.touch_range`` defers classification to an op-log and folds an
immediate repeat of a one-tag touch into the previous entry.  Random
touch streams (one-tag and multi-tag ranges, writes, immediate repeats,
``stats_pin`` between repeats, streams crossing the drain cap) must end
in the same counters, pin values and LRU/dirty arrays as the same stream
applied eagerly through ``access_range``, and the log must drain after
exactly as many touches as it did before folding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import cache as cache_mod
from repro.hw.cache import Cache, CacheConfig

# 32 sets x 2 ways x 64 B: one tag covers 2 kB, so small ranges cross
# tags and a handful of tags already evict each other.
_SMALL = CacheConfig(size_bytes=4096, line_bytes=64, associativity=2)
_BASES = [0, 64, 1_984, 2_048, 6_144, 40_960]
_SIZES = [1, 64, 100, 512, 2_048, 5_000]


def _stats(stats):
    return (stats.hits, stats.misses, stats.evictions, stats.writebacks)


def _count_drains(cache):
    """Record the touch count at every ``_drain`` of ``cache``."""
    points = []
    original = cache._drain
    touched = [0]

    def drain():
        points.append(touched[0])
        original()
    cache._drain = drain
    return points, touched


_ops = st.lists(st.one_of(
    st.tuples(st.just("touch"), st.sampled_from(_BASES),
              st.sampled_from(_SIZES), st.booleans()),
    st.tuples(st.just("repeat"), st.integers(1, 40)),
    st.just(("pin",)),
), max_size=60)


def _replay(ops, lazy):
    cache = Cache(_SMALL)
    points, touched = _count_drains(cache)
    pins = []
    last = None
    for op in ops:
        if op[0] == "pin":
            pins.append(cache.stats_pin() if lazy
                        else _stats(cache.stats.snapshot()))
            continue
        if op[0] == "touch":
            last = op[1:]
            count = 1
        elif last is None:
            continue
        else:
            count = op[1]
        for _ in range(count):
            touched[0] += 1
            if lazy:
                cache.touch_range(*last)
            else:
                cache.access_range(*last)
    drains = list(points)
    if lazy:
        pins = [_stats(pin.resolve()) for pin in pins]
    return cache, pins, drains, touched[0]


@settings(max_examples=200, deadline=None)
@given(ops=_ops, cap=st.sampled_from([7, 64, cache_mod._OPLOG_CAP]))
def test_folded_log_replays_like_eager_access(ops, cap):
    saved = cache_mod._OPLOG_CAP
    cache_mod._OPLOG_CAP = cap
    try:
        lazy, lazy_pins, drains, touches = _replay(ops, True)
        eager, eager_pins, _, _ = _replay(ops, False)
        # Drains fire after every `cap` touches, repeats included.
        assert drains == list(range(cap, touches + 1, cap))
        assert _stats(lazy.stats) == _stats(eager.stats)
        assert lazy_pins == eager_pins
        assert np.array_equal(lazy._ways_arr, eager._ways_arr)
        assert np.array_equal(lazy._dirty_arr, eager._dirty_arr)
    finally:
        cache_mod._OPLOG_CAP = saved


def test_only_one_tag_repeats_without_a_pin_between_fold():
    cache = Cache(_SMALL)
    cache.touch_range(64, 512, write=True)
    cache.touch_range(64, 512, write=True)      # folds
    cache.touch_range(64, 512)                  # write flag differs
    cache.stats_pin()
    cache.touch_range(64, 512)                  # a pin lies between
    cache.touch_range(1_984, 128)               # two tags
    cache.touch_range(1_984, 128)               # ... never folds
    assert [entry[3] for entry in cache._oplog] == [1, 0, 0, 0, 0]
    assert cache.stats.accesses == 4 * 8 + 2 * 2


def test_drain_points_at_the_real_cap_count_folded_touches():
    cache = Cache()
    points, touched = _count_drains(cache)
    for _ in range(2 * cache_mod._OPLOG_CAP + 5):
        touched[0] += 1
        cache.touch_range(0x0100_0000, 512)
    assert points == [cache_mod._OPLOG_CAP, 2 * cache_mod._OPLOG_CAP]
    assert cache._oplog == [(0x0100_0000 >> 6, (0x0100_0000 + 511) >> 6,
                             False, 4)]
    stats = cache.stats
    assert (stats.hits, stats.misses) == (
        (2 * cache_mod._OPLOG_CAP + 5) * 8 - 8, 8)
