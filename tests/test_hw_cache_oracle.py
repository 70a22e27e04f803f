"""Differential tests: the run-length L2 model against a per-set oracle.

``Cache`` keeps its sets run-length encoded: runs of adjacent sets with
identical contents share one row.  The oracle below is the plain model
it replaced — one ordered dict per set (tag -> dirty bit, insertion
order = LRU order), prefilled with negative sentinel tags so every set
is always full and evicting a sentinel is the "set not yet full" case.
It classifies one line at a time and knows nothing of op-logs, folded
repeats or pieces.

Random streams of ranged touches (crossing tags), writes, immediate
repeats, pins and eager ``access``/``access_range``/``contains``/
``flush``/``resident_lines`` must agree with the oracle on every return
value, every counter, every pin and every set's LRU order and dirty
bits, at associativity 1, 2 and 8.  The piece count must never exceed
the number of sets, and adjacent pieces must always differ.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import Cache, CacheConfig


def set_rows(cache):
    """Every set of ``cache`` as ``(tags LRU -> MRU, dirty bits)``.

    Drains the cache first; the result does not depend on how the cache
    stores its sets.
    """
    cache.stats
    rows = []
    for width, (tags, dirty) in cache._pieces():
        rows.extend([(tuple(tags), tuple(bool(bit) for bit in dirty))] * width)
    return rows


class DictLru:
    """One ordered dict per set; one line per step."""

    def __init__(self, config):
        self.config = config
        self.sets = [self._empty() for _ in range(config.num_sets)]
        self.stats = [0, 0, 0, 0]       # hits, misses, evictions, writebacks

    def _empty(self):
        return dict.fromkeys(range(-self.config.associativity, 0), False)

    def line(self, line, write):
        """Access one line; return True on a hit."""
        num_sets = self.config.num_sets
        d = self.sets[line % num_sets]
        tag = line // num_sets
        if tag in d:
            d[tag] = d.pop(tag) or write
            self.stats[0] += 1
            return True
        lru = next(iter(d))
        if d.pop(lru):
            self.stats[3] += 1
        if lru >= 0:
            self.stats[2] += 1
        d[tag] = write
        self.stats[1] += 1
        return False

    def lines(self, base, size):
        shift = self.config.line_bytes.bit_length() - 1
        return range(base >> shift, ((base + size - 1) >> shift) + 1)

    def access_range(self, base, size, write):
        hits = sum(self.line(line, write) for line in self.lines(base, size))
        return (hits, len(self.lines(base, size)) - hits)

    def contains(self, address):
        line = address // self.config.line_bytes
        return line // self.config.num_sets in self.sets[line % self.config.num_sets]

    def resident_lines(self):
        return sum(tag >= 0 for d in self.sets for tag in d)

    def flush(self):
        dirty = sum(bit and tag >= 0 for d in self.sets for tag, bit in d.items())
        self.sets = [self._empty() for _ in self.sets]
        self.stats[3] += dirty
        return dirty

    def rows(self):
        return [(tuple(tag for tag in d if tag >= 0),
                 tuple(bit for tag, bit in d.items() if tag >= 0))
                for d in self.sets]


def _counters(stats):
    return [stats.hits, stats.misses, stats.evictions, stats.writebacks]


def _check_pieces(cache):
    starts, rows = cache._starts, cache._rows
    assert len(starts) == len(rows) <= cache.config.num_sets
    assert starts[0] == 0 and starts == sorted(set(starts))
    assert all(a != b for a, b in zip(rows, rows[1:]))


# 16 sets x 64 B lines: one tag block is 1 kB, so the addresses below
# span eight tags and most ranges cross a tag boundary.
_GEOMETRIES = [CacheConfig(size_bytes=16 * 64 * ways, line_bytes=64,
                           associativity=ways) for ways in (1, 2, 8)]
_ADDR = st.integers(0, 8 * 1024 - 1)
_ops = st.lists(st.one_of(
    st.tuples(st.just("touch"), _ADDR, st.integers(1, 3 * 1024), st.booleans()),
    st.tuples(st.just("repeat"), st.integers(1, 5)),
    st.just(("pin",)),
    st.tuples(st.just("access"), _ADDR, st.booleans()),
    st.tuples(st.just("access_range"), _ADDR, st.integers(0, 2 * 1024),
              st.booleans()),
    st.tuples(st.just("contains"), _ADDR),
    st.just(("flush",)),
    st.just(("resident",)),
), max_size=50)


@settings(max_examples=300, deadline=None)
@given(config=st.sampled_from(_GEOMETRIES), ops=_ops)
def test_run_length_cache_matches_per_set_oracle(config, ops):
    cache = Cache(config)
    oracle = DictLru(config)
    pins, expected_pins = [], []
    last = None
    for op in ops:
        kind = op[0]
        if kind in ("touch", "repeat"):
            if kind == "touch":
                last, count = op[1:], 1
            elif last is None:
                continue
            else:
                count = op[1]
            for _ in range(count):
                cache.touch_range(*last)
                oracle.access_range(*last)
        elif kind == "pin":
            pins.append(cache.stats_pin())
            expected_pins.append(list(oracle.stats))
        elif kind == "access":
            address, write = op[1:]
            assert (cache.access(address, write)
                    == oracle.line(address // config.line_bytes, write))
        elif kind == "access_range":
            base, size, write = op[1:]
            assert cache.access_range(base, size, write) == (
                oracle.access_range(base, size, write) if size else (0, 0))
        elif kind == "contains":
            assert cache.contains(op[1]) == oracle.contains(op[1])
        elif kind == "flush":
            assert cache.flush() == oracle.flush()
        else:
            assert cache.resident_lines == oracle.resident_lines()
        _check_pieces(cache)
    assert _counters(cache.stats) == oracle.stats
    assert [_counters(pin.resolve()) for pin in pins] == expected_pins
    assert set_rows(cache) == oracle.rows()
    _check_pieces(cache)


def test_one_line_per_set_with_a_distinct_tag_each_stays_exact():
    """The worst case for run-length state: every set differs."""
    config = CacheConfig()
    cache = Cache(config)
    oracle = DictLru(config)
    num_sets, line = config.num_sets, config.line_bytes
    for rnd in range(config.associativity + 2):
        for s in range(num_sets):
            tag = rnd * num_sets + (s * 7919) % num_sets
            address = (tag * num_sets + s) * line
            write = (s + rnd) % 3 == 0
            cache.touch_range(address, 1, write)
            oracle.line(address // line, write)
        assert _counters(cache.stats) == oracle.stats
        assert len(cache._starts) == num_sets
        _check_pieces(cache)
        assert set_rows(cache) == oracle.rows()
    # A walk over the whole capacity then makes every set identical.
    cache.touch_range(0, config.size_bytes)
    oracle.access_range(0, config.size_bytes, False)
    assert set_rows(cache) == oracle.rows()
    assert len(cache._starts) == 1
    assert cache.resident_lines == oracle.resident_lines()
    assert cache.flush() == oracle.flush()
    assert _counters(cache.stats) == oracle.stats
