"""Set-associative cache model.

The paper's evaluation (Figure 10, Section 6.4) measures the **L2 cache
miss rate** of the server kernel under three server implementations and
shows that offloading leaves the host L2 as quiet as an idle system while
the host-based servers stream packet data through it and evict the
resident working set.

This module provides a faithful set-associative LRU cache: addresses are
mapped to sets, each set keeps its ways in LRU order, and per-access
hit/miss counts are recorded.  Streaming a packet buffer through
:meth:`Cache.access_range` therefore produces exactly the eviction
behaviour the paper attributes to the non-offloaded servers.

The model is deliberately timing-free: it classifies accesses; the *cost*
of a miss is charged by the CPU/OS models that call it.

Performance: the hottest consumer is the kernel daemon wake, which walks
a ~1250-line buffer per period — >80 % of all line traffic.  Four
mechanisms keep this off the event loop's critical path:

* **Deferred classification.**  No simulated component consumes the
  hit/miss classification inline — callers fire ranged touches and the
  counters are only read at observation points (samplers, end-of-run
  metrics, tests).  :meth:`Cache.touch_range` therefore just appends
  ``(first_line, last_line, write, repeats)`` to an op log; the log is replayed
  in order — exactly, including LRU state — the moment anything
  observes the cache (``stats``, :meth:`access`, :meth:`access_range`,
  :meth:`contains`, :attr:`resident_lines`, :meth:`flush`, or a
  resolved :meth:`stats_pin`), or when the log hits its cap of
  65,536 touches.  Samplers that only need counter *snapshots* take a
  :meth:`stats_pin` — a position in the log resolved lazily after the
  run.

* **Folded repeats.**  A touch within one tag (one block of
  ``sets x line`` bytes, 32 kB on the default L2) that repeats the
  previous log entry exactly — same first line, last line and write
  flag, with no :meth:`stats_pin` taken in between — only bumps that
  entry's repeat count.  The first touch leaves the tag MRU in every
  set it covers, so each repeat is pure MRU hits, and the replay
  charges it as such.  The per-tick kernel-text touch is the common
  case.  The cap still counts touches, not entries.

* **Lazy writers.**  A CPU timer interrupt that touches the cache is
  applied lazily (:class:`repro.hw.cpu.TimerInterrupt`); once it is
  attached (:meth:`Cache.attach_interrupt`), every touch and every
  observation above first advances it to ``sim.now``, so its touches
  land in the log in time order.

* **Run-length set state.**  Every touch is a contiguous line range,
  so within one tag block it hits a contiguous run of sets with one
  tag, and the state stays piecewise constant over set index.  The
  cache keeps a sorted list of piece starts and one row per piece —
  the resident tags in LRU-to-MRU order and their dirty bits — shared
  by every set in the piece.  A segment (the lines of a touch that
  share one tag) splits the pieces at its two ends, updates each
  covered piece once with the exact LRU, eviction and writeback
  arithmetic scaled by the piece's width, and merges equal
  neighbours.  Adjacent pieces therefore always differ, and there are
  never more pieces than sets (the bound is reached when every set
  holds something different).  In the four TiVoPC server scenarios
  (seed 1, 40 s each) the default L2 peaks at 41 pieces of a possible
  512.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import HardwareError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.cpu import TimerInterrupt

__all__ = ["CacheConfig", "CacheStats", "Cache", "StatsPin"]

# Forced-drain threshold for the deferred-access log, in touches (a
# folded repeat counts).  Big enough that a busy simulated second logs
# freely, small enough to bound memory (each entry is one small tuple).
_OPLOG_CAP = 65536
# Stand-in previous entry for an empty log (matches no touch).
_NO_ENTRY = (-1, -1, None, 0)
# A piece's row: resident tags LRU -> MRU, and their dirty bits.
_Row = Tuple[Tuple[int, ...], Tuple[bool, ...]]
_EMPTY: _Row = ((), ())


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a cache.

    Defaults match the paper's testbed: a Pentium 4 with a 256 kB, 8-way,
    64-byte-line L2.
    """

    size_bytes: int = 256 * 1024
    line_bytes: int = 64
    associativity: int = 8

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise HardwareError(f"line size must be a power of two: {self.line_bytes}")
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise HardwareError("cache size and associativity must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise HardwareError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*ways = {self.line_bytes * self.associativity}")
        if not _is_pow2(self.num_sets):
            raise HardwareError(f"number of sets must be a power of two: {self.num_sets}")

    @property
    def num_sets(self) -> int:
        """Number of sets (size / (line * ways))."""
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_bytes


@dataclass
class CacheStats:
    """Aggregate access counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """hits + misses."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """misses / accesses (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the counters."""
        return CacheStats(self.hits, self.misses, self.evictions, self.writebacks)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier``."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            writebacks=self.writebacks - earlier.writebacks,
        )


class StatsPin:
    """A lazily-resolved position in a cache's counter stream.

    Taken with :meth:`Cache.stats_pin` during a run; resolving it later
    yields the :class:`CacheStats` snapshot *as of the pin point*,
    computed by replaying the deferred-access log up to the pin.  This
    lets periodic samplers mark window boundaries without forcing a
    drain on the simulation's critical path.
    """

    __slots__ = ("_cache", "_index", "_value")

    def __init__(self, cache: "Cache", index: int) -> None:
        self._cache = cache
        self._index = index
        self._value: Optional[CacheStats] = None

    def resolve(self) -> CacheStats:
        """The counter snapshot at the pin point (drains if needed)."""
        if self._value is None:
            self._cache._drain()
        assert self._value is not None
        return self._value


class Cache:
    """A set-associative write-back LRU cache.

    State is run-length encoded over set index: piece ``k`` covers sets
    ``_starts[k]`` up to the next start, and every one of them holds
    ``_rows[k]``, a ``(tags, dirty)`` pair of tuples in LRU-to-MRU
    order (shorter than the associativity while the sets fill).  Every
    access, single or ranged, splits the pieces at the ends of each
    one-tag segment and updates each covered piece once; see the module
    docstring.

    Fire-and-forget callers (every in-simulation component) should use
    :meth:`touch_range`, which defers classification to an op log; any
    observation (``stats``, :meth:`access`, :meth:`access_range`,
    :meth:`contains`, :attr:`resident_lines`, :meth:`flush`) replays
    the log first, so observed state is always exact.
    """

    def __init__(self, config: Optional[CacheConfig] = None,
                 name: str = "L2") -> None:
        self.config = config or CacheConfig()
        self.name = name
        self._stats = CacheStats()
        # Deferred (first_line, last_line, write, repeats) touches
        # awaiting classification, the touches they hold, and
        # unresolved StatsPins into that log.
        self._oplog: List[Tuple[int, int, bool, int]] = []
        self._touches = 0
        self._pins: List[StatsPin] = []
        self._irq: Optional[TimerInterrupt] = None
        self._set_mask = self.config.num_sets - 1
        self._line_shift = self.config.line_bytes.bit_length() - 1
        self._index_bits = self._set_mask.bit_length()
        self._ways = self.config.associativity
        self._starts: List[int] = [0]
        self._rows: List[_Row] = [_EMPTY]

    # -- observation & laziness --------------------------------------------

    def attach_interrupt(self, irq: TimerInterrupt) -> None:
        """Advance ``irq`` before every touch and observation.

        For a lazily advanced CPU timer interrupt whose handler touches
        this cache: its touches then enter the log in time order.  A
        cache takes at most one interrupt.
        """
        if self._irq is not None:
            raise HardwareError(f"{self.name} already has an interrupt")
        self._irq = irq

    def _sync(self) -> None:
        irq = self._irq
        if irq is not None and irq.due <= irq.sim.now:
            irq.advance()

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters (exact: drains any deferred touches)."""
        self._sync()
        if self._oplog:
            self._drain()
        return self._stats

    def stats_pin(self) -> StatsPin:
        """Mark the current point in the access stream for lazy stats.

        Returns a :class:`StatsPin` whose :meth:`~StatsPin.resolve`
        yields the counters as of this call, without draining the
        deferred-access log now.  Resolution order is exact even when
        eager accesses are interleaved, because every eager access
        drains the log first.
        """
        self._sync()
        pin = StatsPin(self, len(self._oplog))
        if pin._index == 0:
            # Nothing pending: the snapshot is already known.
            pin._value = self._stats.snapshot()
        else:
            self._pins.append(pin)
        return pin

    def touch_range(self, base: int, size: int, write: bool = False) -> None:
        """Fire-and-forget :meth:`access_range`.

        Logs the touch; hit/miss classification and LRU movement are
        deferred until the next observation.  This is the entry point
        for simulated components, which never consume the
        classification inline.
        """
        if size <= 0:
            if size == 0:
                return
            raise HardwareError(f"negative range size: {size}")
        if base < 0:
            raise HardwareError(f"negative address: {base}")
        irq = self._irq                      # _sync(), inlined
        if irq is not None and irq.due <= irq.sim.now:
            irq.advance()
        shift = self._line_shift
        first = base >> shift
        last = (base + size - 1) >> shift
        log = self._oplog
        prev = log[-1] if log else _NO_ENTRY
        if (prev[0] == first and prev[1] == last and prev[2] == write
                and first >> self._index_bits == last >> self._index_bits
                and not (self._pins and self._pins[-1]._index == len(log))):
            log[-1] = (first, last, prev[2], prev[3] + 1)
        else:
            log.append((first, last, write, 0))
        self._touches += 1
        if self._touches >= _OPLOG_CAP:
            self._drain()

    def _drain(self) -> None:
        """Replay the deferred-access log in order, resolving pins."""
        log = self._oplog
        pins = self._pins
        stats = self._stats
        apply_lines = self._apply_lines
        pos = 0
        p = 0
        for first, last, write, repeats in log:
            while p < len(pins) and pins[p]._index <= pos:
                pins[p]._value = stats.snapshot()
                p += 1
            apply_lines(first, last, write)
            if repeats:
                # Folded repeats of a one-tag touch: pure MRU hits.
                stats.hits += repeats * (last - first + 1)
            pos += 1
        for pin in pins[p:]:
            pin._value = stats.snapshot()
        del pins[:]
        del log[:]
        self._touches = 0

    # -- core access -------------------------------------------------------

    def access(self, address: int, write: bool = False) -> bool:
        """Access one address; return True on hit, False on miss."""
        if address < 0:
            raise HardwareError(f"negative address: {address}")
        self._sync()
        if self._oplog:
            self._drain()
        line = address >> self._line_shift
        return self._apply_lines(line, line, write)[0] == 1

    def access_range(self, base: int, size: int, write: bool = False) -> Tuple[int, int]:
        """Touch every line in ``[base, base+size)``.

        Returns ``(hits, misses)`` for the range.  This is how buffer
        copies and packet payload touches are charged to the cache — the
        single hottest non-event loop in the simulation (a daemon wake
        walks 1250 lines).  The range is split into segments of lines
        sharing one tag; consecutive lines in a segment land in
        consecutive, distinct sets, so each segment updates a run of
        pieces.
        """
        if size < 0:
            raise HardwareError(f"negative range size: {size}")
        if size == 0:
            return (0, 0)
        if base < 0:
            raise HardwareError(f"negative address: {base}")
        self._sync()
        if self._oplog:
            self._drain()
        first = base >> self._line_shift
        last = (base + size - 1) >> self._line_shift
        return self._apply_lines(first, last, write)

    def _split(self, index: int) -> int:
        """The position of the piece starting at set ``index``, splitting
        the piece that contains it if needed (``num_sets`` -> the end)."""
        starts = self._starts
        if index == self._set_mask + 1:
            return len(starts)
        k = bisect_right(starts, index) - 1
        if starts[k] != index:
            k += 1
            starts.insert(k, index)
            self._rows.insert(k, self._rows[k - 1])
        return k

    def _apply_lines(self, first: int, last: int,
                     write: bool) -> Tuple[int, int]:
        """Apply one logged/validated line-range touch; return (hits, misses)."""
        starts = self._starts
        rows = self._rows
        split = self._split
        ways = self._ways
        index_bits = self._index_bits
        num_sets = self._set_mask + 1
        hits = misses = evictions = writebacks = 0
        for t in range(first >> index_bits, (last >> index_bits) + 1):
            block = t << index_bits
            i = split(max(first, block) - block)
            j = split(min(last + 1, block + num_sets) - block)
            end = starts[j] if j < len(starts) else num_sets
            for k in range(j - 1, i - 1, -1):
                width = end - starts[k]
                end = starts[k]
                tags, dirty = rows[k]
                if tags and tags[-1] == t:
                    # Hit at MRU: the order stands.
                    hits += width
                    if write and not dirty[-1]:
                        rows[k] = (tags, dirty[:-1] + (True,))
                elif t in tags:
                    p = tags.index(t)
                    hits += width
                    rows[k] = (tags[:p] + tags[p + 1:] + (t,),
                               dirty[:p] + dirty[p + 1:] + (write or dirty[p],))
                else:
                    misses += width
                    if len(tags) == ways:
                        evictions += width
                        if dirty[0]:
                            writebacks += width
                        tags = tags[1:]
                        dirty = dirty[1:]
                    rows[k] = (tags + (t,), dirty + (write,))
            # Merge equal neighbours across the segment and its two ends.
            for k in range(min(j, len(starts) - 1), max(i, 1) - 1, -1):
                if rows[k] == rows[k - 1]:
                    del starts[k]
                    del rows[k]
        stats = self._stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return (hits, misses)

    def _pieces(self) -> List[Tuple[int, _Row]]:
        """``(width, row)`` for every piece, in set order."""
        ends = self._starts[1:] + [self._set_mask + 1]
        return [(end - start, row)
                for start, end, row in zip(self._starts, ends, self._rows)]

    # -- inspection ---------------------------------------------------------

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no side effects)."""
        self._sync()
        if self._oplog:
            self._drain()
        line = address >> self._line_shift
        tags = self._rows[bisect_right(self._starts, line & self._set_mask) - 1][0]
        return line >> self._index_bits in tags

    @property
    def resident_lines(self) -> int:
        """Lines currently cached across all sets."""
        self._sync()
        if self._oplog:
            self._drain()
        return sum(width * len(tags) for width, (tags, _) in self._pieces())

    def flush(self) -> int:
        """Invalidate everything; return the number of dirty lines written back."""
        self._sync()
        if self._oplog:
            self._drain()
        dirty = sum(width * sum(bits) for width, (_, bits) in self._pieces())
        self._starts = [0]
        self._rows = [_EMPTY]
        self._stats.writebacks += dirty
        return dirty


class SampledCacheMonitor:
    """Periodic miss-rate sampler, mirroring the paper's methodology.

    The paper samples the kernel L2 miss rate every 5 seconds during a
    10-minute run and normalizes to the idle system's rate.  This helper
    captures ``(time_ns, CacheStats-delta)`` windows.
    """

    def __init__(self, cache: Cache) -> None:
        self.cache = cache
        self.samples: List[Tuple[int, CacheStats]] = []
        self._last = cache.stats.snapshot()

    def sample(self, now_ns: int) -> CacheStats:
        """Record the window since the previous sample."""
        current = self.cache.stats.snapshot()
        window = current.delta(self._last)
        self._last = current
        self.samples.append((now_ns, window))
        return window

    def miss_rates(self) -> List[float]:
        """Per-window miss rates (windows with accesses only)."""
        return [s.miss_rate for _, s in self.samples if s.accesses]


# Re-exported here because monitors belong conceptually with the cache.
__all__.append("SampledCacheMonitor")
