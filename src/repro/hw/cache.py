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
a ~1250-line buffer per period — >80 % of all line traffic.  Two
mechanisms keep this off the event loop's critical path:

* **Deferred classification.**  No simulated component consumes the
  hit/miss classification inline — callers fire ranged touches and the
  counters are only read at observation points (samplers, end-of-run
  metrics, tests).  :meth:`Cache.touch_range` therefore just appends
  ``(first_line, last_line, write)`` to an op log; the log is replayed
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

* **Batched exact-LRU updates.**  With numpy available the whole cache
  lives in two arrays and every walk *segment* (the run of consecutive
  lines sharing one tag, which by construction touches consecutive,
  distinct sets) updates as a constant number of batched array
  operations, with fast paths for the dominant all-miss and
  repeat-walk (all-hit-at-MRU) cases.  Every set is kept permanently
  full by pre-filling it with negative *sentinel* tags (real tags are
  non-negative, so sentinels can never hit, and evicting one is
  exactly the real model's "insert into a not-yet-full set"), which
  removes the fill/evict branch without changing any counter.  Without
  numpy the model falls back to per-set ordered dicts and a per-line
  loop; the op log works identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import HardwareError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.cpu import TimerInterrupt

try:  # pragma: no cover - exercised implicitly everywhere numpy exists
    import numpy as _np
except ImportError:  # pragma: no cover - degraded environments only
    _np = None

__all__ = ["CacheConfig", "CacheStats", "Cache", "StatsPin"]

# Forced-drain threshold for the deferred-access log, in touches (a
# folded repeat counts).  Big enough that a busy simulated second logs
# freely, small enough to bound memory (each entry is one small tuple).
_OPLOG_CAP = 65536
# Stand-in previous entry for an empty log (matches no touch).
_NO_ENTRY = (-1, -1, None, 0)


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

    Canonical state is a pair of numpy arrays — ``_ways_arr`` ``(sets,
    ways)`` int64 tags in LRU order (column 0 = LRU, last column = MRU)
    and ``_dirty_arr`` bools of the same shape.  All accesses, single or
    ranged, are batched per-segment array updates; the per-access cost
    is dominated by numpy call dispatch, so the update is shaped to use
    a constant, small number of array operations regardless of segment
    length.  Without numpy the model keeps one ordered dict per set
    (tag -> dirty, insertion order = LRU order) and loops per line.

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
        num_sets = self.config.num_sets
        ways = self._ways
        # Sentinel prefill: unique negative tags per row keep every set
        # exactly `ways` entries deep (see module docstring).
        self._sentinels = list(range(-ways, 0))
        if _np is not None:
            self._ways_arr = _np.tile(
                _np.arange(-ways, 0, dtype=_np.int64), (num_sets, 1))
            self._dirty_arr = _np.zeros((num_sets, ways), dtype=bool)
            self._rows = _np.arange(num_sets)[:, None]
            # Gather LUT: row p is the index vector that deletes
            # position p and shifts everything above it left (the last
            # column is a don't-care, overwritten with the new MRU).
            self._glut = _np.minimum(
                _np.arange(ways) + (_np.arange(ways) >=
                                    _np.arange(ways)[:, None]),
                ways - 1)
            self._dictsets: List[Optional[dict]] = []
        else:
            self._ways_arr = None
            self._dirty_arr = None
            self._dictsets = [
                dict.fromkeys(self._sentinels, False) for _ in range(num_sets)]

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
        tag = line >> self._index_bits
        index = line & self._set_mask
        stats = self._stats
        if self._ways_arr is not None:
            h, _m, e, w = self._segment(index, index + 1, tag, write)
            stats.hits += h
            stats.misses += 1 - h
            stats.evictions += e
            stats.writebacks += w
            return bool(h)
        d = self._dictsets[index]
        if tag in d:
            # LRU bump: reinsert at the back (dicts keep insertion order).
            d[tag] = d.pop(tag) or write
            stats.hits += 1
            return True
        # Miss: evict the LRU (front key).  Sets are always full; a
        # sentinel victim is the "set not yet full" case and is free.
        lru = next(iter(d))
        if d.pop(lru):
            stats.writebacks += 1
        if lru >= 0:
            stats.evictions += 1
        d[tag] = write
        stats.misses += 1
        return False

    def access_range(self, base: int, size: int, write: bool = False) -> Tuple[int, int]:
        """Touch every line in ``[base, base+size)``.

        Returns ``(hits, misses)`` for the range.  This is how buffer
        copies and packet payload touches are charged to the cache — the
        single hottest non-event loop in the simulation (a daemon wake
        walks 1250 lines).  The range is split into segments of lines
        sharing one tag; consecutive lines in a segment land in
        consecutive, distinct sets, so each segment is one batched
        array update.
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

    def _apply_lines(self, first: int, last: int,
                     write: bool) -> Tuple[int, int]:
        """Apply one logged/validated line-range touch; return (hits, misses)."""
        index_bits = self._index_bits
        hits = misses = evictions = writebacks = 0
        if self._ways_arr is not None:
            segment = self._segment
            for t in range(first >> index_bits, (last >> index_bits) + 1):
                block = t << index_bits
                lo = max(first, block) - block
                hi = min(last, block + (1 << index_bits) - 1) - block
                h, m, e, w = segment(lo, hi + 1, t, write)
                hits += h
                misses += m
                evictions += e
                writebacks += w
        else:
            dictsets = self._dictsets
            for t in range(first >> index_bits, (last >> index_bits) + 1):
                block = t << index_bits
                lo = max(first, block) - block
                hi = min(last, block + (1 << index_bits) - 1) - block
                for s in range(lo, hi + 1):
                    d = dictsets[s]
                    if t in d:
                        d[t] = d.pop(t) or write
                        hits += 1
                    else:
                        lru = next(iter(d))
                        if d.pop(lru):
                            writebacks += 1
                        if lru >= 0:
                            evictions += 1
                        d[t] = write
                        misses += 1
        stats = self._stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return (hits, misses)

    def _segment(self, lo: int, hi1: int, tag: int,
                 write: bool) -> Tuple[int, int, int, int]:
        """Exact batched LRU update: one access of ``tag`` to each of
        the consecutive sets ``lo..hi1-1``.  Returns the four counter
        deltas.

        Dispatch count is what matters here — each numpy call costs
        ~1-10 us on these small arrays, dwarfing the arithmetic — so the
        all-miss case (the overwhelming majority: streaming walks evict
        rather than revisit) is special-cased as a pure column shift,
        and the general path derives hits from a positional lookup
        instead of an axis reduction and rotates rows with a single
        LUT-driven fancy-index gather.
        """
        np = _np
        n = hi1 - lo
        V = self._ways_arr[lo:hi1]
        Dv = self._dirty_arr[lo:hi1]
        if (V[:, -1] == tag).all():
            # All-hit-at-MRU fast path: a walk leaves its tag MRU in
            # every set it touches, so an undisturbed re-walk (the
            # per-tick kernel-text touch) changes no LRU order at all.
            if write:
                Dv[:, -1] = True
            return (n, 0, 0, 0)
        eq = V == tag
        victims = V[:, 0]
        vdirty = Dv[:, 0]
        if not eq.any():
            # All-miss fast path: every set evicts its LRU (column 0)
            # and shifts left; the new tag becomes MRU everywhere.
            ev_real = victims >= 0
            n_evict = int(np.count_nonzero(ev_real))
            ev_real &= vdirty
            n_wb = int(np.count_nonzero(ev_real))
            V[:, :-1] = V[:, 1:]
            V[:, -1] = tag
            Dv[:, :-1] = Dv[:, 1:]
            Dv[:, -1] = write
            return (0, n, n_evict, n_wb)
        # argmax of an all-False row is 0 — which is exactly the miss
        # behaviour we want (evict the LRU at position 0), so one argmax
        # serves both hit rotation and miss shifting.
        pos = eq.argmax(1)
        rows = self._rows[:n]
        hit = eq[rows[:, 0], pos]
        d_at = Dv[rows[:, 0], pos]
        # Stats come from the pre-update state: the victim is column 0.
        ev_real = victims >= 0
        ev_real &= ~hit
        n_hits = int(np.count_nonzero(hit))
        n_evict = int(np.count_nonzero(ev_real))
        ev_real &= vdirty
        n_wb = int(np.count_nonzero(ev_real))
        gather = self._glut[pos]
        newV = V[rows, gather]
        newD = Dv[rows, gather]
        newV[:, -1] = tag
        if write:
            newD[:, -1] = True
        else:
            newD[:, -1] = hit & d_at
        self._ways_arr[lo:hi1] = newV
        self._dirty_arr[lo:hi1] = newD
        return (n_hits, n - n_hits, n_evict, n_wb)

    # -- inspection ---------------------------------------------------------

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no side effects)."""
        self._sync()
        if self._oplog:
            self._drain()
        line = address >> self._line_shift
        index = line & self._set_mask
        tag = line >> self._index_bits
        if self._ways_arr is not None:
            return bool((self._ways_arr[index] == tag).any())
        return tag in self._dictsets[index]

    @property
    def resident_lines(self) -> int:
        """Lines currently cached across all sets (sentinels excluded)."""
        self._sync()
        if self._oplog:
            self._drain()
        if self._ways_arr is not None:
            return int((self._ways_arr >= 0).sum())
        return sum(sum(1 for t in d if t >= 0) for d in self._dictsets)

    def flush(self) -> int:
        """Invalidate everything; return the number of dirty lines written back."""
        self._sync()
        if self._oplog:
            self._drain()
        if self._ways_arr is not None:
            dirty = int((self._dirty_arr & (self._ways_arr >= 0)).sum())
            self._ways_arr[:] = _np.arange(-self._ways, 0, dtype=_np.int64)
            self._dirty_arr[:] = False
            self._stats.writebacks += dirty
            return dirty
        dirty = 0
        for d in self._dictsets:
            dirty += sum(1 for t, bit in d.items() if bit and t >= 0)
            d.clear()
            d.update(dict.fromkeys(self._sentinels, False))
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
