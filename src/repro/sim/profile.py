"""Hot-loop profiling for the discrete-event simulator.

A :class:`SimProfiler` attaches to a :class:`repro.sim.engine.Simulator`
(``sim.attach_profiler(profiler)``) and observes every event the main
loop processes.  For each *category* — the name of the process the event
wakes, or the event's class when no process is waiting — it accumulates:

* **event counts** — how many loop iterations the category consumed;
* **simulated-time attribution** — how far the clock advanced to reach
  each of the category's events (who "owns" simulated time);
* **wall-time hotspots** — real seconds from one of the category's
  entries being popped to the next entry being popped (who "owns" your
  CPU while simulating: the callbacks or process resumption the entry
  triggered, plus the loop's own cost for it).

When no profiler is attached the loop pays exactly one ``is None`` check
per event, so the hook is free in production runs.  While attached, the
loop calls :meth:`SimProfiler.observe` with each entry before
dispatching it, and once more when it stops.

>>> from repro.sim import Simulator, SimProfiler
>>> sim = Simulator()
>>> profiler = SimProfiler(sim)
>>> sim.attach_profiler(profiler)
>>> # ... spawn processes, sim.run(...) ...
>>> sim.detach_profiler()
>>> # print(profiler.render())
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from repro.sim.engine import Process, Simulator, Timer

__all__ = ["CategoryStats", "SimProfiler", "profiled"]

# Collapse per-instance suffixes ("worker-3" -> "worker-N") so fleets of
# identical processes aggregate into one category.
_INSTANCE_SUFFIX = re.compile(r"-\d+$")


class CategoryStats:
    """Accumulated counters for one event category."""

    __slots__ = ("events", "wall_s", "sim_ns")

    def __init__(self) -> None:
        self.events = 0        # loop iterations
        self.wall_s = 0.0      # real seconds dispatching its entries
        self.sim_ns = 0        # simulated ns the clock advanced to get here

    def as_dict(self) -> Dict[str, float]:
        """The counters as a JSON-serializable dict."""
        return {"events": self.events, "wall_s": self.wall_s,
                "sim_ns": self.sim_ns}


class SimProfiler:
    """Per-category event/time attribution for a simulator's main loop."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.categories: Dict[str, CategoryStats] = {}
        self.total = CategoryStats()
        self._last_now = sim.now
        # The category of the entry being dispatched, and when it began.
        self._open: Optional[CategoryStats] = None
        self._opened_at = 0.0
        self._attach_wall: Optional[float] = None
        self.wall_elapsed_s = 0.0

    # -- loop hook (called by the Simulator's dispatch loop) ---------------

    def observe(self, obj, seq: int = 0) -> None:
        """Charge one popped queue entry to its category.

        The loop calls this with each entry ``obj`` (and its queue
        ``seq``) after advancing the clock and before dispatching it,
        and with ``obj=None`` when it stops.  The wall time since the
        previous call is charged to the previous entry's category.
        """
        wall = perf_counter()
        stats = self._open
        if stats is not None:
            elapsed = wall - self._opened_at
            stats.wall_s += elapsed
            self.total.wall_s += elapsed
        if obj is None:
            self._open = None
            return
        now = self.sim.now
        advanced = now - self._last_now
        self._last_now = now
        label = self._label(obj, seq)
        stats = self.categories.get(label)
        if stats is None:
            stats = self.categories[label] = CategoryStats()
        stats.events += 1
        stats.sim_ns += advanced
        total = self.total
        total.events += 1
        total.sim_ns += advanced
        self._open = stats
        self._opened_at = perf_counter()

    @staticmethod
    def _label(obj, seq: int) -> str:
        """Category for an entry: the process it resumes, else the
        timer's function, else the waiting process, else the class."""
        if isinstance(obj, Timer):
            fn = obj.fn
            name = getattr(fn, "__qualname__", None) or getattr(
                fn, "__name__", "fn")
            return f"timer:{_INSTANCE_SUFFIX.sub('-N', name)}"
        stale = obj._stale_seqs
        if obj._cont_seq == seq or (stale is not None and seq in stale):
            # A fused sleep (or one abandoned by an interrupt): the
            # entry is the process itself.
            return _INSTANCE_SUFFIX.sub("-N", obj.name)
        callbacks = obj.callbacks
        if callbacks:
            owner = getattr(callbacks[0], "__self__", None)
            if isinstance(owner, Process):
                return _INSTANCE_SUFFIX.sub("-N", owner.name)
        return type(obj).__name__

    # -- lifecycle helpers -------------------------------------------------

    def mark_attached(self) -> None:
        """Note the wall clock so :attr:`wall_elapsed_s` covers the run."""
        self._attach_wall = perf_counter()
        self._last_now = self.sim.now

    def mark_detached(self) -> None:
        """Close the wall-clock window opened by :meth:`mark_attached`."""
        if self._attach_wall is not None:
            self.wall_elapsed_s += perf_counter() - self._attach_wall
            self._attach_wall = None

    # -- reporting ---------------------------------------------------------

    def hotspots(self, limit: Optional[int] = None) -> List[tuple]:
        """``(label, CategoryStats)`` pairs, hottest wall time first."""
        ranked = sorted(self.categories.items(),
                        key=lambda kv: kv[1].wall_s, reverse=True)
        return ranked[:limit] if limit is not None else ranked

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable report (JSON-serializable)."""
        return {
            "total": self.total.as_dict(),
            "wall_elapsed_s": self.wall_elapsed_s,
            "categories": {label: stats.as_dict()
                           for label, stats in self.hotspots()},
        }

    def render(self, limit: int = 20) -> str:
        """Human-readable hotspot table, hottest first."""
        total = self.total
        lines = [
            f"simulator profile: {total.events} events, "
            f"{total.wall_s * 1e3:.1f} ms dispatching, "
            f"{total.sim_ns / 1e6:.1f} ms simulated",
            f"{'category':32s} {'events':>8s} {'ev%':>6s} "
            f"{'wall ms':>9s} {'wall%':>6s} {'sim ms':>9s} {'sim%':>6s}",
        ]
        ev_total = total.events or 1
        wall_total = total.wall_s or 1.0
        sim_total = total.sim_ns or 1
        for label, stats in self.hotspots(limit):
            lines.append(
                f"{label:32s} {stats.events:8d} "
                f"{100.0 * stats.events / ev_total:5.1f}% "
                f"{stats.wall_s * 1e3:9.2f} "
                f"{100.0 * stats.wall_s / wall_total:5.1f}% "
                f"{stats.sim_ns / 1e6:9.2f} "
                f"{100.0 * stats.sim_ns / sim_total:5.1f}%")
        return "\n".join(lines)


@contextmanager
def profiled(sim: Simulator) -> Iterator[SimProfiler]:
    """Attach a fresh profiler for the duration of a ``with`` block.

    >>> with profiled(sim) as profiler:
    ...     sim.run(until=1_000_000)
    >>> # print(profiler.render())
    """
    profiler = SimProfiler(sim)
    sim.attach_profiler(profiler)
    profiler.mark_attached()
    try:
        yield profiler
    finally:
        profiler.mark_detached()
        sim.detach_profiler()
