"""Host CPU model with per-context utilization accounting.

The evaluation reports CPU utilization medians/averages/std-devs sampled
over a run (Tables 3 and 4).  The model is a single execution resource
(the paper's testbed used single-core Pentium 4 hosts) on which simulated
processes charge work either in *cycles* or directly in nanoseconds.
Every busy interval is attributed to a context label (``"idle-daemons"``,
``"server"``, ``"kernel"``, ...) so experiments can both sample total
utilization and break it down.

Two mechanisms keep the CPU off the event loop's critical path:

* **A free CPU costs no grant event.**  :meth:`Cpu.execute` on an idle
  CPU claims it inline and goes straight to its sleep; only a busy CPU
  queues through the FIFO :class:`~repro.sim.resources.Resource`.
* **The timer interrupt is advanced lazily.**  A
  :class:`TimerInterrupt` (the host kernel's 1 kHz tick) is a state
  machine, not a process.  It sleeps until it is due, then holds the
  CPU for its cost, or waits in the FIFO behind the current holder,
  exactly as a process calling :meth:`Cpu.execute` would.  Its
  transitions are applied only when someone looks: every observer of
  the CPU (``execute``, ``busy``, ``queue_depth``, ``utilization``,
  ``total_busy``, ``busy_by_context``, :class:`CpuSampler`) and of a
  cache it touches first calls :meth:`TimerInterrupt.advance`.  A tick
  takes a queue entry only when the CPU is contended around it: a
  request arriving while the tick holds the CPU schedules the tick's
  release with ``clock.at`` so the waiter is granted on time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro import units
from repro.errors import HardwareError
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource

__all__ = ["CpuSpec", "Cpu", "CpuSampler", "TimerInterrupt"]

_INF = float("inf")

# TimerInterrupt states.
_SLEEPING = 0      # not holding the CPU; fires at `due`
_HOLDING = 1       # holding the CPU, released lazily at `due`
_QUEUED = 2        # waiting in the CPU's FIFO
_RELEASING = 3     # holding the CPU; its release is a scheduled entry


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a CPU.

    Defaults match the paper's hosts: 2.4 GHz Intel Pentium 4.
    ``active_watts``/``idle_watts`` feed the power model (the paper quotes
    68 W for a Pentium 4 2.8 GHz; we scale for the 2.4 GHz testbed parts).
    """

    name: str = "pentium4"
    frequency_hz: float = 2.4e9
    active_watts: float = 58.0
    idle_watts: float = 9.0

    def cycles_to_ns(self, cycles: int) -> int:
        """Wall time of ``cycles`` at this CPU's frequency."""
        return units.cycles_to_ns(cycles, self.frequency_hz)


class Cpu:
    """A single simulated CPU with FIFO contention and busy accounting."""

    def __init__(self, sim: Simulator, spec: Optional[CpuSpec] = None,
                 name: str = "cpu0") -> None:
        self.sim = sim
        self.spec = spec or CpuSpec()
        self.name = name
        self._resource = Resource(sim, capacity=1)
        self._busy_by_context: Dict[str, int] = {}
        self._total_busy = 0
        self._irq: Optional[TimerInterrupt] = None

    def install_interrupt(self, period_ns: int, cost_ns: int, context: str,
                          handler: Callable[[], None]) -> "TimerInterrupt":
        """Install this CPU's periodic timer interrupt.

        From ``period_ns`` after now, the interrupt fires every
        ``period_ns`` after its previous release: it calls ``handler()``
        and occupies the CPU for ``cost_ns``, charged to ``context``.
        A CPU has at most one timer interrupt.
        """
        if self._irq is not None:
            raise HardwareError(f"{self.name} already has a timer interrupt")
        self._irq = TimerInterrupt(self, period_ns, cost_ns, context, handler)
        return self._irq

    def _sync(self) -> None:
        """Bring the timer interrupt up to ``sim.now``."""
        irq = self._irq
        if irq is not None and irq.due <= self.sim.now:
            irq.advance()

    # -- execution ----------------------------------------------------------

    def execute(self, duration_ns: int, context: str = "anonymous"
                ) -> Generator[Event, None, None]:
        """Process generator: occupy the CPU for ``duration_ns``.

        Usage inside a simulated process::

            yield from cpu.execute(units.us_to_ns(230), context="server")
        """
        if duration_ns < 0:
            raise HardwareError(f"negative CPU work: {duration_ns}")
        sim = self.sim
        irq = self._irq
        if irq is not None and irq.due <= sim.now:
            irq.advance()
        resource = self._resource
        if resource.in_use == 0:
            # A free CPU is taken inline: no grant event.
            resource.in_use = 1
            resource._busy_since = sim.now
        else:
            if irq is not None and irq._state == _HOLDING:
                irq._schedule_release()
            yield resource.request()
        try:
            # Bare-int yield: the engine's allocation-free fused sleep.
            yield duration_ns
        finally:
            if irq is not None and irq.due <= sim.now:
                irq.advance()
            resource.release()
            self._charge(context, duration_ns)

    def execute_cycles(self, cycles: int, context: str = "anonymous"
                       ) -> Generator[Event, None, None]:
        """Occupy the CPU for ``cycles`` at the CPU's clock frequency."""
        yield from self.execute(self.spec.cycles_to_ns(cycles), context=context)

    def _charge(self, context: str, duration_ns: int) -> None:
        self._total_busy += duration_ns
        self._busy_by_context[context] = (
            self._busy_by_context.get(context, 0) + duration_ns)

    # -- inspection ---------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while something is executing."""
        self._sync()
        return self._resource.in_use > 0

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for the CPU (excluding the current holder)."""
        self._sync()
        return len(self._resource._waiters)

    @property
    def total_busy(self) -> int:
        """Nanoseconds of finished work (a hold counts once released)."""
        self._sync()
        return self._total_busy

    @property
    def busy_by_context(self) -> Dict[str, int]:
        """Finished work in nanoseconds, per context label."""
        self._sync()
        return self._busy_by_context

    def utilization(self) -> float:
        """Busy fraction of wall time from t=0 to now."""
        self._sync()
        return self._resource.utilization()

    def context_share(self, context: str) -> float:
        """Fraction of all busy time attributed to ``context``."""
        total = self.total_busy
        if total == 0:
            return 0.0
        return self._busy_by_context.get(context, 0) / total


class TimerInterrupt:
    """A CPU's periodic timer interrupt, advanced lazily.

    Behaves exactly like a process looping ``sleep(period); handler();
    cpu.execute(cost)``: it fires ``period_ns`` after its previous
    release, calls ``handler()``, and then holds the CPU for
    ``cost_ns`` (at once if the CPU is free, otherwise after the holders
    already queued in the FIFO).  Four states:

    * *sleeping* until :attr:`due`, when it fires;
    * *holding* the CPU, released lazily at :attr:`due`;
    * *queued* in the CPU's FIFO (a real waiter; the holder's release
      grants it);
    * *releasing*: holding the CPU with its release scheduled as a
      ``clock.at`` entry, because a request arrived during the hold.

    Only the last state costs a queue entry.  :attr:`due` is the time
    of the next sleeping/holding transition (``inf`` in the other two
    states) and :meth:`advance` applies every transition due at or
    before ``sim.now``.  The CPU, and every cache the handler touches
    (:meth:`repro.hw.cache.Cache.attach_interrupt`), call it before
    looking at their state, so nobody observes the interrupt out of
    date.  A transition due exactly at ``sim.now`` is therefore applied
    before whatever entry is running at that instant acts.
    """

    __slots__ = ("cpu", "sim", "period_ns", "cost_ns", "context",
                 "handler", "due", "_state")

    def __init__(self, cpu: Cpu, period_ns: int, cost_ns: int, context: str,
                 handler: Callable[[], None]) -> None:
        if period_ns <= 0 or cost_ns < 0:
            raise HardwareError(
                f"bad timer interrupt: period {period_ns}, cost {cost_ns}")
        self.cpu = cpu
        self.sim = cpu.sim
        self.period_ns = period_ns
        self.cost_ns = cost_ns
        self.context = context
        self.handler = handler
        # Time of the next transition advance() applies (inf while the
        # interrupt waits in the FIFO or its release is scheduled).
        self.due = self.sim.now + period_ns
        self._state = _SLEEPING

    def advance(self) -> None:
        """Apply every lazy transition due at or before ``sim.now``."""
        now = self.sim.now
        resource = self.cpu._resource
        while self.due <= now:
            when = self.due
            # Re-entrant observers (the handler's own cache touch) see
            # nothing due while this transition runs.
            self.due = _INF
            if self._state == _SLEEPING:
                self.handler()
                if resource.in_use == 0:
                    resource.in_use = 1
                    resource._busy_since = when
                    self._hold(when)
                else:
                    # A real FIFO waiter: the holder's release calls
                    # succeed() on it.
                    self._state = _QUEUED
                    resource._waiters.append(self)
            else:
                # Lazy release: nobody waits behind a holding interrupt.
                resource.in_use = 0
                resource.busy_time += when - resource._busy_since
                resource._busy_since = None
                self._sleep(when)

    def succeed(self, _resource: Resource) -> None:
        """FIFO grant (called by the resource's release): hold the CPU."""
        self._hold(self.sim.now)
        if self.cpu._resource._waiters:
            self._schedule_release()

    def _hold(self, start: int) -> None:
        self._state = _HOLDING
        self.due = start + self.cost_ns

    def _schedule_release(self) -> None:
        """A request arrived during the hold: release with a real entry."""
        self._state = _RELEASING
        self.sim.clock.at(self.due, self._release)
        self.due = _INF

    def _release(self) -> None:
        self.cpu._resource.release()
        self._sleep(self.sim.now)

    def _sleep(self, released: int) -> None:
        self.cpu._charge(self.context, self.cost_ns)
        self._state = _SLEEPING
        self.due = released + self.period_ns


class CpuSampler:
    """Windowed utilization sampler (the paper samples every 5 s).

    Each call to :meth:`sample` records the utilization of the window since
    the previous call, computed from the CPU's cumulative busy time.
    """

    def __init__(self, cpu: Cpu) -> None:
        self.cpu = cpu
        self.samples: List[Tuple[int, float]] = []
        self._last_time = cpu.sim.now
        self._last_busy = self._current_busy()

    def _current_busy(self) -> int:
        self.cpu._sync()
        resource = self.cpu._resource
        busy = resource.busy_time
        if resource._busy_since is not None:
            busy += self.cpu.sim.now - resource._busy_since
        return busy

    def sample(self) -> float:
        """Record and return utilization over the window just ended."""
        now = self.cpu.sim.now
        busy = self._current_busy()
        window = now - self._last_time
        util = (busy - self._last_busy) / window if window > 0 else 0.0
        self.samples.append((now, util))
        self._last_time = now
        self._last_busy = busy
        return util

    def utilizations(self) -> List[float]:
        """The recorded per-window utilizations."""
        return [u for _, u in self.samples]
