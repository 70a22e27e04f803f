"""In-memory span ledger: where the host time of a traced run goes.

:meth:`Ledger.install` wraps the functions and methods defined in the
``repro`` modules of each layer so that every call that crosses from one
module into another opens a span.  A span records its unit (the callee's
module), its parent unit, and its start and end in ``perf_counter_ns``
ticks.  Calls inside one module open no span, which keeps the count of
spans, and the cost of tracing, proportional to layer crossings.

Generator functions (``Cpu.execute``, ``Proxy.invoke``,
``QueuePair.ring_doorbell``...) are wrapped by a generator that opens a
span around *each resume* of the wrapped generator, not just the call
that creates it, so a process resumed by the engine is charged to its
own module and not to the engine.

A unit's self time is the time it sat on top of the span stack.  Self
times are integer nanoseconds that telescope, so their sum equals the
traced root's wall time exactly.  ``sim`` is the residual of
``Simulator.run``: only the engine's run/step entry points are wrapped
in ``repro.sim``, and whatever they do outside the spans of other
layers is the engine's own cost.

Aggregates (self time and span count per unit) cover every span; the
raw span records are kept for the first :data:`SPAN_SAMPLE` spans only,
so memory stays bounded on long runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# The unit charged for time outside every wrapped call: the benchmark's
# own code (and the stdlib it calls).
BENCH_UNIT = "bench"
SPAN_SAMPLE = 20_000

# Packages of ``repro`` and the ledger layer they report under.
LAYERS = {
    "sim": "sim", "hw": "hw", "hostos": "hostos", "net": "net",
    "core": "core", "rdma": "rdma", "tivopc": "tivopc", "media": "media",
    "evaluation": "evaluation", "telemetry": "telemetry",
    "faults": "other", "resilience": "other", "virt": "other",
}
# In ``repro.sim`` only the engine's entry points are spans; every other
# sim helper is charged to its caller, which makes ``sim`` the residual
# of ``Simulator.run``.
SIM_ENTRY_POINTS = {("Simulator", "run"), ("Simulator", "run_until_event"),
                    ("Simulator", "step")}
# Dunder methods worth a span (constructors build whole worlds).
_DUNDERS = {"__init__", "__call__"}


def layer_of(unit: str) -> str:
    """The ledger layer of a unit (``repro.hw.cache`` -> ``hw``)."""
    parts = unit.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return LAYERS.get(parts[1], "other")
    return BENCH_UNIT


class Ledger:
    """Span stack plus per-unit self time, span and call counts."""

    def __init__(self, counted: Optional[Dict[str, str]] = None) -> None:
        # ``counted`` maps "module:Qualname" of a function to a counter
        # name; each call to it increments that counter.
        self.counted = dict(counted or {})
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.spans: Dict[str, int] = defaultdict(int)
        self.sample: List[Tuple[str, str, int, int]] = []
        self._stack: List[str] = [BENCH_UNIT]
        self._starts: List[int] = [0]
        self._last = time.perf_counter_ns()
        self._root_start = self._last
        self._patches: List[Tuple[Any, str, Any]] = []
        self._paused = False
        self._paused_ns = 0
        self.result: Optional["LedgerResult"] = None

    # -- the span stack --------------------------------------------------

    def enter(self, unit: str) -> None:
        if self._paused:
            return
        now = time.perf_counter_ns()
        self.self_ns[self._stack[-1]] += now - self._last
        self._last = now
        self._stack.append(unit)
        self._starts.append(now)
        self.spans[unit] += 1

    def leave(self) -> None:
        if self._paused:
            return
        now = time.perf_counter_ns()
        unit = self._stack.pop()
        self.self_ns[unit] += now - self._last
        self._last = now
        start = self._starts.pop()
        if len(self.sample) < SPAN_SAMPLE:
            self.sample.append((unit, self._stack[-1], start, now))

    def reset(self) -> None:
        """Start the root span now, dropping everything recorded so far.

        Call from benchmark code outside every wrapped call.
        """
        if len(self._stack) != 1:
            raise RuntimeError("ledger reset inside a span")
        self.calls.clear()
        self.self_ns.clear()
        self.spans.clear()
        del self.sample[:]
        self._paused = False
        self._paused_ns = 0
        self._last = self._root_start = time.perf_counter_ns()
        self._starts[0] = self._root_start

    def pause(self) -> None:
        """Stop recording: spans, counted calls and root time, until
        :meth:`resume`.  Call from benchmark code outside every wrapped
        call, as for :meth:`reset`."""
        if len(self._stack) != 1:
            raise RuntimeError("ledger paused inside a span")
        now = time.perf_counter_ns()
        self.self_ns[BENCH_UNIT] += now - self._last
        self._last = now
        self._paused = True

    def resume(self) -> None:
        now = time.perf_counter_ns()
        self._paused_ns += now - self._last
        self._last = now
        self._paused = False

    def stop(self) -> "LedgerResult":
        """End the root span (charging the tail to the benchmark).

        Keeps a frozen copy as :attr:`result` (and returns it): wrapped
        generators still alive after the root, such as processes of a
        finished world, keep their spans out of it.
        """
        if len(self._stack) != 1:
            raise RuntimeError("ledger stopped inside a span")
        now = time.perf_counter_ns()
        self.self_ns[BENCH_UNIT] += now - self._last
        self._last = now
        self.result = LedgerResult(dict(self.self_ns), dict(self.spans),
                                   dict(self.calls), list(self.sample),
                                   now - self._root_start - self._paused_ns)
        return self.result

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn: Callable, unit: str,
             counter: Optional[str] = None) -> Callable:
        """``fn`` with a span per call (and per resume, for generators)."""
        stack = self._stack
        enter = self.enter
        leave = self.leave
        calls = self.calls
        ledger = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if counter is not None and not ledger._paused:
                    calls[counter] += 1
                gen = fn(*args, **kwargs)
                send = gen.send
                value = None
                error = None
                while True:
                    pushed = stack[-1] != unit
                    if pushed:
                        enter(unit)
                    try:
                        if error is None:
                            item = send(value)
                        else:
                            item = gen.throw(error)
                    except StopIteration as stop:
                        if pushed:
                            leave()
                        return stop.value
                    except BaseException:
                        if pushed:
                            leave()
                        raise
                    if pushed:
                        leave()
                    error = None
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # delivered into gen
                        error = exc
                        value = None
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None and not ledger._paused:
                calls[counter] += 1
            if stack[-1] == unit:
                return fn(*args, **kwargs)
            enter(unit)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return wrapper

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every function and method of the loaded layer modules.

        Only modules already imported are wrapped: run the workload once
        untraced first, so everything the traced pass calls is loaded.
        """
        replaced: Dict[int, Callable] = {}
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None and name.startswith("repro.")
                   and name.split(".")[1] in LAYERS
                   and not name.endswith("__main__")]
        for module in modules:
            unit = module.__name__
            in_sim = unit.startswith("repro.sim.")
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != unit:
                    continue
                if inspect.isfunction(value) and not in_sim:
                    wrapped = self.wrap(value, unit,
                                        self.counted.get(f"{unit}:{name}"))
                    replaced[id(value)] = wrapped
                    self._patch(module, name, wrapped)
                elif inspect.isclass(value):
                    self._wrap_class(value, unit, in_sim)
        # Modules that imported a wrapped function by name call it
        # through their own global; point those at the wrapper too.
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and getattr(
                        value, "__module__", None) != module.__name__:
                    self._patch(module, name, wrapped)

    def _wrap_class(self, cls: type, unit: str, in_sim: bool) -> None:
        if issubclass(cls, BaseException):
            return
        for name, raw in list(vars(cls).items()):
            if name.startswith("__") and name not in _DUNDERS:
                continue
            if in_sim and (cls.__name__, name) not in SIM_ENTRY_POINTS:
                continue
            counter = self.counted.get(f"{unit}:{cls.__name__}.{name}")
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(raw.__func__, unit, counter))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, unit, counter))
            elif isinstance(raw, property) and raw.fget is not None:
                wrapped = property(self.wrap(raw.fget, unit), raw.fset,
                                   raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                wrapped = self.wrap(raw, unit, counter)
            else:
                continue
            self._patch(cls, name, wrapped)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def wrap_generator(self, gen_fn: Callable) -> Callable:
        """A benchmark-side generator, charged to the benchmark itself."""
        return self.wrap(gen_fn, BENCH_UNIT)


@dataclass
class LedgerResult:
    """What one traced root recorded."""

    self_ns: Dict[str, int]
    spans: Dict[str, int]
    calls: Dict[str, int]
    sample: List[Tuple[str, str, int, int]]
    root_ns: int

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer; sums to the root's wall time exactly."""
        totals: Dict[str, int] = defaultdict(int)
        for unit, ns in self.self_ns.items():
            totals[layer_of(unit)] += ns
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def unit_self_s(self, unit: str) -> float:
        return self.self_ns.get(unit, 0) / 1e9

    def to_json(self) -> Dict[str, Any]:
        """The ledger as written out at the end of a traced run."""
        return {
            "root_s": self.root_ns / 1e9,
            "layers_self_s": self.layer_self_s(),
            "units": {unit: {"self_s": ns / 1e9,
                             "spans": self.spans.get(unit, 0)}
                      for unit, ns in sorted(self.self_ns.items())},
            "calls": self.calls,
            "span_sample": {
                "fields": ["unit", "parent", "start_ns", "end_ns"],
                "spans": self.sample,
            },
        }
