"""Determinism guarantees of the hot-path overhaul.

Lazy cancellation and the inlined dispatch loop are pure *mechanical*
optimizations: they must never change what a seeded run computes.
These tests pin that property by diffing whole trace buffers and
counters between repeated seeded runs, and by exercising the
lazy-cancellation path that replaced ``interrupt()``'s O(n) callback
scans.
"""

from repro.errors import InterruptError
from repro.sim import Simulator, Tracer
from repro.tivopc.client import MeasurementClient
from repro.tivopc.server import SimpleServer
from repro.tivopc.testbed import Testbed, TestbedConfig

# Short but non-trivial: a few thousand events through kernels, NICs,
# caches and the media pipeline.
_SIM_SECONDS = 0.5


def _traced_tivopc_run():
    """One seeded TiVoPC run; returns (trace records, simulator)."""
    testbed = Testbed(TestbedConfig(seed=7))
    testbed.sim.tracer = Tracer(testbed.sim, capacity=100_000)
    testbed.start()
    client = MeasurementClient(testbed)
    client.start()
    SimpleServer(testbed).start()
    testbed.run(_SIM_SECONDS)
    return list(testbed.sim.tracer.records), testbed.sim, client


def test_seeded_tivopc_runs_are_reproducible():
    first, first_sim, _ = _traced_tivopc_run()
    second, second_sim, _ = _traced_tivopc_run()
    assert first_sim.events_processed == second_sim.events_processed
    assert first == second


def test_interrupt_abandons_large_condition_lazily():
    """Regression for the O(n) interrupt scan (satellite b).

    A waiter parked on a 1000-event condition is interrupted mid-wait.
    ``interrupt()`` must not walk the condition's callback list: the
    stale registration stays behind (asserted below) and ``_resume``
    discards the eventual wakeup.  The run must still complete with the
    interrupt delivered once and the process able to wait again.
    """
    sim = Simulator()
    waiters = [sim.timeout(10_000 + i) for i in range(1_000)]
    condition = sim.all_of(waiters)
    seen = {}

    def waiter():
        try:
            yield condition
        except InterruptError as exc:
            seen["cause"] = exc.cause
            seen["interrupted_at"] = sim.now
        seen["value"] = yield sim.timeout(5, "after")

    proc = sim.spawn(waiter())

    def interrupter():
        yield sim.timeout(100)
        proc.interrupt("abandon")
        # Lazy cancellation: the abandoned condition still carries the
        # stale callback — no scan removed it.
        assert condition.callbacks

    sim.spawn(interrupter())
    sim.run()

    assert seen["cause"] == "abandon"
    assert seen["interrupted_at"] == 100
    assert seen["value"] == "after"
    # The condition fired long after the waiter left; the stale wakeup
    # was dropped without reviving the (finished) process.
    assert condition.triggered
    assert not proc.alive


def test_stale_pooled_timeout_wakeup_is_dropped():
    """An abandoned fused sleep must not resume its old waiter.

    The waiter abandons a ``clock.after`` sleep via interrupt and then
    sleeps again; when the original sleep's entry pops, it must be
    discarded by the continuation-sequence check, counted in
    ``dead_timers`` until then.
    """
    sim = Simulator()
    order = []

    def sleeper():
        try:
            yield sim.clock.after(1_000)
        except InterruptError:
            order.append(("interrupted", sim.now))
        yield sim.clock.after(2_000)
        order.append(("woke", sim.now))

    proc = sim.spawn(sleeper())

    def interrupter():
        yield sim.timeout(10)
        proc.interrupt()
        assert sim.dead_timers == 1     # the abandoned entry awaits its pop

    sim.spawn(interrupter())
    sim.run()
    assert order == [("interrupted", 10), ("woke", 2_010)]
    assert sim.dead_timers == 0
