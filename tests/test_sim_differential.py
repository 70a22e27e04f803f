"""Differential tests: the queue and the entry point are invisible.

The timer-wheel queue replaced the binary heap as a pure *mechanical*
change: both implementations must pop in the identical ``(time,
priority, seq)`` order, so every seeded run computes byte-identical
results whichever queue is underneath.  Likewise ``run``, ``step`` and
``run_until_event`` drive one dispatch loop, so they must compute the
same run.  These tests pin those properties:

* the TiVoPC pipeline, diffing whole :class:`Tracer` buffers record for
  record, across both queues and all three entry points;
* the chaos harness across seeds 0..9 (fault injection, watchdogs,
  recovery — the densest timer workload in the repo), diffing
  order-sensitive run fingerprints;
* the ack/retransmit protocol at ``jitter=0``, whose deterministic
  backoff schedule is the paper-facing behaviour most sensitive to
  timer reordering.
"""

import random
from dataclasses import replace

from repro import units
from repro.core import ChannelConfig, HydraRuntime
from repro.faults.chaos import ChaosProfile, run_chaos_scenario
from repro.hw import Machine
from repro.rdma.filter import run_filter_scenario
from repro.rdma.kv import run_kv_scenario
from repro.sim import Simulator, Tracer
from repro.tivopc.client import MeasurementClient
from repro.tivopc.server import SimpleServer
from repro.tivopc.testbed import Testbed, TestbedConfig

_SIM_SECONDS = 0.3
_ENTRY_POINTS = ("run", "step", "run_until_event")


def _horizon_marker(sim, horizon):
    """A process that finishes at ``horizon`` after everything else
    scheduled there, so stopping on it ends the run exactly where
    ``run(until=horizon)`` does."""
    yield sim.clock.after(horizon - sim.now)
    yield sim.clock.fence()


def _traced_tivopc_run(scheduler: str, seed: int, entry: str = "run"):
    testbed = Testbed(TestbedConfig(seed=seed, scheduler=scheduler))
    sim = testbed.sim
    sim.tracer = Tracer(sim, capacity=200_000)
    testbed.start()
    client = MeasurementClient(testbed)
    client.start()
    SimpleServer(testbed).start()
    horizon = sim.now + units.s_to_ns(_SIM_SECONDS)
    marker = sim.spawn(_horizon_marker(sim, horizon), name="horizon")
    if entry == "run":
        sim.run(until=horizon)
    elif entry == "step":
        while sim.peek() <= horizon:
            sim.step()
    else:
        sim.run_until_event(marker)
    return list(sim.tracer.records), sim, client


def test_tivopc_traces_identical_on_heap_and_wheel():
    for seed in (0, 7):
        wheel_records, wheel_sim, wheel_client = _traced_tivopc_run(
            "wheel", seed)
        heap_records, heap_sim, heap_client = _traced_tivopc_run(
            "heap", seed)
        assert wheel_sim.events_processed == heap_sim.events_processed
        assert wheel_sim.now == heap_sim.now
        assert (wheel_client.jitter.arrivals_ns
                == heap_client.jitter.arrivals_ns)
        # Bit-identical traces: every record, field for field, in order.
        assert wheel_records == heap_records


def test_tivopc_traces_identical_for_every_entry_point():
    for seed in (0, 7):
        outcomes = {}
        for entry in _ENTRY_POINTS:
            records, sim, client = _traced_tivopc_run("wheel", seed, entry)
            outcomes[entry] = (sim.events_processed, sim.fused_resumes,
                               sim.now, client.jitter.arrivals_ns, records)
        reference = outcomes["run"]
        for entry in _ENTRY_POINTS:
            assert outcomes[entry] == reference, f"seed {seed}: {entry}"


def test_event_count_read_inside_a_process_is_exact():
    """The kv and filter scenarios read ``sim.events_processed`` from
    inside their application process, under ``run_until_event``; the
    loop publishes the count before each entry's user code runs."""
    assert run_kv_scenario()["events"] == 2576
    assert run_filter_scenario()["events"] == 7464


def _chaos_fingerprint(seed: int, scheduler: str):
    """An order-sensitive digest of one chaos run.

    The chaos harness interleaves RNG draws with event dispatch, so any
    divergence in pop order immediately perturbs every field below
    (fault timing, retransmit counts, arrival times, final clock).
    """
    # 3.0 s is the shortest horizon the plan generator's crash/stall
    # windows admit; it still packs noise, transients, a stall and a
    # crash-recovery cycle into every seed.
    profile = replace(ChaosProfile(), seconds=3.0, scheduler=scheduler)
    run = run_chaos_scenario(seed, profile)
    channels = sorted(
        ((s.channel_id, s.label, s.sent, s.delivered, s.dropped,
          s.corrupted, s.retransmits, s.dup_dropped)
         for s in (c.stats()
                   for c in run.testbed.client_runtime.executive.channels)),
    )
    return {
        "events": run.testbed.sim.events_processed,
        "now": run.testbed.sim.now,
        "chunks": run.client.chunks_received,
        "frames": run.client.frames_shown,
        "packets": run.server.packets_sent,
        "plan": tuple(
            (event.at_ns, event.kind, event.target)
            for event in run.plan.events),
        "channels": channels,
        "incidents": len(run.testbed.client_runtime.incidents),
    }


def test_chaos_seeds_identical_on_heap_and_wheel():
    for seed in range(10):
        wheel = _chaos_fingerprint(seed, "wheel")
        heap = _chaos_fingerprint(seed, "heap")
        assert wheel == heap, f"seed {seed} diverged: {wheel} != {heap}"


def _retransmit_run(scheduler: str):
    """The noisy reliable channel with the deterministic (jitter=0)
    backoff; returns the full trace plus protocol outcomes.
    """
    sim = Simulator(scheduler=scheduler)
    sim.tracer = Tracer(sim, capacity=200_000)
    machine = Machine(sim)
    machine.add_nic()
    runtime = HydraRuntime(machine)
    config = (ChannelConfig.unicast().reliable().sequential().copied()
              .labeled("rel"))
    channel = runtime.executive.create_channel(config, runtime.host_site)
    device_ep = runtime.executive.connect_site(
        channel, runtime.device_runtime("nic0").site)
    rng = random.Random(42)

    def noise(message):
        draw = rng.random()
        if draw < 0.20:
            return "drop"
        if draw < 0.30:
            return "corrupt"
        return None

    channel.set_fault_filter(noise)
    got = []

    def reader():
        while True:
            message = yield from device_ep.read()
            got.append(message.payload)

    sim.spawn(reader())

    def writer():
        for i in range(50):
            yield from channel.creator_endpoint.write(("chunk", i), 128)

    sim.run_until_event(sim.spawn(writer()))
    stats = channel.stats()
    return (list(sim.tracer.records), got, sim.now,
            (stats.sent, stats.delivered, stats.dropped,
             stats.retransmits, stats.dup_dropped))


def test_retransmit_backoff_byte_identical_at_zero_jitter():
    wheel_records, wheel_got, wheel_now, wheel_stats = _retransmit_run(
        "wheel")
    heap_records, heap_got, heap_now, heap_stats = _retransmit_run("heap")
    assert wheel_got == heap_got == [("chunk", i) for i in range(50)]
    assert wheel_now == heap_now
    assert wheel_stats == heap_stats
    assert wheel_stats[3] > 0           # the retransmit path actually fired
    assert wheel_records == heap_records
