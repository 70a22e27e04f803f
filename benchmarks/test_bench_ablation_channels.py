"""Ablation: zero-copy (direct) vs copying channels (Section 4.1).

Figure 6's zero-copy architecture exists because copying channels charge
the host CPU per payload byte and stream the data through the L2.  The
sweep sends messages of increasing size over a host->NIC channel in both
buffering modes and reports per-message host CPU cost: the copy mode's
cost must grow linearly with size while the direct mode stays flat, so
the gap widens with message size.
"""

from conftest import publish

from repro.core import (
    ChannelConfig,
    ChannelExecutive,
    DmaChannelProvider,
    LoopbackProvider,
    MemoryManager,
    Offcode,
    OffcodeState,
)
from repro.core.sites import DeviceSite, HostSite
from repro.evaluation import format_table
from repro.hw import Machine
from repro.sim import Simulator

SIZES = (256, 1024, 4096, 16384, 65536)
MESSAGES = 50


class SinkOffcode(Offcode):
    BINDNAME = "bench.Sink"


def channel_cpu_cost(config: ChannelConfig, size: int) -> float:
    """Average host CPU ns per message for one (mode, size) point."""
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_nic()
    executive = ChannelExecutive()
    memory = MemoryManager(machine)
    executive.register_provider(LoopbackProvider(machine))
    executive.register_provider(DmaChannelProvider(machine, nic, memory))
    host = HostSite(machine)
    sink = SinkOffcode(DeviceSite(nic))
    sink.state = OffcodeState.RUNNING
    channel = executive.create_channel(
        config.with_ring_slots(256), host)
    endpoint = executive.connect_offcode(channel, sink)
    endpoint.install_call_handler(lambda message: None)

    def writer():
        for _ in range(MESSAGES):
            yield from channel.creator_endpoint.write(b"", size)

    sim.run_until_event(sim.spawn(writer()))
    return machine.cpu.total_busy / MESSAGES


def test_bench_ablation_channels(one_shot):
    def sweep():
        rows = []
        for size in SIZES:
            direct = channel_cpu_cost(ChannelConfig.unicast().zero_copy(),
                                      size)
            copy = channel_cpu_cost(ChannelConfig.unicast().copied(), size)
            rows.append((size, direct, copy))
        return rows

    rows = one_shot(sweep)
    publish("ablation_channels", format_table(
        "Ablation: host CPU ns/message, zero-copy vs copying channel",
        ["message bytes", "direct (zero-copy)", "copy mode", "ratio"],
        [[str(s), f"{d:.0f}", f"{c:.0f}", f"{c / d:.1f}x"]
         for s, d, c in rows]))

    directs = [d for _s, d, _c in rows]
    copies = [c for _s, _d, c in rows]
    # Copy cost grows ~linearly with size; direct stays flat.
    assert copies[-1] > 20 * copies[0] * (SIZES[0] / SIZES[0])
    assert directs[-1] < 4 * directs[0]
    # The gap widens: at 64 kB the copy path is far more expensive.
    assert copies[-1] / directs[-1] > 10
    # Even at 1 kB (the paper's packet size) zero-copy wins.
    assert copies[1] > directs[1]
