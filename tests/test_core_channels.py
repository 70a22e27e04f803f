"""Tests for channels, providers and the Channel Executive."""

import pytest

from repro.errors import ChannelClosedError, ChannelError, ProviderError
from repro.core.channel import ChannelConfig
from repro.core.executive import ChannelExecutive
from repro.core.interfaces import InterfaceSpec, MethodSpec
from repro.core.memory import MemoryManager
from repro.core.offcode import Offcode, OffcodeState
from repro.core.providers import (
    DmaChannelProvider,
    LoopbackProvider,
    PeerDmaProvider,
)
from repro.core.proxy import Proxy
from repro.core.sites import DeviceSite, HostSite
from repro.hw import Machine
from repro.hw.bus import HOST_MEMORY
from repro.sim import Simulator

IECHO = InterfaceSpec.from_methods(
    "IEcho", (MethodSpec("Echo", params=(("x", "int"),), result="int"),))


class EchoOffcode(Offcode):
    BINDNAME = "test.Echo"
    INTERFACES = (IECHO,)

    def Echo(self, x):
        return x * 2


class World:
    """A host with NIC + GPU, an executive with all providers, no kernel."""

    def __init__(self):
        self.sim = Simulator()
        self.machine = Machine(self.sim)
        self.nic = self.machine.add_nic()
        self.gpu = self.machine.add_gpu()
        self.host_site = HostSite(self.machine)
        self.nic_site = DeviceSite(self.nic)
        self.gpu_site = DeviceSite(self.gpu)
        self.memory = MemoryManager(self.machine)
        self.executive = ChannelExecutive()
        self.executive.register_provider(LoopbackProvider(self.machine))
        self.executive.register_provider(PeerDmaProvider(self.machine))
        for device in (self.nic, self.gpu):
            self.executive.register_provider(
                DmaChannelProvider(self.machine, device, self.memory))

    def running_offcode(self, cls, site):
        offcode = cls(site)
        offcode.state = OffcodeState.RUNNING
        return offcode


@pytest.fixture()
def world():
    return World()


# -- provider selection --------------------------------------------------------------

def test_loopback_selected_for_same_site(world):
    provider = world.executive.select_provider(
        world.host_site, world.host_site, ChannelConfig())
    assert provider.name == "loopback"


def test_dma_selected_for_host_device(world):
    provider = world.executive.select_provider(
        world.host_site, world.nic_site, ChannelConfig())
    assert provider.name == "dma-nic0"


def test_peer_selected_for_device_device(world):
    provider = world.executive.select_provider(
        world.nic_site, world.gpu_site, ChannelConfig())
    assert provider.name == "peer-dma"


def test_no_provider_raises(world):
    sim2 = Simulator()
    other = HostSite(Machine(sim2))
    with pytest.raises(ProviderError):
        world.executive.select_provider(world.host_site, other,
                                        ChannelConfig())


def test_cost_metric_prefers_zero_copy(world):
    direct = ChannelConfig.unicast().zero_copy()
    copying = ChannelConfig.unicast().copied()
    provider = world.executive.select_provider(
        world.host_site, world.nic_site, direct)
    cost_direct = provider.cost(world.host_site, world.nic_site, direct)
    cost_copy = provider.cost(world.host_site, world.nic_site, copying)
    assert cost_direct.score(1024) < cost_copy.score(1024)
    assert cost_direct.host_cpu_ns < cost_copy.host_cpu_ns


# -- basic channel mechanics ------------------------------------------------------------

def test_unicast_host_to_device_roundtrip(world):
    offcode = world.running_offcode(EchoOffcode, world.nic_site)
    channel = world.executive.create_channel(ChannelConfig(),
                                             world.host_site)
    world.executive.connect_offcode(channel, offcode)
    proxy = Proxy(IECHO, channel, channel.creator_endpoint)
    result = {}

    def app():
        result["echo"] = yield from proxy.Echo(21)

    world.sim.run_until_event(world.sim.spawn(app()))
    assert result["echo"] == 42
    assert channel.messages_sent == 1
    # The request crossed to the device, the reply came back.
    assert world.machine.bus.crossings[(HOST_MEMORY, "nic0")] >= 1
    assert world.machine.bus.crossings[("nic0", HOST_MEMORY)] >= 1


def test_channel_rings_created_for_dma(world):
    offcode = world.running_offcode(EchoOffcode, world.nic_site)
    channel = world.executive.create_channel(ChannelConfig(ring_slots=16),
                                             world.host_site)
    world.executive.connect_offcode(channel, offcode)
    assert channel.in_ring.capacity == 16
    assert channel.out_ring.capacity == 16


def test_write_before_connect_rejected(world):
    channel = world.executive.create_channel(ChannelConfig(),
                                             world.host_site)

    def app():
        yield from channel.creator_endpoint.write("x", 10)

    world.sim.spawn(app())
    with pytest.raises(ChannelError):
        world.sim.run()


def test_write_after_close_rejected(world):
    offcode = world.running_offcode(EchoOffcode, world.nic_site)
    channel = world.executive.create_channel(ChannelConfig(),
                                             world.host_site)
    world.executive.connect_offcode(channel, offcode)
    channel.close()

    def app():
        yield from channel.creator_endpoint.write("x", 10)

    world.sim.spawn(app())
    with pytest.raises(ChannelClosedError):
        world.sim.run()


def test_unicast_third_endpoint_rejected(world):
    offcode = world.running_offcode(EchoOffcode, world.nic_site)
    other = world.running_offcode(EchoOffcode, world.gpu_site)
    channel = world.executive.create_channel(ChannelConfig(),
                                             world.host_site)
    world.executive.connect_offcode(channel, offcode)
    with pytest.raises(ChannelError):
        world.executive.connect_offcode(channel, other)


def test_read_and_poll_data_messages(world):
    offcode = world.running_offcode(EchoOffcode, world.nic_site)
    channel = world.executive.create_channel(ChannelConfig(),
                                             world.host_site)
    endpoint = world.executive.connect_offcode(channel, offcode)
    got = {}

    def device_side():
        message = yield from endpoint.read()
        got["payload"] = message.payload
        got["size"] = message.size_bytes

    def host_side():
        yield from channel.creator_endpoint.write(b"data", 1024)

    assert not endpoint.poll()
    world.sim.spawn(device_side())
    world.sim.spawn(host_side())
    world.sim.run()
    assert got == {"payload": b"data", "size": 1024}


def test_call_handler_invoked_on_delivery(world):
    """Figure 3's InstallCallHandler: push, not poll."""
    offcode = world.running_offcode(EchoOffcode, world.nic_site)
    channel = world.executive.create_channel(ChannelConfig(),
                                             world.host_site)
    endpoint = world.executive.connect_offcode(channel, offcode)
    handled = []
    endpoint.install_call_handler(lambda message: handled.append(
        message.payload))

    def host_side():
        yield from channel.creator_endpoint.write("ping", 64)

    world.sim.run_until_event(world.sim.spawn(host_side()))
    assert handled == ["ping"]
    with pytest.raises(ChannelError):
        endpoint.install_call_handler(lambda m: None)


def test_unreliable_channel_drops_when_full(world):
    offcode = world.running_offcode(EchoOffcode, world.nic_site)
    config = ChannelConfig.unicast().unreliable().with_ring_slots(2)
    channel = world.executive.create_channel(config, world.host_site)
    world.executive.connect_offcode(channel, offcode)

    def host_side():
        for i in range(6):
            yield from channel.creator_endpoint.write(i, 64)

    world.sim.run_until_event(world.sim.spawn(host_side()))
    assert channel.drops == 4
    assert channel.messages_sent == 6


def test_sequential_sync_is_fifo(world):
    offcode = world.running_offcode(EchoOffcode, world.nic_site)
    channel = world.executive.create_channel(
        ChannelConfig.unicast().sequential(), world.host_site)
    endpoint = world.executive.connect_offcode(channel, offcode)
    received = []
    endpoint.install_call_handler(
        lambda message: received.append(message.payload))

    def writer(i):
        yield from channel.creator_endpoint.write(i, 2048)

    for i in range(5):
        world.sim.spawn(writer(i))
    world.sim.run()
    assert received == [0, 1, 2, 3, 4]


# -- multicast ---------------------------------------------------------------------------

def test_multicast_device_to_devices_single_bus_transaction(world):
    """The TiVoPC pattern: NIC sends one packet to GPU and disk at once."""
    disk = world.machine.add_disk()
    world.executive.register_provider(
        DmaChannelProvider(world.machine, disk, world.memory))
    disk_site = DeviceSite(disk)
    gpu_oc = world.running_offcode(EchoOffcode, world.gpu_site)
    disk_oc = world.running_offcode(EchoOffcode, disk_site)

    config = ChannelConfig.multicast()
    channel = world.executive.create_channel(config, world.nic_site)
    got = []
    for offcode in (gpu_oc, disk_oc):
        endpoint = world.executive.connect_offcode(channel, offcode)
        endpoint.install_call_handler(
            lambda message, loc=offcode.location: got.append(loc))

    def nic_side():
        yield from channel.creator_endpoint.write(b"pkt", 1024)

    world.sim.run_until_event(world.sim.spawn(nic_side()))
    assert sorted(got) == ["disk0", "gpu0"]
    # Hardware multicast: both crossings recorded, no host memory touched.
    assert world.machine.bus.crossings[("nic0", "gpu0")] == 1
    assert world.machine.bus.crossings[("nic0", "disk0")] == 1
    assert world.machine.bus.host_memory_crossings() == 0


def test_zero_copy_channel_leaves_host_cpu_alone(world):
    """Device-to-device traffic must not consume host CPU at all."""
    gpu_oc = world.running_offcode(EchoOffcode, world.gpu_site)
    channel = world.executive.create_channel(ChannelConfig(),
                                             world.nic_site)
    endpoint = world.executive.connect_offcode(channel, gpu_oc)
    endpoint.install_call_handler(lambda message: None)

    def nic_side():
        for _ in range(10):
            yield from channel.creator_endpoint.write(b"pkt", 1024)

    world.sim.run_until_event(world.sim.spawn(nic_side()))
    assert world.machine.cpu.total_busy == 0


def test_copy_channel_charges_host_cpu_more_than_direct(world):
    costs = {}
    for label, config in (("direct", ChannelConfig.unicast().zero_copy()),
                          ("copy", ChannelConfig.unicast().copied())):
        w = World()
        offcode = w.running_offcode(EchoOffcode, w.nic_site)
        channel = w.executive.create_channel(config, w.host_site)
        endpoint = w.executive.connect_offcode(channel, offcode)
        endpoint.install_call_handler(lambda message: None)

        def app(w=w, channel=channel):
            for _ in range(20):
                yield from channel.creator_endpoint.write(b"x", 4096)

        w.sim.run_until_event(w.sim.spawn(app()))
        costs[label] = w.machine.cpu.total_busy
    # Without a kernel the copy path still pays descriptor costs; with
    # pinning amortised the direct path must be cheaper.
    assert costs["direct"] <= costs["copy"]
