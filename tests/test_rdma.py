"""Tests for the one-sided RDMA substrate: regions, verbs, provider."""

import pytest

from repro.errors import DeviceFailedError, HydraError, ProviderError, RdmaError
from repro.core.channel import ChannelConfig
from repro.core.executive import ChannelExecutive
from repro.core.memory import MemoryManager
from repro.core.providers import DmaChannelProvider, LoopbackProvider
from repro.core.runtime import HydraRuntime
from repro.core.sites import DeviceSite, HostSite
from repro.hw import Machine, NicSpec
from repro.rdma.mr import RdmaRegion
from repro.rdma.provider import RDMA_FEATURE, RdmaProvider
from repro.rdma.verbs import CAS_WIRE_BYTES, CompletionQueue
from repro.sim import Simulator


class World:
    """A host + RDMA-capable NIC + smart disk, provider pre-built."""

    def __init__(self):
        self.sim = Simulator()
        self.machine = Machine(self.sim)
        self.nic = self.machine.add_nic(
            NicSpec(extra_features=(RDMA_FEATURE,)))
        self.disk = self.machine.add_disk()
        self.host_site = HostSite(self.machine)
        self.nic_site = DeviceSite(self.nic)
        self.memory = MemoryManager(self.machine)
        self.provider = RdmaProvider(self.machine, self.nic, self.memory)

    def run(self, gen):
        """Drive a generator to completion, return its value."""
        out = {}

        def app():
            out["value"] = yield from gen

        self.sim.run_until_event(self.sim.spawn(app()))
        return out["value"]


@pytest.fixture()
def world():
    return World()


# -- memory regions ----------------------------------------------------------------

def test_provider_requires_rdma_feature(world):
    plain = world.machine.add_gpu()
    with pytest.raises(RdmaError):
        RdmaProvider(world.machine, plain, world.memory)


def test_register_mr_host_and_device(world):
    host_mr = world.run(world.provider.register_mr("host", 4096))
    disk_mr = world.run(
        world.provider.register_mr(world.disk.name, 8192, label="table"))
    assert host_mr.owner == "host" and host_mr.size == 4096
    assert disk_mr.owner == world.disk.name and disk_mr.size == 8192
    assert host_mr.rkey != disk_mr.rkey
    assert world.provider.regions == [host_mr, disk_mr]


def test_register_mr_unknown_owner_rejected(world):
    with pytest.raises(RdmaError):
        world.run(world.provider.register_mr("ghost", 4096))


def test_deregister_revokes_rkey(world):
    region = world.run(world.provider.register_mr("host", 4096))
    world.provider.deregister_mr(region)
    assert region.revoked
    with pytest.raises(RdmaError):
        region.check(0, 8)
    with pytest.raises(RdmaError):
        world.provider.deregister_mr(region)


def test_region_bounds_checked_at_post(world):
    region = world.run(world.provider.register_mr("host", 256))
    qp = world.provider.create_qp(world.host_site)
    with pytest.raises(RdmaError):
        qp.post_read(region, 192, 128)          # runs off the end
    with pytest.raises(RdmaError):
        qp.post_read(region, -8, 8)
    assert qp.pending == 0


# -- verbs -------------------------------------------------------------------------

def test_write_then_read_roundtrip(world):
    region = world.run(world.provider.register_mr(world.disk.name, 1024))
    qp = world.provider.create_qp(world.host_site)
    qp.post_write(region, 64, ("key", "value"), 64)
    completions = world.run(qp.ring_doorbell())
    assert [c.ok for c in completions] == [True]
    qp.post_read(region, 64, 64)
    completions = world.run(qp.ring_doorbell())
    assert completions[0].ok
    assert completions[0].value == ("key", "value")
    stats = world.provider.stats
    assert stats.reads == 1 and stats.writes == 1
    assert stats.imbalance == 0


def test_compare_and_swap_semantics(world):
    region = world.run(world.provider.register_mr("host", 64))
    qp = world.provider.create_qp(world.host_site)
    # Fresh word is 0: a CAS expecting 0 succeeds, one expecting 7 fails.
    qp.post_compare_and_swap(region, 0, expected=0, desired=42)
    qp.post_compare_and_swap(region, 0, expected=7, desired=99)
    first, second = world.run(qp.ring_doorbell())
    assert first.ok and first.value == 0
    assert second.ok and second.value == 42     # returns the old word
    assert region.load_word(0) == 42            # failed CAS left it alone
    assert world.provider.stats.cas == 2


def test_doorbell_batches_all_pending_wrs(world):
    region = world.run(world.provider.register_mr(world.disk.name, 4096))
    qp = world.provider.create_qp(world.host_site)
    for i in range(8):
        qp.post_read(region, i * 64, 64)
    assert qp.pending == 8
    completions = world.run(qp.ring_doorbell())
    assert len(completions) == 8
    assert qp.pending == 0
    assert world.provider.stats.doorbells == 1


def test_doorbell_batching_amortizes_time(world):
    """8 WRs behind one doorbell beat 8 doorbells of 1 WR each."""
    region = world.run(world.provider.register_mr(world.disk.name, 4096))

    def timed(batched):
        qp = world.provider.create_qp(world.host_site)
        started = world.sim.now

        def app():
            if batched:
                for i in range(8):
                    qp.post_read(region, i * 64, 64)
                yield from qp.ring_doorbell()
            else:
                for i in range(8):
                    qp.post_read(region, i * 64, 64)
                    yield from qp.ring_doorbell()

        world.sim.run_until_event(world.sim.spawn(app()))
        return world.sim.now - started

    assert timed(batched=True) < timed(batched=False)


def test_cq_polled_vs_interrupt(world):
    region = world.run(world.provider.register_mr(world.disk.name, 1024))
    polled = world.provider.create_cq(world.host_site, mode="polled")
    irq = world.provider.create_cq(world.host_site, mode="interrupt")
    for cq in (polled, irq):
        qp = world.provider.create_qp(world.host_site, cq=cq)
        for i in range(4):
            qp.post_read(region, i * 64, 64)
        world.run(qp.ring_doorbell())
    # Interrupt mode coalesces: one ISR per doorbell, never per WR.
    assert irq.interrupts == 1
    assert polled.interrupts == 0
    assert len(polled.poll()) == 4
    with pytest.raises(RdmaError):
        CompletionQueue(world.host_site, mode="edge-triggered")


def test_verbs_fail_as_completions_after_crash(world):
    """Conservation survives a dead engine: errors, not lost WRs."""
    region = world.run(world.provider.register_mr(world.disk.name, 1024))
    qp = world.provider.create_qp(world.host_site)
    for i in range(4):
        qp.post_read(region, i * 64, 64)
    world.nic.health.crash()
    completions = world.run(qp.ring_doorbell())
    assert len(completions) == 4
    assert all(c.status == "error" for c in completions)
    stats = world.provider.stats
    assert stats.failed == 4
    assert stats.imbalance == 0


def test_dead_region_owner_fails_without_wire_traffic(world):
    region = world.run(world.provider.register_mr(world.disk.name, 1024))
    qp = world.provider.create_qp(world.host_site)
    world.disk.health.crash()
    qp.post_read(region, 0, 64)
    (completion,) = world.run(qp.ring_doorbell())
    assert not completion.ok
    assert world.disk.name in completion.error
    assert world.provider.stats.imbalance == 0


# -- provider selection and cost --------------------------------------------------------

def test_rdma_cost_beats_descriptor_ring(world):
    dma = DmaChannelProvider(world.machine, world.nic, world.memory)
    config = ChannelConfig.unicast().zero_copy()
    rdma_cost = world.provider.cost(world.host_site, world.nic_site, config)
    dma_cost = dma.cost(world.host_site, world.nic_site, config)
    assert rdma_cost.score(1024) < dma_cost.score(1024)
    assert rdma_cost.host_cpu_ns < dma_cost.host_cpu_ns


def test_executive_selects_rdma_over_dma(world):
    executive = ChannelExecutive()
    executive.register_provider(LoopbackProvider(world.machine))
    executive.register_provider(
        DmaChannelProvider(world.machine, world.nic, world.memory))
    executive.register_provider(world.provider)
    chosen = executive.select_provider(world.host_site, world.nic_site,
                                       ChannelConfig())
    assert chosen.name == "rdma-nic0"


def test_via_pins_provider_selection(world):
    executive = ChannelExecutive()
    executive.register_provider(
        DmaChannelProvider(world.machine, world.nic, world.memory))
    executive.register_provider(world.provider)
    pinned = executive.select_provider(
        world.host_site, world.nic_site, ChannelConfig().via("dma-nic0"))
    assert pinned.name == "dma-nic0"
    with pytest.raises(ProviderError):
        executive.select_provider(world.host_site, world.nic_site,
                                  ChannelConfig().via("rdma-gpu0"))


def test_can_serve_is_host_to_this_engine_only(world):
    gpu = world.machine.add_gpu()
    gpu_site = DeviceSite(gpu)
    config = ChannelConfig()
    assert world.provider.can_serve(world.host_site, world.nic_site, config)
    assert world.provider.can_serve(world.nic_site, world.host_site, config)
    assert not world.provider.can_serve(world.host_site, gpu_site, config)
    assert not world.provider.can_serve(world.nic_site, gpu_site, config)


# -- runtime wiring ----------------------------------------------------------------------

def test_runtime_registers_rdma_provider_per_featured_device():
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_nic(NicSpec(extra_features=(RDMA_FEATURE,)))
    machine.add_gpu()
    runtime = HydraRuntime(machine)
    provider = runtime.rdma_provider(nic.name)
    assert provider.name == f"rdma-{nic.name}"
    with pytest.raises(HydraError):
        runtime.rdma_provider("gpu0")      # no rdma feature, no provider
