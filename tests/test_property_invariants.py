"""Cross-cutting property-based invariant tests.

Hypothesis drives random operation sequences against the primitives the
whole system leans on: stores conserve items, resources conserve slots,
channels conserve messages, link delivery preserves FIFO order, and the
layout relaxation lattice is monotone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import ChannelConfig
from repro.core.executive import ChannelExecutive
from repro.core.offcode import Offcode, OffcodeState
from repro.core.providers import DmaChannelProvider, LoopbackProvider
from repro.core.memory import MemoryManager
from repro.core.layout import (
    BranchAndBoundSolver,
    ConstraintType,
    LayoutGraph,
    MaximizeOffloading,
)
from repro.core.sites import DeviceSite, HostSite
from repro.errors import InfeasibleLayoutError
from repro.hw import Machine
from repro.net import Link, LinkSpec
from repro.net.packet import Address, Packet
from repro.sim import Resource, Simulator, Store


# -- store conservation --------------------------------------------------------------

@given(ops=st.lists(
    st.one_of(st.tuples(st.just("put"), st.integers(0, 99)),
              st.tuples(st.just("get"), st.just(0))),
    min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_property_store_conserves_items(ops):
    sim = Simulator()
    store = Store(sim, capacity=8, drop_when_full=True)
    produced, consumed = [], []

    def driver():
        for op, value in ops:
            if op == "put":
                accepted = yield store.put(value)
                if accepted:
                    produced.append(value)
            elif len(store) > 0:
                consumed.append((yield store.get()))

    sim.run_until_event(sim.spawn(driver()))
    # Everything consumed was produced, in FIFO order.
    assert consumed == produced[:len(consumed)]
    assert list(store.items) == produced[len(consumed):]
    assert store.total_put == len(produced)


# -- resource conservation ------------------------------------------------------------

@given(holds=st.lists(st.integers(min_value=1, max_value=50),
                      min_size=1, max_size=30),
       capacity=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_property_resource_never_oversubscribed(holds, capacity):
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    max_seen = [0]

    def job(duration):
        yield resource.request()
        max_seen[0] = max(max_seen[0], resource.in_use)
        yield sim.timeout(duration)
        resource.release()

    for duration in holds:
        sim.spawn(job(duration))
    sim.run()
    assert max_seen[0] <= capacity
    assert resource.in_use == 0
    # Busy time never exceeds wall time.
    assert resource.busy_time <= sim.now


# -- channel conservation ---------------------------------------------------------------

class SinkOffcode(Offcode):
    BINDNAME = "prop.Sink"


@given(sizes=st.lists(st.integers(min_value=1, max_value=8192),
                      min_size=1, max_size=40),
       reliable=st.booleans())
@settings(max_examples=25, deadline=None)
def test_property_channel_conserves_messages(sizes, reliable):
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_nic()
    executive = ChannelExecutive()
    executive.register_provider(LoopbackProvider(machine))
    executive.register_provider(
        DmaChannelProvider(machine, nic, MemoryManager(machine)))
    sink = SinkOffcode(DeviceSite(nic))
    sink.state = OffcodeState.RUNNING
    config = ChannelConfig.unicast().with_ring_slots(8)
    config = config.reliable() if reliable else config.unreliable()
    channel = executive.create_channel(config, HostSite(machine))
    endpoint = executive.connect_offcode(channel, sink)
    received = []
    endpoint.install_call_handler(
        lambda message: received.append(message.size_bytes))

    def writer():
        for size in sizes:
            yield from channel.creator_endpoint.write(b"", size)

    sim.run_until_event(sim.spawn(writer()))
    # With a handler installed nothing queues, so nothing can drop:
    # every write is delivered exactly once, in order.
    assert received == sizes
    assert channel.messages_sent == len(sizes)
    assert channel.bytes_sent == sum(sizes)
    assert channel.drops == 0


# -- link ordering -------------------------------------------------------------------------

@given(sizes=st.lists(st.integers(min_value=0, max_value=1400),
                      min_size=2, max_size=30),
       jitter=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=40, deadline=None)
def test_property_link_is_fifo_even_with_jitter(sizes, jitter):
    sim = Simulator()
    arrived = []
    link = Link(sim, lambda p: arrived.append(p.seq),
                LinkSpec(bandwidth_bps=1e9, propagation_ns=1_000,
                         jitter_sigma_ns=jitter))
    packets = [Packet(src=Address("a", 1), dst=Address("b", 2),
                      size_bytes=s) for s in sizes]
    for packet in packets:
        link.send(packet)
    sim.run()
    assert len(arrived) == len(sizes)
    # Serialization is FIFO; only post-wire jitter varies, and it is
    # per-packet — order of *transmission completion* is preserved.
    sent_order = [p.seq for p in packets]
    assert sorted(arrived) == sorted(sent_order)


# -- layout relaxation monotonicity -----------------------------------------------------------

@st.composite
def prioritised_graph(draw):
    devices = ("host", "d0", "d1")
    graph = LayoutGraph(devices)
    n = draw(st.integers(min_value=2, max_value=5))
    for i in range(n):
        compat = [True] + [draw(st.booleans()) for _ in range(2)]
        graph.add_node(f"n{i}", compat)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a, b = draw(st.tuples(st.integers(0, n - 1),
                              st.integers(0, n - 1)))
        if a == b:
            continue
        graph.constrain(
            f"n{a}", f"n{b}",
            draw(st.sampled_from([ConstraintType.PULL,
                                  ConstraintType.GANG])),
            priority=draw(st.integers(0, 2)))
    return graph


@given(graph=prioritised_graph())
@settings(max_examples=40, deadline=None)
def test_property_relaxation_never_decreases_objective(graph):
    """Dropping constraints can only improve (or keep) the optimum."""
    solver = BranchAndBoundSolver()
    objective = MaximizeOffloading()

    def solve(g):
        try:
            return solver.solve(objective.build(g)).objective
        except InfeasibleLayoutError:
            return None

    full = solve(graph)
    relaxed = solve(graph.without_constraints_below(1))
    if full is not None:
        assert relaxed is not None
        assert relaxed >= full - 1e-9
