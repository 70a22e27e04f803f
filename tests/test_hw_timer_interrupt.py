"""The lazily advanced timer interrupt against the tick process it replaced.

The kernel tick used to be a process: sleep one period, count the tick,
touch kernel text in the L2, then ``cpu.execute(cost)`` through the
CPU's FIFO resource.  That loop (and the ``Resource.request``-based
``execute`` it ran on) lives on here as the oracle.  A hypothesis-drawn
program of CPU holds, CPU reads, L2 touches and stats pins runs against
both, and everything observable must match: tick counts, per-context
busy time, grant times, queue-depth and utilization samples, the L2
op-log and the pinned counters.

The lazy interrupt applies a transition due at exactly ``now`` before
the entry running at that instant; the oracle orders such ties by queue
sequence number.  Programs where an oracle tick transition coincides
with one of their actions are therefore skipped (``assume``), and the
same-instant rule is pinned by its own test.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import units
from repro.hostos.kernel import Kernel, KernelConfig
from repro.hostos.scheduler import SchedulerSpec
from repro.hw import CpuSampler, Machine
from repro.sim import RandomStreams, Simulator

_HORIZON = 300_000
_KTEXT = KernelConfig().kernel_text_base


def oracle_execute(cpu, duration_ns, context):
    """``Cpu.execute`` before the free-CPU fast path: every hold is a
    ``Resource.request()`` and its grant event."""
    resource = cpu._resource
    yield resource.request()
    try:
        yield duration_ns
    finally:
        resource.release()
        cpu._charge(context, duration_ns)


class OracleKernel:
    """The kernel tick as a process, as it was before the interrupt."""

    def __init__(self, machine, config):
        self.sim = machine.sim
        self.cpu = machine.cpu
        self.l2 = machine.l2
        self.config = config
        self.ticks = 0
        # Fire and release times: the oracle's own tick transitions.
        self.transitions = []
        self.sim.spawn(self._tick_loop(), name="oracle-ticks")

    def _tick_loop(self):
        tick = self.config.scheduler.tick_ns
        while True:
            yield tick
            self.transitions.append(self.sim.now)
            self.ticks += 1
            self.l2.touch_range(self.config.kernel_text_base, 512)
            yield from oracle_execute(self.cpu, self.config.tick_cost_ns,
                                      "kernel-tick")
            self.transitions.append(self.sim.now)


def expanded_log(cache):
    """The op-log as the touches it holds, repeats unfolded."""
    return [(first, last, write)
            for first, last, write, repeats in cache._oplog
            for _ in range(repeats + 1)]


def run_program(program, lazy):
    sim = Simulator()
    machine = Machine(sim)
    cpu, l2 = machine.cpu, machine.l2
    config = KernelConfig(scheduler=SchedulerSpec(hz=program["hz"]),
                          tick_cost_ns=program["cost"])
    if lazy:
        kernel = Kernel(machine, RandomStreams(0), config)
        kernel.start(with_background=False)
        execute = cpu.execute
    else:
        kernel = OracleKernel(machine, config)

        def execute(duration, context):
            return oracle_execute(cpu, duration, context)

    sampler = CpuSampler(cpu)
    out = {"grants": {}, "reads": [], "pins": []}

    def hold(i, at, duration):
        yield at
        yield from execute(duration, f"job{i % 3}")
        out["grants"][i] = (sim.now - duration, sim.now)

    def read(at):
        yield at
        out["reads"].append((
            sim.now, cpu.queue_depth, cpu.busy, cpu.utilization(),
            cpu.total_busy, dict(cpu.busy_by_context), kernel.ticks,
            sampler.sample()))

    def touch(at, base, size, write):
        yield at
        l2.touch_range(base, size, write)

    def pin(at):
        yield at
        out["pins"].append(l2.stats_pin())

    for i, (at, duration) in enumerate(program["holds"]):
        sim.spawn(hold(i, at, duration))
    for at in program["reads"]:
        sim.spawn(read(at))
    for at, base, size, write in program["touches"]:
        sim.spawn(touch(at, base, size, write))
    for at in program["pins"]:
        sim.spawn(pin(at))
    sim.run(until=_HORIZON)
    final = (cpu.queue_depth, cpu.busy, cpu.total_busy,
             dict(cpu.busy_by_context), kernel.ticks, cpu.utilization())
    log = expanded_log(l2)
    pins = [p.resolve() for p in out["pins"]]
    result = {
        "grants": out["grants"],
        "reads": out["reads"],
        "final": final,
        "log": log,
        "pins": [(s.hits, s.misses, s.evictions, s.writebacks)
                 for s in pins],
        "samples": sampler.samples,
    }
    if not lazy:
        result["transitions"] = kernel.transitions
    return result


def action_times(program, oracle):
    """Every instant at which the program acts in the oracle run."""
    times = {_HORIZON}
    times.update(at for at, _ in program["holds"])
    times.update(end for _, end in oracle["grants"].values())
    times.update(program["reads"])
    times.update(at for at, _, _, _ in program["touches"])
    times.update(program["pins"])
    return times


_times = st.integers(min_value=0, max_value=_HORIZON - 1)
_programs = st.fixed_dictionaries({
    # Periods of 50, 20 and 10 us: ticks collide with holds often.
    "hz": st.sampled_from([20_000, 50_000, 100_000]),
    "cost": st.integers(min_value=0, max_value=8_000),
    "holds": st.lists(st.tuples(_times, st.integers(0, 40_000)),
                      max_size=12),
    "reads": st.lists(st.integers(1, _HORIZON - 1), max_size=8),
    "touches": st.lists(st.tuples(
        _times,
        st.sampled_from([_KTEXT, _KTEXT + 64, 0x0400_0000, 0x0800_0040]),
        st.sampled_from([1, 64, 512, 4096, 40_000]),
        st.booleans()), max_size=12),
    "pins": st.lists(_times, max_size=4),
})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(program=_programs)
def test_lazy_interrupt_matches_the_tick_process(program):
    oracle = run_program(program, lazy=False)
    assume(not set(oracle.pop("transitions")) & action_times(program,
                                                             oracle))
    lazy = run_program(program, lazy=True)
    assert lazy == oracle


def test_tick_due_now_is_applied_before_the_running_entry():
    """A request and a touch at the very nanosecond a tick falls due:
    the tick fires first, so the request queues behind the tick's ISR
    and the touch lands after the tick's touch."""
    sim = Simulator()
    machine = Machine(sim)
    config = KernelConfig()
    kernel = Kernel(machine, RandomStreams(0), config)
    kernel.start(with_background=False)
    tick = config.scheduler.tick_ns
    grants = []

    def job():
        yield tick
        machine.l2.touch_range(0x0400_0000, 64)
        yield from machine.cpu.execute(1_000, "job")
        grants.append(sim.now - 1_000)

    sim.spawn(job())
    sim.run(until=tick + 10_000)
    assert grants == [tick + config.tick_cost_ns]
    assert kernel.ticks == 1
    text_line = config.kernel_text_base >> 6
    assert [entry[0] for entry in machine.l2._oplog] == [
        text_line, 0x0400_0000 >> 6]


def test_uncontended_ticks_cost_no_events():
    sim = Simulator()
    machine = Machine(sim)
    kernel = Kernel(machine, RandomStreams(0))
    kernel.start(with_background=False)
    sim.run(until=units.s_to_ns(0.1))
    assert sim.events_processed == 0
    # Ticks drift by their 2 us ISR: 100 ms holds 99 of them.
    assert kernel.ticks == 99
    assert machine.cpu.busy_by_context == {"kernel-tick": 99 * 2_000}
    # Their kernel-text touches fold into one op-log entry.
    assert len(machine.l2._oplog) == 1
    assert machine.l2.stats.accesses == 99 * 8


def test_a_request_during_a_tick_schedules_one_release():
    """A job arriving while the tick holds the CPU waits for the ISR:
    the tick's release becomes one queue entry and grants the job."""
    sim = Simulator()
    machine = Machine(sim)
    config = KernelConfig()
    kernel = Kernel(machine, RandomStreams(0), config)
    kernel.start(with_background=False)
    tick = config.scheduler.tick_ns
    grants = []

    def job():
        yield tick + 500
        yield from machine.cpu.execute(1_000, "job")
        grants.append(sim.now - 1_000)

    sim.spawn(job())
    sim.run(until=tick + 10_000)
    assert grants == [tick + config.tick_cost_ns]
    assert kernel.ticks == 1
    # Spawn, wake-up, end of the hold and process exit (as on a CPU
    # without ticks), plus the tick's scheduled release and the grant.
    assert sim.events_processed == 4 + 2
