"""The benchmark's three workloads.

Each workload makes its inputs from the seed alone, times a *unit* of
work through the program's public entry points, and reads back the
program's own counters.  A unit's counters are deterministic for a seed:
the runner compares them across repetitions and against the traced run.

* ``tivopc`` — the paper's Section 6.4 testbed (Tables 2-3, Figs 9-10):
  ``run_server_scenario`` for idle, simple, sendfile and offloaded.
* ``offload_rpc`` — the offloaded KV cache of ``repro.rdma.kv``, driven
  by one closed-loop caller: puts, one-sided batched gets and two-sided
  RPC gets over skewed keys.
* ``fleet`` — a chunk-fidelity subscriber population through
  ``run_fleet``, more shards than workers, two worker processes.

Every workload reports every end-to-end metric.  Each defines an
*operation* (tivopc: a stream packet received by the measurement
client; offload_rpc: a client call; fleet: a chunk delivered to a
subscriber), and ``calls_per_s``, ``call_sim_us_*`` and
``host_cpu_ns_per_call`` are per operation; see README.md for the
per-workload meaning of each metric.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import units
from repro.core import marshal
from repro.evaluation import experiments
from repro.evaluation import fleet as fleet_mod
from repro.faults.fleet import FleetChaos
from repro.hw.cache import Cache
from repro.rdma import kv
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry.adapters import check_channel_conservation
from repro.tivopc import population
from repro.tivopc.client import MeasurementClient
from repro.tivopc.server import OffloadedServer, SendfileServer, SimpleServer
from repro.tivopc.testbed import Testbed, TestbedConfig


def digest(value: Any) -> str:
    """Stable short hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Observer:
    """Benchmark-side hooks on a few program entry points.

    Records the testbeds, servers and measurement clients that
    ``run_server_scenario`` builds internally (it returns only its
    result rows), the chunk index of every packet a measurement client
    receives, and counts op-log drains of the L2 model with the host
    time they take.  The instance hooks fire a handful of times per
    scenario and the arrival hook once per packet, so they cost nothing
    measurable in the untraced run.  The workload takes what it needs
    after each scenario, so no finished world outlives its scenario.
    """

    def __init__(self) -> None:
        self.created: Dict[str, List[Any]] = {}
        # Chunk indices received, per measurement client (by id).
        self.arrivals: Dict[int, List[int]] = {}
        self.drains = 0
        self.drain_ns = 0
        self._patches: List[Tuple[type, str, Any]] = []

    def install(self) -> None:
        for cls in (Simulator, Testbed, MeasurementClient, SimpleServer,
                    SendfileServer, OffloadedServer):
            self._record_instances(cls)
        original = Cache.__dict__["_drain"]

        @functools.wraps(original)
        def drain(cache):
            start = time.perf_counter_ns()
            try:
                return original(cache)
            finally:
                self.drain_ns += time.perf_counter_ns() - start
                self.drains += 1
        self._patch(Cache, "_drain", drain)

    def _record_instances(self, cls: type) -> None:
        original = cls.__dict__["__init__"]
        made = self.created.setdefault(cls.__name__, [])

        @functools.wraps(original)
        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            made.append(instance)
            if cls is MeasurementClient:
                self._record_arrivals(instance)
        self._patch(cls, "__init__", init)

    def _record_arrivals(self, client) -> None:
        """Note the ``("chunk", n)`` payload of every packet ``client``
        receives (its loop looks ``socket.recvfrom`` up on each call)."""
        chunks = self.arrivals[id(client)] = []
        receive = client.socket.recvfrom

        def recvfrom():
            packet = yield from receive()
            payload = packet.payload
            if isinstance(payload, tuple) and payload[:1] == ("chunk",):
                chunks.append(payload[1])
            return packet
        client.socket.recvfrom = recvfrom

    def _patch(self, cls: type, name: str, value: Any) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def uninstall(self) -> None:
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    def clear(self) -> None:
        """Forget every instance recorded so far."""
        for made in self.created.values():
            del made[:]
        self.arrivals.clear()

    def take(self, name: str) -> List[Any]:
        """Instances of class ``name`` built since the last take."""
        made = self.created.get(name, [])
        out = list(made)
        del made[:]
        return out


@dataclass
class UnitRun:
    """One timed unit of a workload."""

    wall_s: float
    counters: Dict[str, Any]
    # Workload-specific outputs the checks and metrics read.
    out: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fact(self, ok: bool, description: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(description)

    def ops(self, attempted: int, failed: int, description: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {description}")


def _channel_counts(executives) -> Dict[str, int]:
    sent = delivered = dropped = 0
    for executive in executives:
        for channel in executive.channels:
            stats = channel.stats()
            sent += stats.sent
            delivered += stats.delivered
            dropped += stats.dropped
    return {"core.channel_sent": sent, "core.channel_delivered": delivered,
            "core.channel_dropped": dropped}


def _channel_problems(executives) -> List[str]:
    """The conservation law on every channel, reliable or not."""
    problems: List[str] = []
    for executive in executives:
        problems.extend(check_channel_conservation(executive))
        for channel in executive.channels:
            stats = channel.stats()
            slack = 1 if channel.closed else 0
            if not 0 <= stats.sent - (stats.delivered + stats.dropped) <= slack:
                problems.append(
                    f"channel {stats.label!r}: sent {stats.sent} != "
                    f"delivered {stats.delivered} + dropped {stats.dropped}")
    return problems


# -- tivopc --------------------------------------------------------------------


class TivopcWorkload:
    """Section 6.4: every server scenario at the seed, back to back.

    A scenario runs 40 simulated seconds: long enough that the L2
    op-log reaches its 65,536-touch cap on the client cache in every
    streaming scenario and on the server cache under the simple server,
    so each unit pays cap-triggered drains, not only the end-of-run
    replay.
    """

    name = "tivopc"
    SCENARIO_S = 40.0
    # The PeriodicSampler's window is 5 s; two windows is the minimum
    # for CPU and miss-rate statistics.
    MIN_SCENARIO_S = 10.0
    # Simulated time after the horizon for in-flight packets to land.
    DRAIN_NS = 50 * units.MS
    STREAMING = ("simple", "sendfile", "offloaded")
    SERVERS = {"simple": SimpleServer, "sendfile": SendfileServer,
               "offloaded": OffloadedServer}

    def __init__(self, seed: int, scale: float = 1.0,
                 observer: Optional[Observer] = None) -> None:
        self.seed = seed
        self.scale = scale
        self.scenario_s = max(self.MIN_SCENARIO_S, self.SCENARIO_S * scale)
        self.observer = observer or Observer()

    def inputs(self) -> Dict[str, Any]:
        streams = RandomStreams(self.seed)
        return {"scenarios": list(experiments.SERVER_SCENARIOS),
                "scenario_s": self.scenario_s,
                "seed": self.seed,
                "stream_seeds": [streams.derive(name) for name in (
                    "switch", "firmware-timer", "server-simple",
                    "server-sendfile")]}

    def build(self) -> Tuple[float, float]:
        """One testbed build and one HYDRA deploy of the offloaded server."""
        start = time.perf_counter()
        testbed = Testbed(TestbedConfig(seed=self.seed))
        testbed.start()
        built = time.perf_counter()
        server = OffloadedServer(testbed)
        server.start()
        while server.broadcast is None:
            testbed.sim.step()
        deployed = time.perf_counter()
        self.observer.clear()
        return built - start, deployed - built

    def run_unit(self, before: Optional[Callable] = None,
                 after: Optional[Callable] = None,
                 pause: Optional[Callable] = None,
                 resume: Optional[Callable] = None) -> UnitRun:
        """All four scenarios, each timed on its own.

        ``before``/``after`` bracket the unit and ``pause``/``resume``
        each untimed stretch between scenarios, where the scenario's
        world is read and then dropped.
        """
        observer = self.observer
        observer.clear()
        wall = 0.0
        drains = drain_ns = encodes = 0
        results: Dict[str, Any] = {}
        per_scenario: Dict[str, Dict[str, int]] = {}
        packets: Dict[str, Tuple[int, int]] = {}
        server_cpu_ns: Dict[str, int] = {}
        if before is not None:
            before()
        for scenario in experiments.SERVER_SCENARIOS:
            marks = (observer.drains, observer.drain_ns,
                     marshal.stats.encodes)
            start = time.perf_counter()
            results[scenario] = experiments.run_server_scenario(
                scenario, self.scenario_s, self.seed)
            wall += time.perf_counter() - start
            drains += observer.drains - marks[0]
            drain_ns += observer.drain_ns - marks[1]
            encodes += marshal.stats.encodes - marks[2]
            if pause is not None:
                pause()
            testbed, client, server, chunks = self._take_world()
            per_scenario[scenario] = self._counters(testbed, client, server)
            server_cpu_ns[scenario] = testbed.server.machine.cpu.total_busy
            if server is not None:
                packets[scenario] = self._packet_conservation(
                    testbed, server, chunks)
            del testbed, client, server, chunks
            if resume is not None:
                resume()
        if after is not None:
            after()
        counters: Dict[str, Any] = {"hw.cache.drains": drains,
                                    "core.marshal_encodes": encodes}
        for values in per_scenario.values():
            for key, value in values.items():
                counters[key] = counters.get(key, 0) + value
        counters["scenarios"] = per_scenario
        return UnitRun(wall, counters, {
            "results": results, "drain_s": drain_ns / 1e9,
            "packets": packets, "server_cpu_ns": server_cpu_ns})

    def _take_world(self) -> Tuple[Any, Any, Any, List[int]]:
        """The testbed, measurement client and server (None when idle)
        the last scenario built, and the chunk indices its client has
        received (a list that keeps growing if the testbed runs on);
        the observer then forgets them."""
        observer = self.observer
        (testbed,) = observer.take("Testbed")
        (client,) = observer.take("MeasurementClient")
        servers = (observer.take("SimpleServer")
                   + observer.take("SendfileServer")
                   + observer.take("OffloadedServer"))
        chunks = observer.arrivals.pop(id(client))
        observer.clear()
        return testbed, client, servers[0] if servers else None, chunks

    @staticmethod
    def _counters(testbed, client, server) -> Dict[str, int]:
        hosts = (testbed.server, testbed.client, testbed.nas)
        out = {"sim.events": testbed.sim.events_processed,
               "sim.fused_resumes": testbed.sim.fused_resumes,
               "sim.dead_timers": testbed.sim.dead_timers,
               "hw.cache.misses": 0, "hw.cache.accesses": 0,
               "hw.bus.transactions": 0, "hw.bus.bytes": 0,
               "hostos.tick_events": 0, "hostos.syscalls": 0}
        for host in hosts:
            stats = host.machine.l2.stats        # drains the op-log
            out["hw.cache.misses"] += stats.misses
            out["hw.cache.accesses"] += stats.hits + stats.misses
            out["hw.bus.transactions"] += host.machine.bus.total_crossings()
            out["hw.bus.bytes"] += host.machine.bus.bytes_moved
            out["hostos.tick_events"] += host.kernel.ticks
            out["hostos.syscalls"] += sum(host.kernel.syscalls.values())
        out["hostos.nfs_requests"] = (testbed.nfs_server.reads_served
                                      + testbed.nfs_server.writes_served)
        out["net.packets"] = testbed.switch.forwarded
        out.update(_channel_counts([testbed.server_runtime.executive,
                                    testbed.client_runtime.executive]))
        out["tivopc.packets_received"] = client.jitter.packet_count
        out["tivopc.chunks"] = server.packets_sent if server else 0
        return out

    def _packet_conservation(self, testbed, server,
                             arrived: List[int]) -> Tuple[int, int]:
        """(packets sent by the horizon, packets lost or phantom).

        Runs the testbed a little past the horizon.  Every chunk index
        sent by the horizon must have arrived by then.  No index may
        arrive twice, nor one that no send had carried by the end.
        Chunks the server sends after the horizon are neither.
        """
        sent = server.packets_sent
        testbed.sim.run(until=testbed.sim.now + self.DRAIN_NS)
        distinct = set(arrived)
        lost = sum(1 for index in range(sent) if index not in distinct)
        phantom = (len(arrived) - len(distinct)
                   + sum(1 for index in distinct
                         if not 0 <= index < server.packets_sent))
        return sent, lost + phantom

    def check(self, unit: UnitRun) -> CheckResult:
        """The shape facts EXPERIMENTS.md asserts, plus packet conservation."""
        check = CheckResult()
        results = unit.out["results"]
        medians = {s: results[s].jitter.median for s in self.STREAMING}
        check.fact(medians["offloaded"] < medians["sendfile"]
                   < medians["simple"],
                   f"jitter medians not offloaded < sendfile < simple: "
                   f"{medians}")
        gaps = results["offloaded"].jitter_samples_ms
        p10, p99 = percentile(gaps, 0.10), percentile(gaps, 0.99)
        check.fact(abs(p10 - 5.0) <= 0.1 and abs(p99 - 5.0) <= 0.1,
                   f"offloaded gaps p10 {p10:.4f} / p99 {p99:.4f} ms "
                   "outside 5 +/- 0.1 ms")
        idle_cpu = results["idle"].cpu.average
        off_cpu = results["offloaded"].cpu.average
        check.fact(abs(off_cpu - idle_cpu) < 0.003,
                   f"offloaded server CPU {off_cpu:.4f} outside idle's band "
                   f"{idle_cpu:.4f} +/- 0.003")
        idle_l2 = results["idle"].l2_miss_rate
        norm = {s: results[s].l2_miss_rate / idle_l2 for s in self.STREAMING}
        check.fact(idle_l2 > 0 and norm["simple"] > norm["sendfile"]
                   and norm["simple"] > 1.0
                   and abs(norm["offloaded"] - 1.0) < 0.01,
                   f"Fig 10 ordering broken: normalized L2 {norm}")
        for scenario, (sent, missing) in unit.out["packets"].items():
            check.ops(sent, missing, f"{scenario} packets lost or phantom")
        return check

    def determinism_repeat(self) -> List[Dict[str, Any]]:
        """Two short runs of every scenario at the seed (their counters
        must match), for runs whose timed phase holds a single unit."""
        runs = []
        for _ in range(2):
            counters = {}
            for scenario in experiments.SERVER_SCENARIOS:
                testbed = Testbed(TestbedConfig(seed=self.seed))
                testbed.start()
                client = MeasurementClient(testbed)
                client.start()
                server = None
                if scenario != "idle":
                    server = self.SERVERS[scenario](testbed)
                    server.start()
                testbed.run(1.0)
                counters[scenario] = self._counters(testbed, client, server)
                self.observer.clear()
            runs.append(counters)
        return runs

    def end_to_end(self, units_: List[UnitRun]) -> Dict[str, float]:
        secs = [u.wall_s for u in units_]
        sim_s = self.scenario_s * len(experiments.SERVER_SCENARIOS)
        first = units_[0]
        gaps_us = [gap * 1000.0 for s in self.STREAMING
                   for gap in first.out["results"][s].jitter_samples_ms]
        packets = sum(first.counters["scenarios"][s]["tivopc.packets_received"]
                      for s in self.STREAMING)
        cpu_ns = sum(first.out["server_cpu_ns"][s] for s in self.STREAMING)
        return {
            "sim_s_per_s": statistics.median(sim_s / t for t in secs),
            "calls_per_s": statistics.median(packets / t for t in secs),
            # One measurement client (the subscriber) per scenario.
            "subscriber_s_per_s": statistics.median(sim_s / t
                                                    for t in secs),
            "call_sim_us_p50": percentile(gaps_us, 0.50),
            "call_sim_us_p99": percentile(gaps_us, 0.99),
            "host_cpu_ns_per_call": cpu_ns / packets,
            "samples": len(gaps_us),
        }

    def traced_unit(self, ledger) -> UnitRun:
        return self.run_unit(before=ledger.reset, after=ledger.stop,
                             pause=ledger.pause, resume=ledger.resume)

    def traced_throughput(self, unit: UnitRun) -> float:
        return 1.0 / unit.wall_s


# -- offload_rpc ---------------------------------------------------------------


class OffloadRpcWorkload:
    """The offloaded KV cache, driven by one closed-loop caller.

    The key operations follow YCSB core workload B, "read mostly":
    reads 95 %, updates 5 %, keys drawn from a Zipf distribution with
    YCSB's constant 0.99 over its 1,000 records, and popularity
    scattered over the key space as YCSB's (scrambled) zipfian generator
    does, here by a fixed permutation.  The caller sends an update as
    one ``proxy.Put``.  It gathers reads into a batch of 8 distinct keys,
    the batch size of ``run_kv_scenario``: a read of a key already in
    the pending batch is served by that batch.  Batches alternate
    between one-sided ``get_batch`` and two-sided ``get_rpc``, because
    ``run_kv_scenario`` reads every key both ways.  A value is that
    scenario's ``v:<key>`` plus the write's index, padded to a length
    drawn uniformly up to the slot size (YCSB's uniform field-length
    distribution), so the marshalled bytes vary as real values do.

    1,000 keys over 1,024 slots: keys that share a slot evict each
    other, so a share of one-sided reads find the wrong key and take
    the RPC fallback.
    """

    name = "offload_rpc"
    KEYS = 1000
    SLOTS = 1024
    KEY_OPS = 10000
    BATCH = 8
    ZIPF_S = 0.99
    READ_PROPORTION = 0.95

    def __init__(self, seed: int, scale: float = 1.0,
                 observer: Optional[Observer] = None,
                 plant_wrong_value: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.observer = observer or Observer()
        key_ops = max(1000, int(self.KEY_OPS * scale))
        self.plant_wrong_value = plant_wrong_value
        self.keys = [f"user:{i:05d}" for i in range(self.KEYS)]
        # Which keys are hot is a fixed property of the workload (the
        # seed only draws the op sequence), so a seed does not change
        # how many hot keys lose their slot to a collision.
        ranked = list(self.keys)
        random.Random("offload_rpc:popularity").shuffle(ranked)
        rng = random.Random(f"offload_rpc:{seed}")
        weights = [1.0 / (rank + 1) ** self.ZIPF_S
                   for rank in range(self.KEYS)]
        total = sum(weights)
        cdf, acc = [], 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)

        def value(key: str, write: int) -> str:
            base = f"v:{key}#{write}"
            return base.ljust(rng.randint(len(base), kv.SLOT_BYTES), ".")

        # The calls and, for every read, the values it must return.
        reference = {key: value(key, 0) for key in self.keys}
        self.initial = dict(reference)
        self.ops: List[Tuple[str, Any]] = []
        self.expected: List[Optional[Dict[str, str]]] = []
        batch: List[str] = []
        kinds = itertools.cycle(("get_batch", "get_rpc"))

        def flush() -> None:
            if batch:
                self.ops.append((next(kinds), list(batch)))
                self.expected.append({key: reference[key] for key in batch})
                del batch[:]

        for index in range(key_ops):
            key = ranked[min(bisect.bisect_left(cdf, rng.random()),
                             self.KEYS - 1)]
            if rng.random() < self.READ_PROPORTION:
                if key not in batch:
                    batch.append(key)
                if len(batch) == self.BATCH:
                    flush()
            else:
                reference[key] = value(key, index + 1)
                self.ops.append(("put", (key, reference[key])))
                self.expected.append(None)
        flush()
        self.calls = len(self.ops)
        self.final = reference

    def inputs(self) -> Dict[str, Any]:
        return {"keys": self.KEYS, "slots": self.SLOTS,
                "read_proportion": self.READ_PROPORTION,
                "zipf_s": self.ZIPF_S, "ops": self.ops}

    def _build_world(self):
        world = kv.build_kv_world(slots=self.SLOTS)
        built = time.perf_counter()
        world.sim.run_until_event(world.sim.spawn(
            kv.deploy_cache(world, slots=self.SLOTS)))
        deployed = time.perf_counter()

        def populate():
            for key, value in self.initial.items():
                yield from world.proxy.Put(key, value)
        world.sim.run_until_event(world.sim.spawn(populate()))
        return world, built, deployed

    def build(self) -> Tuple[float, float]:
        """World build plus key population, and the HYDRA deploy."""
        start = time.perf_counter()
        _, built, deployed = self._build_world()
        return (built - start) + (time.perf_counter() - deployed), \
            deployed - built

    def _plant(self, world) -> None:
        """Overwrite one key behind the client's back, before its first
        read and without a put in between."""
        written = set()
        for kind, arg in self.ops:
            if kind == "put":
                written.add(arg[0])
                continue
            for key in arg:
                if key not in written:
                    world.cache.table[key] = "planted"
                    world.region.write_object(
                        kv.slot_offset(key, world.cache.slots),
                        (key, "planted"))
                    return

    def run_unit(self, before: Optional[Callable] = None,
                 after: Optional[Callable] = None,
                 wrap: Optional[Callable] = None) -> UnitRun:
        """The op stream against a fresh world.  ``before``/``after``
        bracket the timing; ``wrap`` decorates the caller's generator."""
        world, _, _ = self._build_world()
        if self.plant_wrong_value:
            self._plant(world)
        sim, client, proxy = world.sim, world.client, world.proxy
        latencies: List[int] = []
        returned: List[Optional[Dict[str, Any]]] = []
        ops = self.ops

        def caller():
            for kind, arg in ops:
                began = sim.now
                if kind == "put":
                    yield from proxy.Put(*arg)
                    got = None
                elif kind == "get_batch":
                    got = yield from client.get_batch(arg)
                else:
                    got = yield from client.get_rpc(arg)
                latencies.append(sim.now - began)
                returned.append(got)

        body = wrap(caller) if wrap is not None else caller
        before_counts = self._counters(world)
        cpu_before = world.machine.cpu.total_busy
        sim_before = sim.now
        if before is not None:
            before()
        start = time.perf_counter()
        sim.run_until_event(sim.spawn(body()))
        wall = time.perf_counter() - start
        if after is not None:
            after()
        now_counts = self._counters(world)
        counters = {key: now_counts[key] - before_counts[key]
                    for key in now_counts}
        counters["latency_digest"] = digest(latencies)
        stats = world.provider.stats
        # The world's end state is checked here so the world itself is
        # not kept: memory must not grow with the units a run fits.
        return UnitRun(wall, counters, {
            "latencies": latencies, "returned": returned,
            "sim_s": (sim.now - sim_before) / 1e9,
            "host_cpu_ns": world.machine.cpu.total_busy - cpu_before,
            "table_matches": dict(world.cache.table) == self.final,
            "channel_problems": _channel_problems([world.runtime.executive]),
            "rdma": (stats.posted, stats.completed, stats.failed)})

    @staticmethod
    def _counters(world) -> Dict[str, int]:
        stats = world.provider.stats
        out = {"sim.events": world.sim.events_processed,
               "sim.fused_resumes": world.sim.fused_resumes,
               "sim.dead_timers": world.sim.dead_timers,
               "hw.bus.transactions": world.machine.bus.total_crossings(),
               "hw.bus.bytes": world.machine.bus.bytes_moved,
               "core.marshal_encodes": marshal.stats.encodes,
               "rdma.doorbells": stats.doorbells, "rdma.reads": stats.reads,
               "rdma.posted": stats.posted,
               "rdma.completed": stats.completed, "rdma.failed": stats.failed,
               "rdma.one_sided_hits": world.client.one_sided_hits,
               "rdma.fallback_gets": world.client.fallback_gets,
               "core.rpc_gets": world.cache.rpc_gets,
               "core.rpc_puts": world.cache.rpc_puts}
        out.update(_channel_counts([world.runtime.executive]))
        return out

    def check(self, unit: UnitRun) -> CheckResult:
        check = CheckResult()
        wrong = 0
        reads = 0
        for expected, got in zip(self.expected, unit.out["returned"]):
            if expected is None:
                continue
            reads += 1
            if got != expected:
                wrong += 1
        check.ops(reads, wrong, "reads returned a value other than the "
                  "last one written")
        check.ops(len(self.ops) - reads,
                  len(self.ops) - len(unit.out["returned"]),
                  "calls never completed")
        check.fact(unit.out["table_matches"],
                   "cache table differs from the reference after the run")
        problems = unit.out["channel_problems"]
        check.fact(not problems, "; ".join(problems))
        posted, completed, failed = unit.out["rdma"]
        check.fact(posted == completed + failed,
                   f"RDMA posted {posted} != completed {completed} + "
                   f"failed {failed}")
        return check

    def end_to_end(self, units_: List[UnitRun]) -> Dict[str, float]:
        secs = [u.wall_s for u in units_]
        first = units_[0]
        lat_us = [ns / 1000.0 for ns in first.out["latencies"]]
        return {
            "sim_s_per_s": statistics.median(
                u.out["sim_s"] / t for u, t in zip(units_, secs)),
            "calls_per_s": statistics.median(self.calls / t for t in secs),
            # One closed-loop caller.
            "subscriber_s_per_s": statistics.median(
                u.out["sim_s"] / t for u, t in zip(units_, secs)),
            "call_sim_us_p50": percentile(lat_us, 0.50),
            "call_sim_us_p99": percentile(lat_us, 0.99),
            "host_cpu_ns_per_call": first.out["host_cpu_ns"] / self.calls,
            "samples": len(lat_us),
        }

    def traced_unit(self, ledger) -> UnitRun:
        """The caller's own bookkeeping is charged to the benchmark."""
        return self.run_unit(before=ledger.reset, after=ledger.stop,
                             wrap=ledger.wrap_generator)

    def traced_throughput(self, unit: UnitRun) -> float:
        return self.calls / unit.wall_s


# -- fleet ---------------------------------------------------------------------


class FleetWorkload:
    """2048 chunk-fidelity subscribers for 4 simulated seconds, in 16
    shards over 2 worker processes (the supervised pool's defaults:
    retries, and hedging of the last straggler)."""

    name = "fleet"
    CLIENTS = 2048
    SECONDS = 4.0
    SHARDS = 16
    WORKERS = 2

    def __init__(self, seed: int, scale: float = 1.0,
                 observer: Optional[Observer] = None,
                 plant_failed_shard: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.observer = observer or Observer()
        clients = max(self.SHARDS * 8, int(self.CLIENTS * scale))
        self.population = population.PopulationConfig(
            clients=clients, seconds=self.SECONDS, fleet_seed=seed)
        self.config = fleet_mod.FleetConfig(
            population=self.population, shards=self.SHARDS,
            workers=self.WORKERS)
        self.chaos = (FleetChaos.poison(
            0, self.config.supervision.max_retries)
            if plant_failed_shard else None)

    def inputs(self) -> Dict[str, Any]:
        return {"fingerprint": fleet_mod.config_fingerprint(self.config),
                "client_seeds": [population.client_seed(self.seed, gid)
                                 for gid in range(8)]}

    def build(self) -> Tuple[float, float]:
        """A small in-process population warms the chunk-tier code path;
        the fleet has no HYDRA deploy."""
        start = time.perf_counter()
        warm = population.PopulationConfig(
            clients=16, seconds=0.1, fleet_seed=self.seed)
        population.run_population(range(16), warm)
        return time.perf_counter() - start, 0.0

    def run_unit(self, before: Optional[Callable] = None,
                 after: Optional[Callable] = None,
                 workers: Optional[int] = None) -> UnitRun:
        """One ``run_fleet``; ``before``/``after`` bracket the timing and
        ``workers`` overrides the pool size."""
        config = self.config
        if workers is not None:
            config = fleet_mod.FleetConfig(
                population=self.population, shards=self.SHARDS,
                workers=workers)
        self.observer.clear()
        if before is not None:
            before()
        cpu_before = _process_cpu_ns()
        start = time.perf_counter()
        report = fleet_mod.run_fleet(config, chaos=self.chaos)
        wall = time.perf_counter() - start
        cpu_ns = _process_cpu_ns() - cpu_before
        if after is not None:
            after()
        # Shards that ran in this process left their simulators behind.
        sims = self.observer.take("Simulator")
        counters = {
            "sim.events": report.events,
            "tivopc.chunks": report.totals.get("chunks_sent", 0),
            "fleet.totals": report.totals,
            "fleet.canonical_sha256": hashlib.sha256(
                report.canonical_json().encode("utf-8")).hexdigest(),
        }
        return UnitRun(wall, counters, {
            "report": report, "cpu_ns": cpu_ns, "workers": config.workers,
            "sim.fused_resumes": sum(sim.fused_resumes for sim in sims),
            "sim.dead_timers": sum(sim.dead_timers for sim in sims)})

    def check(self, unit: UnitRun) -> CheckResult:
        check = CheckResult()
        report = unit.out["report"]
        parts = fleet_mod.partition(self.population.clients, self.SHARDS)
        missing = sum(len(parts[i]) for i in report.missing_shards)
        check.ops(self.population.clients, missing + len(report.violations),
                  "subscribers missing or violating conservation")
        check.fact(report.ok, f"fleet report not ok: {report.violations[:3]}")
        check.fact(not report.degraded,
                   f"fleet report degraded: missing shards "
                   f"{report.missing_shards}")
        check.fact(sum(s.clients for s in report.shards) + missing
                   == self.population.clients,
                   "shard client counts do not cover the population")
        return check

    def end_to_end(self, units_: List[UnitRun]) -> Dict[str, float]:
        secs = [u.wall_s for u in units_]
        first = units_[0]
        report = first.out["report"]
        chunks = report.totals.get("chunks_delivered", 0)
        shard_sim_s = sum(s.sim_ns for s in report.shards) / 1e9
        subscriber_s = self.population.clients * self.population.seconds
        first_ms = report.qoe["first_ms"]
        return {
            "sim_s_per_s": statistics.median(shard_sim_s / t for t in secs),
            "calls_per_s": statistics.median(chunks / t for t in secs),
            "subscriber_s_per_s": statistics.median(subscriber_s / t
                                                    for t in secs),
            # Startup latency: simulated time to a subscriber's first chunk.
            "call_sim_us_p50": first_ms["p50"] * 1000.0,
            "call_sim_us_p99": first_ms["p99"] * 1000.0,
            # No CPU model in the chunk tier: the benchmark process
            # tree's own CPU time per delivered chunk.
            "host_cpu_ns_per_call": statistics.median(
                u.out["cpu_ns"] for u in units_) / max(1, chunks),
            "samples": self.population.clients,
        }

    def traced_unit(self, ledger) -> UnitRun:
        """One worker, in-process, so the shards' spans are recorded."""
        return self.run_unit(before=ledger.reset, after=ledger.stop,
                             workers=1)

    def traced_throughput(self, unit: UnitRun) -> float:
        """Per shard-second: the traced pass runs one worker in-process,
        the untraced one two workers, so compare shard compute."""
        return 1.0 / sum(s.wall_s for s in unit.out["report"].shards)


def _process_cpu_ns() -> int:
    times = os.times()
    return int((times.user + times.system + times.children_user
                + times.children_system) * 1e9)


WORKLOADS = {w.name: w for w in (TivopcWorkload, OffloadRpcWorkload,
                                 FleetWorkload)}
