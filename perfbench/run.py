"""Run one benchmark workload at a seed and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tivopc --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones, from a traced pass
that follows the untraced one.  The line before it is the run record
(what ran, where, and how long each phase took).  See README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Set-up is repeated and its median reported: imports in fresh
# interpreters, and world builds plus deploys in this process.
IMPORT_REPEATS = 5
BUILD_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "sim_s_per_s": "sim_s/s",
    "calls_per_s": "1/s",
    "subscriber_s_per_s": "sim_s/s",
    "call_sim_us_p50": "us",
    "call_sim_us_p99": "us",
    "host_cpu_ns_per_call": "ns",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count", "sim.self_s": "s", "sim.us_per_event": "us",
    "sim.fused_resumes": "count", "sim.dead_timers": "count",
    "hostos.self_s": "s", "hostos.syscalls": "count",
    "hostos.nfs_requests": "count", "hostos.tick_events": "count",
    "hw.self_s": "s", "hw.cache.touches": "count",
    "hw.cpu.executes": "count", "hw.cache.drains": "count",
    "hw.cache.drain_s": "s", "hw.cache.miss_ratio": "ratio",
    "hw.bus.transactions": "count", "hw.bus.bytes": "bytes",
    "net.self_s": "s", "net.packets": "count",
    "core.self_s": "s", "core.calls": "count", "core.us_per_call": "us",
    "core.marshal_encodes": "count", "core.channel_sent": "count",
    "core.channel_delivered": "count", "core.channel_dropped": "count",
    "core.deploy_s": "s",
    "rdma.self_s": "s", "rdma.doorbells": "count", "rdma.reads": "count",
    "rdma.wr_per_doorbell": "ratio", "rdma.one_sided_hit_ratio": "ratio",
    "rdma.fallback_ratio": "ratio",
    "tivopc.self_s": "s", "tivopc.population_self_s": "s",
    "tivopc.chunks": "count", "media.self_s": "s",
    "media.decode_self_s": "s",
    "evaluation.self_s": "s", "evaluation.shard_s_sum": "s",
    "evaluation.shard_s_max": "s", "evaluation.dispatch_merge_s": "s",
    "evaluation.parallel_efficiency": "ratio",
    "evaluation.retries": "count", "evaluation.hedges": "count",
    "telemetry.self_s": "s", "telemetry.merge_s": "s",
    "other.self_s": "s", "bench.self_s": "s", "bench.traced_root_s": "s",
    "bench.trace_overhead": "ratio", "bench.fail_ratio": "ratio",
}

# Functions whose calls the traced pass counts ("module:Qualname").
COUNTED = {
    "repro.core.proxy:Proxy.invoke": "core.calls",
    "repro.hw.cache:Cache.touch_range": "hw.cache.touches",
    "repro.hw.cpu:Cpu.execute": "hw.cpu.executes",
}


class Refused(Exception):
    """A self-check failed: the benchmark does not report."""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tivopc", "offload_rpc", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds the timed phase runs for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="work per unit relative to the defined "
                             "benchmark (the benchmark's own tests run "
                             "below 1)")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the program's sources on the path and import the workloads."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise FileNotFoundError(
            f"no program sources at {SRC}: run from a full checkout")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads  # noqa: F401


def import_seconds() -> float:
    """Import time of the benchmark's import chain, in a fresh process."""
    code = ("import sys, time; sys.path[:0] = [%r, %r]; "
            "t = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t)" % (HERE, SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_rev() -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def peak_rss_mb() -> float:
    """Larger of this process's and its waited children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def diff_keys(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def makespan_in_order(walls: List[float], workers: int) -> float:
    """Makespan of dispatching ``walls`` in order to the first free worker."""
    loads = [0.0] * workers
    for wall in walls:
        loads[loads.index(min(loads))] += wall
    return max(loads)


def make_workload(name: str, seed: int, scale: float, observer=None):
    import workloads
    return workloads.WORKLOADS[name](seed, scale, observer=observer)


def setup_phase(workload) -> Dict[str, Any]:
    """Repeated builds and deploys (the first also warms lazy set-up),
    and imports in fresh interpreters; their medians."""
    builds = [workload.build() for _ in range(BUILD_REPEATS)]
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    return {"import_s": statistics.median(imports),
            "build_s": statistics.median(b[0] for b in builds),
            "deploy_s": statistics.median(b[1] for b in builds),
            "import_samples_s": imports,
            "build_samples_s": [b[0] for b in builds],
            "deploy_samples_s": [b[1] for b in builds]}


def timed_phase(workload, seconds: float) -> list:
    """Whole units while another one fits in ``seconds`` of host time.

    At least two, so every run repeats its seed, unless one unit alone
    takes more than half the budget.
    """
    units_ = []
    start = time.perf_counter()
    while True:
        units_.append(workload.run_unit())
        elapsed = time.perf_counter() - start
        per_unit = elapsed / len(units_)
        if len(units_) == 1 and per_unit > seconds / 2:
            return units_
        if len(units_) >= 2 and elapsed + per_unit > seconds:
            return units_


def determinism_problems(workload, units_, traced=None) -> List[str]:
    """Deterministic counters must repeat; distinct seeds must differ."""
    import workloads
    problems = []
    reference = units_[0].counters
    for index, unit in enumerate(units_[1:], 1):
        if unit.counters != reference:
            problems.append(f"repetition {index} of the seed changed "
                            f"{diff_keys(reference, unit.counters)}")
    if len(units_) == 1 and hasattr(workload, "determinism_repeat"):
        first, second = workload.determinism_repeat()
        if first != second:
            problems.append("short repetition of the seed changed "
                            f"{diff_keys(first, second)}")
    if traced is not None and traced.counters != reference:
        problems.append("the traced run changed "
                        f"{diff_keys(reference, traced.counters)}")
    other = make_workload(workload.name, workload.seed + 1, workload.scale)
    if workloads.digest(other.inputs()) == workloads.digest(
            workload.inputs()):
        problems.append(f"seeds {workload.seed} and {workload.seed + 1} "
                        "generate identical inputs")
    return problems


def traced_phase(workload) -> Tuple[Any, Any]:
    """One unit with every layer wrapped in spans."""
    from ledger import Ledger
    ledger = Ledger(COUNTED)
    ledger.install()
    try:
        unit = workload.traced_unit(ledger)
    finally:
        ledger.uninstall()
    return unit, ledger.result


def per_layer_metrics(workload, units_, traced, ledger, setup,
                      fail_ratio) -> Dict[str, float]:
    counters = dict(traced.out)
    counters.update(traced.counters)
    counters.update(ledger.calls)

    def count(key: str) -> float:
        value = counters.get(key, 0)
        return value if isinstance(value, (int, float)) else 0

    layers = ledger.layer_self_s()
    m: Dict[str, float] = {f"{layer}.self_s": layers.get(layer, 0.0)
                           for layer in ("sim", "hostos", "hw", "net",
                                         "core", "rdma", "tivopc", "media",
                                         "evaluation", "telemetry", "other",
                                         "bench")}
    for key in ("sim.events", "sim.fused_resumes", "sim.dead_timers",
                "hostos.syscalls", "hostos.nfs_requests",
                "hostos.tick_events", "hw.cache.touches", "hw.cpu.executes",
                "hw.cache.drains", "hw.bus.transactions", "hw.bus.bytes",
                "net.packets", "core.calls", "core.marshal_encodes",
                "core.channel_sent", "core.channel_delivered",
                "core.channel_dropped", "rdma.doorbells", "rdma.reads",
                "tivopc.chunks"):
        m[key] = count(key)
    m["sim.us_per_event"] = (m["sim.self_s"] / m["sim.events"] * 1e6
                             if m["sim.events"] else 0.0)
    m["core.us_per_call"] = (m["core.self_s"] / m["core.calls"] * 1e6
                             if m["core.calls"] else 0.0)
    accesses = count("hw.cache.accesses")
    m["hw.cache.miss_ratio"] = (count("hw.cache.misses") / accesses
                                if accesses else 0.0)
    # Drain host time from the untraced run: tracing slows the replay.
    m["hw.cache.drain_s"] = statistics.median(
        u.out.get("drain_s", 0.0) for u in units_)
    m["core.deploy_s"] = setup["deploy_s"]
    doorbells = count("rdma.doorbells")
    m["rdma.wr_per_doorbell"] = (count("rdma.posted") / doorbells
                                 if doorbells else 0.0)
    m["rdma.one_sided_hit_ratio"] = (count("rdma.one_sided_hits")
                                     / count("rdma.reads")
                                     if count("rdma.reads") else 0.0)
    gets = count("rdma.one_sided_hits") + count("rdma.fallback_gets")
    m["rdma.fallback_ratio"] = (count("rdma.fallback_gets") / gets
                                if gets else 0.0)
    m["tivopc.population_self_s"] = ledger.unit_self_s(
        "repro.tivopc.population")
    m["media.decode_self_s"] = ledger.unit_self_s("repro.media.decoder")
    m["telemetry.merge_s"] = ledger.unit_self_s("repro.telemetry.merge")
    m.update(evaluation_metrics(units_))
    m["bench.traced_root_s"] = ledger.root_ns / 1e9
    base = statistics.median(workload.traced_throughput(u) for u in units_)
    m["bench.trace_overhead"] = workload.traced_throughput(traced) / base
    m["bench.fail_ratio"] = fail_ratio
    return m


def evaluation_metrics(units_) -> Dict[str, float]:
    """Fleet dispatch figures of the median untraced unit (shard walls
    are measured inside the workers and carried by the report)."""
    out = {"evaluation.shard_s_sum": 0.0, "evaluation.shard_s_max": 0.0,
           "evaluation.dispatch_merge_s": 0.0,
           "evaluation.parallel_efficiency": 0.0,
           "evaluation.retries": 0, "evaluation.hedges": 0}
    reports = [u for u in units_ if "report" in u.out]
    if not reports:
        return out
    unit = sorted(reports, key=lambda u: u.wall_s)[len(reports) // 2]
    report, workers = unit.out["report"], unit.out["workers"]
    walls = [s.wall_s for s in report.shards]
    out["evaluation.shard_s_sum"] = sum(walls)
    out["evaluation.shard_s_max"] = max(walls)
    out["evaluation.dispatch_merge_s"] = (
        unit.wall_s - makespan_in_order(walls, workers))
    out["evaluation.parallel_efficiency"] = sum(walls) / (workers
                                                          * unit.wall_s)
    out["evaluation.retries"] = report.supervision.get("retries", 0)
    out["evaluation.hedges"] = report.supervision.get("hedges", 0)
    return out


def run(args: argparse.Namespace) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Every phase of one invocation; returns (result, run record)."""
    import workloads
    phases: Dict[str, float] = {
        "import_s": time.perf_counter() - PROCESS_START}
    observer = workloads.Observer()
    observer.install()
    try:
        mark = time.perf_counter()
        workload = make_workload(args.workload, args.seed, args.scale,
                                 observer)
        setup = setup_phase(workload)
        phases["setup_phase_s"] = time.perf_counter() - mark
        phases["setup_wall_s"] = time.perf_counter() - PROCESS_START

        mark = time.perf_counter()
        units_ = timed_phase(workload, args.seconds)
        phases["run_s"] = time.perf_counter() - mark

        mark = time.perf_counter()
        check = workload.check(units_[0])
        traced = ledger = None
        if args.trace:
            traced_mark = time.perf_counter()
            traced, ledger = traced_phase(workload)
            phases["traced_s"] = time.perf_counter() - traced_mark
        problems = determinism_problems(workload, units_, traced)
        if problems:
            raise Refused("; ".join(problems))
        phases["check_s"] = (time.perf_counter() - mark
                             - phases.get("traced_s", 0.0))
    finally:
        observer.uninstall()

    e2e = workload.end_to_end(units_)
    setup_s = setup["import_s"] + setup["build_s"] + setup["deploy_s"]
    fail_ratio = check.failed / check.attempted
    if args.trace:
        values = per_layer_metrics(workload, units_, traced, ledger, setup,
                                   fail_ratio)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        layers = ledger.layer_self_s()
        if abs(sum(layers.values()) - ledger.root_ns / 1e9) > 1e-6:
            raise Refused("layer self-times do not sum to the traced root")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"ledger-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(ledger.to_json(), handle)
    else:
        values = dict(e2e, setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "git_rev": git_rev(), "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "inputs_fingerprint": workloads.digest(workload.inputs()),
        "phases_s": phases, "setup": setup, "units": len(units_),
        "unit_walls_s": [u.wall_s for u in units_],
        "latency_samples": e2e["samples"],
        "hw.cache.drains": units_[0].counters.get("hw.cache.drains", 0),
        "hw.cache.drain_s": [u.out.get("drain_s", 0.0) for u in units_],
        "counters": {k: v for k, v in units_[0].counters.items()
                     if isinstance(v, (int, float, str))},
        "problems": check.problems,
    }
    if args.trace:
        record["bench.trace_overhead"] = values["bench.trace_overhead"]
    result = {"correct": check.failed == 0, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    try:
        result, record = run(args)
    except Refused as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
