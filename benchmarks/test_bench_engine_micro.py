"""Engine microbenchmark: loop throughput on the reference workload.

The hot-path overhaul (__slots__ event types, pooled fast-path timeouts,
lazy cancellation, dict-LRU cache inner loop) was accepted against a
>= 2x events/second bar on a CPU-bound TiVoPC run.  This benchmark
re-measures that workload through :mod:`harness` and publishes both the
human-readable summary and the machine-readable JSON entry.
"""

from conftest import publish

from harness import (
    PRE_OVERHAUL_EVENTS_PER_SEC,
    PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC,
    run_all,
)


def test_bench_engine_micro(one_shot):
    report = one_shot(run_all, ["engine_micro_tivopc"])
    metrics = report["benchmarks"]["engine_micro_tivopc"]
    publish("engine_micro", "\n".join([
        "Engine microbenchmark -- Simple server, 5 simulated seconds",
        f"events processed      {metrics['events']:>12,d}",
        f"wall clock            {metrics['wall_s']:>12.3f} s",
        f"events/second         {metrics['events_per_sec']:>12,.0f}",
        f"fused resumes         {metrics['fused_resumes']:>12,d}",
        f"pre-overhaul rate     {PRE_OVERHAUL_EVENTS_PER_SEC:>12,d}",
        f"speedup               {metrics['speedup_vs_pre_overhaul']:>12.2f}x",
        f"pre-wheel rate        {PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC:>12,d}",
        f"speedup vs pre-wheel  {metrics['speedup_vs_pre_wheel']:>12.2f}x",
    ]), data=metrics)

    # The simulated work is fixed: same events, same final clock.
    assert metrics["events"] == 93_048
    assert metrics["sim_ns"] == 5_000_000_000
    # The hot sleeps dispatch through the fused bare-int fast path.
    assert metrics["fused_resumes"] > 10_000
    # The overhaul's acceptance bar, measured best-of-N to shrug off
    # scheduler noise.  PRE_OVERHAUL_EVENTS_PER_SEC was recorded on the
    # reference machine immediately before the overhaul landed.
    assert metrics["events_per_sec"] >= 2.0 * PRE_OVERHAUL_EVENTS_PER_SEC
    # The timer-wheel core's bar is >= 3x the committed pre-wheel
    # baseline; the full-strength gate is the perf-smoke check against
    # the committed bench.json (whose entry records the 3x), so this
    # in-test floor is set a noise margin below it.
    assert metrics["events_per_sec"] >= 2.0 * PRE_WHEEL_ENGINE_MICRO_EVENTS_PER_SEC
