"""Unit tests for the simulator hot-loop profiler."""

import json

from repro.sim import SimProfiler, Simulator, profiled
from repro.sim.profile import CategoryStats


def _workload(sim, n=50):
    """Spawn a small fleet of tickers plus one named singleton."""

    def ticker(period):
        for _ in range(n):
            yield sim.clock.after(period)

    for i in range(4):
        sim.spawn(ticker(1_000 + i), name=f"ticker-{i}")
    sim.spawn(ticker(5_000), name="singleton")


def test_profiled_attributes_every_event():
    sim = Simulator()
    _workload(sim)
    with profiled(sim) as profiler:
        sim.run()
    # Every loop iteration was observed and charged somewhere.
    assert profiler.total.events == sim.events_processed
    assert profiler.total.events == sum(
        s.events for s in profiler.categories.values())
    assert profiler.total.sim_ns == sim.now
    assert profiler.total.wall_s > 0
    assert profiler.wall_elapsed_s >= profiler.total.wall_s
    # The loop reverted to the bare dispatch on exit.
    assert sim._profiler is None


def test_instance_suffixes_collapse_into_one_category():
    sim = Simulator()
    _workload(sim)
    with profiled(sim) as profiler:
        sim.run()
    # ticker-0..ticker-3 aggregate as "ticker-N"; the singleton stays.
    assert "ticker-N" in profiler.categories
    assert "singleton" in profiler.categories
    assert not any(label.startswith("ticker-0")
                   for label in profiler.categories)
    tickers = profiler.categories["ticker-N"]
    assert tickers.events > profiler.categories["singleton"].events


def test_hotspots_sorted_and_limited():
    sim = Simulator()
    _workload(sim)
    with profiled(sim) as profiler:
        sim.run()
    ranked = profiler.hotspots()
    walls = [stats.wall_s for _, stats in ranked]
    assert walls == sorted(walls, reverse=True)
    assert len(profiler.hotspots(limit=1)) == 1


def test_as_dict_is_json_serializable():
    sim = Simulator()
    _workload(sim, n=5)
    with profiled(sim) as profiler:
        sim.run()
    report = json.loads(json.dumps(profiler.as_dict()))
    assert report["total"]["events"] == sim.events_processed
    assert set(report["categories"]) == set(profiler.categories)
    for stats in report["categories"].values():
        assert set(stats) == {"events", "wall_s", "sim_ns"}


def test_render_mentions_totals_and_categories():
    sim = Simulator()
    _workload(sim, n=5)
    with profiled(sim) as profiler:
        sim.run()
    text = profiler.render()
    assert "simulator profile" in text
    assert "ticker-N" in text
    assert str(profiler.total.events) in text


def test_profiling_does_not_change_the_run():
    def run(with_profiler):
        sim = Simulator()
        _workload(sim)
        if with_profiler:
            with profiled(sim):
                sim.run()
        else:
            sim.run()
        return sim.events_processed, sim.now, sim.fused_resumes

    assert run(True) == run(False)


def test_manual_attach_detach_windows_accumulate():
    sim = Simulator()
    _workload(sim, n=10)
    profiler = SimProfiler(sim)
    sim.attach_profiler(profiler)
    profiler.mark_attached()
    sim.run(until=20_000)
    profiler.mark_detached()
    sim.detach_profiler()
    first_window = profiler.wall_elapsed_s
    assert first_window > 0

    # Re-attach: the second window adds to the first and events observed
    # while detached are not charged.
    sim.attach_profiler(profiler)
    profiler.mark_attached()
    sim.run()
    profiler.mark_detached()
    sim.detach_profiler()
    assert profiler.wall_elapsed_s > first_window
    assert profiler.total.events == sim.events_processed


def test_category_stats_start_zeroed():
    stats = CategoryStats()
    assert stats.as_dict() == {"events": 0, "wall_s": 0.0, "sim_ns": 0}
