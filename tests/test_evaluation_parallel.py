"""The parallel sweep runner must be bit-identical to the sequential one.

Each sweep point builds its own seeded Testbed, so results depend only on
the task tuple; ``run_tasks`` returns them in task order.  These tests
pin that contract: a multi-worker run and a sequential run of the same
sweep must agree field for field, not just approximately.
"""

import os
from unittest import mock

import pytest

from repro import units
from repro.errors import ReproError
from repro.evaluation.parallel import default_workers, run_tasks
from repro.evaluation.supervised import fork_context
from repro.evaluation.sweeps import run_chunk_size_sweep, run_rate_sweep
from repro.media.mpeg import StreamConfig

# Short runs keep the suite quick while still exercising the full
# testbed (kernels, NIC rings, measurement client) per point.
_SECONDS = 2.0


def _points_equal(a, b):
    return (a.scenario == b.scenario
            and a.interval_ms == b.interval_ms
            and a.chunk_bytes == b.chunk_bytes
            and a.jitter == b.jitter
            and a.cpu_utilization == b.cpu_utilization
            and a.packets == b.packets)


def test_rate_sweep_parallel_matches_sequential():
    kwargs = dict(intervals_ms=(10.0, 5.0), scenarios=("simple", "offloaded"),
                  seconds=_SECONDS, seed=3)
    sequential = run_rate_sweep(workers=1, **kwargs)
    parallel = run_rate_sweep(workers=2, **kwargs)
    assert set(sequential) == set(parallel)
    for scenario in sequential:
        assert len(sequential[scenario]) == len(parallel[scenario])
        for seq_point, par_point in zip(sequential[scenario],
                                        parallel[scenario]):
            assert _points_equal(seq_point, par_point)


def test_chunk_sweep_parallel_matches_sequential():
    kwargs = dict(chunk_sizes=(512, 4096), scenarios=("offloaded",),
                  seconds=_SECONDS, seed=1)
    sequential = run_chunk_size_sweep(workers=1, **kwargs)
    parallel = run_chunk_size_sweep(workers=3, **kwargs)
    for seq_point, par_point in zip(sequential["offloaded"],
                                    parallel["offloaded"]):
        assert _points_equal(seq_point, par_point)


def test_run_tasks_preserves_order_across_workers():
    stream_a = StreamConfig(interval_ns=units.ms_to_ns(10.0))
    stream_b = StreamConfig(interval_ns=units.ms_to_ns(5.0))
    tasks = [("offloaded", stream_a, _SECONDS, 0),
             ("simple", stream_a, _SECONDS, 0),
             ("offloaded", stream_b, _SECONDS, 0)]
    points = run_tasks(tasks, workers=2)
    assert [p.scenario for p in points] == ["offloaded", "simple",
                                            "offloaded"]
    assert [p.interval_ms for p in points] == [10.0, 10.0, 5.0]


def test_run_tasks_rejects_zero_workers():
    with pytest.raises(ValueError):
        run_tasks([], workers=0)


def test_run_tasks_rejects_zero_workers_before_measuring():
    # A non-empty task list must be refused up front, not after some
    # points have already been measured.
    measure = mock.Mock(side_effect=_fake_measure)
    with mock.patch("repro.evaluation.sweeps._measure", measure):
        with pytest.raises(ValueError):
            run_tasks(_fake_tasks(3), workers=0)
    measure.assert_not_called()


def test_default_workers_positive():
    assert default_workers() >= 1


def test_default_workers_respects_affinity():
    # A cgroup-pinned container may expose many CPUs but grant few: the
    # default must follow the affinity mask, not os.cpu_count().
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no sched_getaffinity")
    assert default_workers() == len(os.sched_getaffinity(0))
    with mock.patch("os.sched_getaffinity", return_value={0, 2, 5}):
        assert default_workers() == 3


def test_default_workers_falls_back_without_affinity():
    with mock.patch("repro.evaluation.parallel.os") as fake_os:
        del fake_os.sched_getaffinity      # platform without the call
        fake_os.cpu_count.return_value = 6
        assert default_workers() == 6
        fake_os.cpu_count.return_value = None
        assert default_workers() == 1


def test_fork_context_error_is_clear_without_fork():
    with mock.patch("multiprocessing.get_context",
                    side_effect=ValueError("cannot find context")):
        with pytest.raises(ReproError, match="fork"):
            fork_context()


def test_single_worker_paths_never_touch_multiprocessing():
    # workers=1 must not even request a start method — the in-process
    # path has to work on spawn-only platforms and under test harnesses
    # that forbid forking.
    with mock.patch("multiprocessing.get_context",
                    side_effect=AssertionError("in-process path forked")):
        stream = StreamConfig(interval_ns=units.ms_to_ns(10.0))
        points = run_tasks([("offloaded", stream, _SECONDS, 0)], workers=1)
        assert [p.scenario for p in points] == ["offloaded"]


def test_run_tasks_single_worker_is_in_process():
    with mock.patch("repro.evaluation.sweeps._measure", _fake_measure), \
            mock.patch("multiprocessing.get_context",
                       side_effect=AssertionError("in-process path forked")):
        assert run_tasks(_fake_tasks(3), workers=1) == [
            ("simple", 0), ("simple", 1), ("simple", 4)]


def test_run_tasks_multi_worker_same_results():
    # Workers inherit the patched measurement through fork.
    with mock.patch("repro.evaluation.sweeps._measure", _fake_measure):
        sequential = run_tasks(_fake_tasks(8), workers=1)
        parallel = run_tasks(_fake_tasks(8), workers=2)
    assert sequential == parallel == [("simple", i * i) for i in range(8)]


def test_run_tasks_surfaces_fork_error_as_repro_error():
    with mock.patch("multiprocessing.get_context",
                    side_effect=ValueError("cannot find context")):
        with pytest.raises(ReproError, match="workers=1 instead"):
            run_tasks(_fake_tasks(4), workers=2)


def test_run_tasks_raises_on_quarantined_task():
    with mock.patch("repro.evaluation.sweeps._measure", _fake_measure):
        with pytest.raises(ReproError, match="quarantined"):
            run_tasks(_fake_tasks(4, reject=2), workers=2)


def _fake_tasks(n, reject=None):
    """Sweep tasks for :func:`_fake_measure`; the seed slot carries the
    value, and ``reject`` marks the one task that raises."""
    return [("simple", None, 0.0, -1 if i == reject else i)
            for i in range(n)]


def _fake_measure(scenario, stream, seconds, seed):
    if seed < 0:
        raise RuntimeError("rejected task")
    return scenario, seed * seed
