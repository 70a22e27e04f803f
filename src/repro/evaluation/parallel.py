"""Parallel experiment runner for parameter sweeps.

Every sweep point builds its own :class:`~repro.tivopc.testbed.Testbed`
from an explicit seed, so points share **no** mutable state and their
results depend only on ``(scenario, stream, seconds, seed)``.  That
makes the sweep embarrassingly parallel *and* lets us promise something
stronger than speedup: the parallel runner is **bit-identical** to the
sequential one.  Determinism comes from three properties:

1. each worker runs the exact same :func:`repro.evaluation.sweeps._measure`
   code path as the sequential loop, with the same per-point seed;
2. results are keyed by task index, so they land in the same
   positions regardless of which worker finished first;
3. the task list is built before dispatch, in the same order the
   sequential loop would visit it.

``tests/test_evaluation_parallel.py`` asserts the equality point for
point.  Workers are the supervised pool's ``fork``-context processes
(the runner targets the POSIX CI hosts); pass ``workers=1`` (the default
everywhere) to stay in process.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.evaluation import sweeps as _sweeps
from repro.evaluation.supervised import SupervisedPool
from repro.media.mpeg import StreamConfig

__all__ = ["SweepTask", "default_workers", "run_tasks"]

# One unit of work: (scenario, stream, seconds, seed).
SweepTask = Tuple[str, StreamConfig, float, int]


def default_workers() -> int:
    """Worker count for ``workers=None``: one per *available* CPU.

    "Available" means the process's CPU affinity mask, not the machine's
    CPU count — in a cgroup-pinned CI container ``os.cpu_count()``
    reports the host's cores while the runner may hold a single one, and
    oversubscribing fork workers there is strictly slower.  Platforms
    without ``sched_getaffinity`` (macOS) fall back to the CPU count.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:           # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, cpus)


def _run_task(task: SweepTask):
    """Module-level worker body for the pool."""
    scenario, stream, seconds, seed = task
    return _sweeps._measure(scenario, stream, seconds, seed)


def run_tasks(tasks: Sequence[SweepTask],
              workers: Optional[int] = 1) -> List:
    """Measure every task; return :class:`SweepPoint` results in order.

    Dispatch runs through
    :class:`~repro.evaluation.supervised.SupervisedPool`, so a worker
    that dies or raises mid-point is retried rather than tearing the
    sweep down; a point that exhausts its retries raises
    :class:`ReproError` naming it.  ``workers=1`` (or a single task)
    runs in-process; ``workers=None`` uses one process per CPU; any
    larger value sizes the pool explicitly.  Results are returned in
    task order and are identical to the sequential runner's whatever
    the worker count.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    pool = SupervisedPool(_run_task,
                          workers=max(1, min(workers, len(tasks))))
    results = pool.run(tasks)
    if pool.failures:
        raise ReproError(
            "sweep task(s) quarantined after retry exhaustion: "
            + "; ".join(failure.summary()
                        for _, failure in sorted(pool.failures.items())))
    return [results[i] for i in range(len(tasks))]
