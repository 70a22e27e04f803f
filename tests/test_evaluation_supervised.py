"""The supervised dispatcher: retry, quarantine, timeout, hedging.

These tests drive :class:`SupervisedPool` directly with a trivial task
body so every supervision mechanism is pinned in isolation — the fleet
tests then pin the composition.  The tentpole contract here: a dead or
wedged worker costs a retry, never the run; ``workers=1`` never touches
multiprocessing at all.
"""

import multiprocessing
import threading

import pytest

from repro.errors import ReproError
from repro.evaluation.supervised import (
    SupervisedPool,
    SupervisionPolicy,
    TaskFailure,
)
from repro.faults.fleet import FleetChaos

# Short waits everywhere: these tests exercise control flow, not clocks.
_FAST = SupervisionPolicy(backoff_base_s=0.0, backoff_cap_s=0.0,
                          hedge_after_s=0.05, poll_s=0.01)


def _double(x):
    return x * 2


# -- policy validation --------------------------------------------------------


def test_policy_rejects_bad_shapes():
    for bad in (dict(max_retries=-1),
                dict(backoff_base_s=-0.1),
                dict(backoff_base_s=0.5, backoff_cap_s=0.1),
                dict(shard_timeout_s=0.0),
                dict(hedge_after_s=-1.0),
                dict(poll_s=0.0)):
        with pytest.raises(ReproError):
            SupervisionPolicy(**bad)


def test_backoff_is_capped_exponential():
    policy = SupervisionPolicy(backoff_base_s=0.05, backoff_cap_s=0.3)
    assert policy.backoff_s(0) == 0.0
    assert policy.backoff_s(1) == 0.05
    assert policy.backoff_s(2) == 0.10
    assert policy.backoff_s(3) == 0.20
    assert policy.backoff_s(4) == 0.30       # capped
    assert policy.backoff_s(10) == 0.30


def test_pool_rejects_zero_workers_and_mismatched_keys():
    with pytest.raises(ValueError):
        SupervisedPool(_double, workers=0)
    pool = SupervisedPool(_double, workers=1, task_keys=["a", "b"])
    with pytest.raises(ReproError, match="task_keys"):
        pool.run([1, 2, 3])


# -- the happy paths ----------------------------------------------------------


def test_parallel_dispatch_returns_every_result():
    pool = SupervisedPool(_double, workers=2, policy=_FAST)
    results = pool.run(list(range(6)))
    assert results == {i: i * 2 for i in range(6)}
    assert sorted(pool.completion_order) == list(range(6))
    assert not pool.failures
    assert pool.stats.retries == 0


def test_empty_items_is_a_noop():
    pool = SupervisedPool(_double, workers=2, policy=_FAST)
    assert pool.run([]) == {}


# -- workers=1 never touches multiprocessing ----------------------------------


def test_sequential_path_never_imports_a_process(monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("workers=1 must stay in-process")
    monkeypatch.setattr(multiprocessing, "get_context", explode)
    import repro.evaluation.supervised as supervised
    monkeypatch.setattr(supervised, "fork_context", explode)
    pool = SupervisedPool(_double, workers=1, policy=_FAST)
    assert pool.run([1, 2, 3]) == {0: 2, 1: 4, 2: 6}


def test_sequential_retry_and_quarantine(monkeypatch):
    calls = []

    def flaky(x):
        calls.append(x)
        if len(calls) < 3:
            raise RuntimeError(f"boom {len(calls)}")
        return x

    policy = SupervisionPolicy(max_retries=2, backoff_base_s=0.01,
                               backoff_cap_s=0.05)
    slept = []
    pool = SupervisedPool(flaky, workers=1, policy=policy)
    pool._sleep = slept.append
    assert pool.run([7]) == {0: 7}
    assert pool.stats.retries == 2
    # Backoff before attempt 1 then attempt 2: base, 2*base.
    assert slept == [0.01, 0.02]

    def always(x):
        raise RuntimeError("always")

    pool = SupervisedPool(always, workers=1, policy=policy)
    pool._sleep = lambda s: None
    assert pool.run([7]) == {}
    assert pool.stats.quarantined == 1
    failure = pool.failures[0]
    assert isinstance(failure, TaskFailure)
    assert failure.attempts == 3
    assert len(failure.errors) == 3
    assert "RuntimeError: always" in failure.summary()


# -- crash-safety across forked workers ---------------------------------------


def test_worker_kill_is_retried():
    chaos = FleetChaos(kills=(("t1", 0),))
    pool = SupervisedPool(_double, workers=2, policy=_FAST, chaos=chaos,
                          task_keys=["t0", "t1", "t2"])
    assert pool.run([0, 1, 2]) == {0: 0, 1: 2, 2: 4}
    assert pool.stats.worker_deaths == 1
    assert pool.stats.workers_replaced == 1
    assert pool.stats.retries == 1
    assert not pool.failures


def test_idle_worker_death_recovery_keeps_slot_state():
    # Regression: dispatch()'s broken-pipe recovery (a worker that died
    # *idle*, e.g. OOM between dispatches) replaces the worker and
    # re-sends — and must restore the slot's in-flight state.  When the
    # slot is left looking idle, the supervisor assigns it a second
    # task, the re-sent dispatch is never polled, and the run hangs.
    pool = SupervisedPool(_double, workers=2, policy=_FAST)
    real_spawn = pool._spawn
    first = []

    def spawn_dead_first(ctx):
        slot = real_spawn(ctx)
        if not first:
            first.append(True)
            slot.conn.send(None)      # orderly exit: the worker dies idle
            slot.process.join(timeout=5.0)
        return slot

    pool._spawn = spawn_dead_first
    results = {}
    runner = threading.Thread(
        target=lambda: results.update(pool.run([0, 1, 2, 3])),
        daemon=True)
    runner.start()
    runner.join(timeout=30.0)
    assert not runner.is_alive(), "supervisor hung after idle worker death"
    assert results == {0: 0, 1: 2, 2: 4, 3: 6}
    assert pool.stats.worker_deaths == 1
    assert pool.stats.workers_replaced == 1
    # The re-send is the same attempt, not a retry.
    assert pool.stats.retries == 0
    assert not pool.failures


def test_poison_task_quarantines_without_sinking_the_rest():
    policy = SupervisionPolicy(max_retries=1, backoff_base_s=0.0,
                               backoff_cap_s=0.0, poll_s=0.01)
    pool = SupervisedPool(_double, workers=2, policy=policy,
                          chaos=FleetChaos.poison(1, max_retries=1))
    results = pool.run([0, 1, 2])
    assert results == {0: 0, 2: 4}
    assert pool.stats.quarantined == 1
    assert pool.failures[1].key == 1
    assert pool.failures[1].attempts == 2
    assert "worker died" in pool.failures[1].summary()


def test_exception_in_worker_is_an_ordinary_failure():
    def picky(x):
        if x == 1:
            raise ValueError("no ones")
        return x

    policy = SupervisionPolicy(max_retries=0, backoff_base_s=0.0,
                               backoff_cap_s=0.0, poll_s=0.01)
    pool = SupervisedPool(picky, workers=2, policy=policy)
    assert pool.run([0, 1, 2]) == {0: 0, 2: 2}
    assert "ValueError: no ones" in pool.failures[1].summary()
    # An in-band exception is not a worker death; nobody was replaced.
    assert pool.stats.worker_deaths == 0
    assert pool.stats.workers_replaced == 0


def test_stalled_worker_is_reaped_by_the_timeout():
    policy = SupervisionPolicy(max_retries=1, backoff_base_s=0.0,
                               backoff_cap_s=0.0, shard_timeout_s=0.3,
                               hedge=False, poll_s=0.02)
    chaos = FleetChaos(stalls=((0, 0, 30.0),))
    pool = SupervisedPool(_double, workers=2, policy=policy, chaos=chaos)
    assert pool.run([5, 6]) == {0: 10, 1: 12}
    assert pool.stats.timeouts == 1
    assert pool.stats.workers_replaced == 1
    assert pool.stats.retries == 1


def test_straggler_is_hedged_and_first_result_wins():
    policy = SupervisionPolicy(backoff_base_s=0.0, backoff_cap_s=0.0,
                               hedge_after_s=0.05, poll_s=0.01)
    chaos = FleetChaos(slows=((1, 0, 2.0),))
    pool = SupervisedPool(_double, workers=2, policy=policy, chaos=chaos)
    assert pool.run([0, 1]) == {0: 0, 1: 2}
    assert pool.stats.hedges == 1
    assert pool.stats.hedge_wins == 1
    assert not pool.failures


def test_hedging_respects_the_attempt_budget():
    # max_retries=0 means one dispatch total per task: never hedge.
    policy = SupervisionPolicy(max_retries=0, backoff_base_s=0.0,
                               backoff_cap_s=0.0, hedge_after_s=0.0,
                               poll_s=0.01)
    chaos = FleetChaos(slows=((1, 0, 0.3),))
    pool = SupervisedPool(_double, workers=2, policy=policy, chaos=chaos)
    assert pool.run([0, 1]) == {0: 0, 1: 2}
    assert pool.stats.hedges == 0
