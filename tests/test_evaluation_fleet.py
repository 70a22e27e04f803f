"""The sharded fleet runner: determinism, conservation, merged artifacts.

The satellite contract this file pins: ``shards=4, workers=4`` is
point-identical to ``shards=4, workers=1`` (byte-identical canonical
reports), and re-partitioning the same population into different shard
counts preserves the aggregate conservation totals exactly.
"""

import json
import os

import pytest

from repro.errors import ReproError
from repro.evaluation.fleet import (
    FleetConfig,
    config_fingerprint,
    lpt_makespan,
    partition,
    run_fleet,
    shard_seed,
)
from repro.evaluation.supervised import SupervisionPolicy
from repro.faults.fleet import FleetChaos
from repro.sim.rng import RandomStreams
from repro.tivopc.population import PopulationConfig

# Small populations keep each test under a second; the chunk tier makes
# even 64 subscribers cheap.
_POP = PopulationConfig(clients=64, seconds=1.0, loss_rate=0.02,
                        fleet_seed=5)


# -- partitioning and seeds ---------------------------------------------------


def test_partition_covers_every_client_once():
    slices = partition(10, 3)
    assert [list(r) for r in slices] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert sum(len(r) for r in partition(64, 7)) == 64


def test_partition_rejects_bad_shapes():
    with pytest.raises(ReproError):
        partition(4, 5)
    with pytest.raises(ReproError):
        partition(4, 0)


def test_shard_seed_is_the_blessed_derivation():
    assert shard_seed(5, 2) == RandomStreams(5).derive("shard:2")
    assert shard_seed(5, 2) != shard_seed(5, 3)
    assert shard_seed(5, 2) != shard_seed(6, 2)


def test_fleet_config_validation():
    with pytest.raises(ReproError):
        FleetConfig(population=PopulationConfig(clients=2), shards=3)
    with pytest.raises(ReproError):
        FleetConfig(shards=0)


def test_fleet_config_chunksize_is_deprecated():
    with pytest.warns(DeprecationWarning, match="chunksize"):
        config = FleetConfig(chunksize=2)
    assert config.chunksize == 2
    with pytest.raises(ReproError):
        FleetConfig(chunksize=-1)


def test_lpt_makespan():
    assert lpt_makespan([4.0, 3.0, 2.0, 1.0], 2) == 5.0
    assert lpt_makespan([1.0] * 8, 4) == 2.0
    assert lpt_makespan([], 3) == 0.0
    with pytest.raises(ReproError):
        lpt_makespan([1.0], 0)


# -- determinism --------------------------------------------------------------


def test_fleet_multi_worker_point_identical_to_sequential():
    sequential = run_fleet(FleetConfig(population=_POP, shards=4,
                                       workers=1))
    parallel = run_fleet(FleetConfig(population=_POP, shards=4,
                                     workers=4))
    assert sequential.ok and parallel.ok
    assert sequential.canonical_json() == parallel.canonical_json()


def test_repartition_preserves_aggregate_totals():
    totals = [run_fleet(FleetConfig(population=_POP, shards=shards,
                                    workers=2)).totals
              for shards in (1, 4, 7)]
    assert totals[0] == totals[1] == totals[2]


def test_canonical_report_excludes_wall_clock():
    report = run_fleet(FleetConfig(population=_POP, shards=2, workers=1))
    dump = report.canonical_json()
    assert "wall_s" not in dump
    artifact = report.artifact()
    assert artifact["timing"]["wall_s"] > 0
    assert len(artifact["timing"]["shard_walls_s"]) == 2


# -- conservation and the merged snapshot -------------------------------------


def test_fleet_conservation_and_exact_sums():
    report = run_fleet(FleetConfig(population=_POP, shards=4, workers=1))
    assert report.ok, report.violations
    assert report.totals["chunks_lost"] > 0        # loss exercised
    assert report.totals["chunks_sent"] == (
        report.totals["chunks_delivered"] + report.totals["chunks_lost"])
    # Merged snapshot agrees with the report exactly.
    by_state = {s["labels"]["state"]: s["value"]
                for s in report.snapshot["fleet_chunks_total"]["samples"]}
    assert by_state["sent"] == report.totals["chunks_sent"]
    # Per-shard samples survive the merge verbatim.
    shard_samples = report.snapshot["fleet_shard_chunks_total"]["samples"]
    assert len(shard_samples) == 4 * 3             # 4 shards x 3 states
    assert report.snapshot["fleet_subscribers_total"]["samples"][0][
        "value"] == 64


def test_fleet_qoe_percentiles_are_ordered():
    report = run_fleet(FleetConfig(population=_POP, shards=2, workers=1))
    for summary in report.qoe.values():
        assert summary["p50"] <= summary["p90"] <= summary["p99"] \
            <= summary["max"]
    # ~5 ms pacing: the mean inter-arrival gap must sit right on it.
    assert report.qoe["mean_gap_ms"]["p50"] == pytest.approx(5.0, rel=0.1)


def test_fleet_detailed_fidelity_small_population():
    """The detailed tier rides the same fleet plumbing, conservation
    checks included (channel accounting comes from the runtimes)."""
    population = PopulationConfig(clients=2, seconds=1.0,
                                  fidelity="detailed", fleet_seed=0)
    report = run_fleet(FleetConfig(population=population, shards=2,
                                   workers=1))
    assert report.ok, report.violations
    assert report.totals["chunks_delivered"] > 0


# -- artifacts ----------------------------------------------------------------


def test_fleet_writes_per_shard_and_merged_artifacts(tmp_path):
    out = str(tmp_path / "fleet")
    config = FleetConfig(population=_POP, shards=3, workers=1)
    report = run_fleet(config, artifacts_dir=out)
    names = sorted(os.listdir(out))
    assert names == ["fleet.canonical.json", "fleet.json", "shard-0.json",
                     "shard-1.json", "shard-2.json"]
    fleet = json.loads((tmp_path / "fleet" / "fleet.json").read_text())
    assert fleet["totals"] == report.totals
    assert fleet["supervision"]["retries"] == 0
    shard0 = json.loads((tmp_path / "fleet" / "shard-0.json").read_text())
    assert shard0["seed"] == shard_seed(_POP.fleet_seed, 0)
    assert shard0["totals"] == report.shards[0].totals
    assert "snapshot" in shard0
    assert shard0["fingerprint"] == config_fingerprint(config)
    canonical = (tmp_path / "fleet" / "fleet.canonical.json").read_text()
    assert canonical == report.canonical_json() + "\n"
    assert "wall_s" not in canonical


# -- supervised dispatch: chaos, resume, degradation --------------------------

_FAST = SupervisionPolicy(backoff_base_s=0.01, backoff_cap_s=0.05,
                          hedge_after_s=0.05, poll_s=0.01)


def _fleet(shards=4, workers=1, policy=_FAST, **kwargs):
    return run_fleet(FleetConfig(population=_POP, shards=shards,
                                 workers=workers, supervision=policy),
                     **kwargs)


def test_chaos_worker_kill_is_invisible_in_the_canonical_report():
    baseline = _fleet(workers=1)
    killed = _fleet(workers=2, chaos=FleetChaos(kills=((1, 0),)))
    assert killed.canonical_json() == baseline.canonical_json()
    assert killed.supervision["worker_deaths"] == 1
    assert killed.supervision["retries"] == 1
    assert not killed.degraded


def test_chaos_stall_is_reaped_by_timeout_and_retried():
    baseline = _fleet(workers=1)
    policy = SupervisionPolicy(backoff_base_s=0.01, backoff_cap_s=0.05,
                               shard_timeout_s=1.0, hedge=False,
                               poll_s=0.01)
    stalled = _fleet(workers=2, policy=policy,
                     chaos=FleetChaos(stalls=((0, 0, 30.0),)))
    assert stalled.canonical_json() == baseline.canonical_json()
    assert stalled.supervision["timeouts"] == 1
    assert stalled.supervision["retries"] == 1
    assert stalled.supervision["workers_replaced"] == 1


def test_chaos_slow_straggler_is_hedged_first_result_wins():
    baseline = _fleet(workers=1)
    hedged = _fleet(workers=3, chaos=FleetChaos(slows=((3, 0, 1.5),)))
    assert hedged.canonical_json() == baseline.canonical_json()
    assert hedged.supervision["hedges"] >= 1


def test_in_process_chaos_kill_retries_without_multiprocessing():
    baseline = _fleet(workers=1)
    killed = _fleet(workers=1, chaos=FleetChaos(kills=((2, 0),)))
    assert killed.canonical_json() == baseline.canonical_json()
    assert killed.supervision["retries"] == 1


def test_retry_exhaustion_degrades_with_exact_accounting():
    policy = SupervisionPolicy(max_retries=1, backoff_base_s=0.0,
                               backoff_cap_s=0.0, poll_s=0.01)
    report = _fleet(workers=2, policy=policy,
                    chaos=FleetChaos.poison(2, max_retries=1))
    assert report.degraded and not report.complete
    assert report.missing_shards == [2]
    assert report.supervision["quarantined"] == 1
    assert len(report.supervision["quarantine_reasons"]) == 1
    # Conservation still holds over the shards that completed.
    assert report.ok, report.violations
    assert report.totals["chunks_sent"] == (
        report.totals["chunks_delivered"] + report.totals["chunks_lost"])
    # The missing shard contributes nothing, so totals differ from a
    # full run by exactly that shard's chunks and clients.
    full = _fleet(workers=1)
    missing_shard = [s for s in full.shards if s.shard_id == 2][0]
    assert sum(s.clients for s in report.shards) == (
        _POP.clients - missing_shard.clients)
    assert report.totals["chunks_sent"] == (
        full.totals["chunks_sent"] - missing_shard.totals["chunks_sent"])


def test_degraded_canonical_round_trips():
    policy = SupervisionPolicy(max_retries=0, backoff_base_s=0.0,
                               backoff_cap_s=0.0)
    report = _fleet(workers=1, policy=policy,
                    chaos=FleetChaos.poison(1, max_retries=0))
    revived = json.loads(report.canonical_json())
    assert revived["degraded"] is True
    assert revived["missing_shards"] == [1]
    assert "supervision" not in revived       # artifact-only block
    artifact = report.artifact()
    assert artifact["supervision"]["quarantined"] == 1
    snapshot = artifact["supervision"]["snapshot"]
    assert snapshot["repro_fleet_shard_quarantined_total"]["samples"][0][
        "value"] == 1


def test_resume_skips_completed_shards_and_matches_baseline(tmp_path):
    out = str(tmp_path / "fleet")
    baseline = _fleet(workers=1, artifacts_dir=out)
    os.remove(os.path.join(out, "shard-2.json"))
    resumed = _fleet(workers=1, resume_dir=out)
    assert resumed.canonical_json() == baseline.canonical_json()
    assert resumed.supervision["resumed"] == 3
    assert resumed.supervision["resumed_shards"] == [0, 1, 3]
    counters = resumed.supervision["snapshot"]
    assert counters["repro_fleet_shard_resumed_total"]["samples"][0][
        "value"] == 3


def test_resume_rejects_foreign_fingerprint(tmp_path):
    out = str(tmp_path / "fleet")
    _fleet(workers=1, artifacts_dir=out)
    other = PopulationConfig(clients=64, seconds=1.0, loss_rate=0.02,
                             fleet_seed=6)       # different fleet seed
    with pytest.raises(ReproError, match="fingerprint"):
        run_fleet(FleetConfig(population=other, shards=4, workers=1,
                              supervision=_FAST), resume_dir=out)


def test_resume_rejects_truncated_artifact(tmp_path):
    out = tmp_path / "fleet"
    config = FleetConfig(population=_POP, shards=2, workers=1,
                         supervision=_FAST)
    run_fleet(config, artifacts_dir=str(out))
    data = json.loads((out / "shard-0.json").read_text())
    del data["gids"]                             # pre-resume-era artifact
    (out / "shard-0.json").write_text(json.dumps(data))
    with pytest.raises(ReproError, match="missing"):
        run_fleet(config, resume_dir=str(out))


def test_shard_seed_collision_guard(monkeypatch):
    from repro.evaluation import fleet as fleet_mod
    monkeypatch.setattr(fleet_mod, "shard_seed",
                        lambda fleet_seed, shard_id: 42)
    with pytest.raises(ReproError, match=r"shards \[0, 1, 2, 3\] all "
                                         r"derive seed 42"):
        _fleet(workers=1)


def test_config_fingerprint_covers_the_inputs_that_matter():
    base = FleetConfig(population=_POP, shards=4)
    same = FleetConfig(population=_POP, shards=4, workers=2,
                       supervision=SupervisionPolicy(max_retries=5))
    # Workers and supervision shape the *run*, not the numbers.
    assert config_fingerprint(base) == config_fingerprint(same)
    for other in (
            FleetConfig(population=_POP, shards=5),
            FleetConfig(population=PopulationConfig(
                clients=64, seconds=1.0, loss_rate=0.02, fleet_seed=6),
                shards=4),
            FleetConfig(population=PopulationConfig(
                clients=64, seconds=1.0, loss_rate=0.03, fleet_seed=5),
                shards=4)):
        assert config_fingerprint(base) != config_fingerprint(other)
