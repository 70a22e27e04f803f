"""The benchmark's own tests: short runs of every workload.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import workloads  # noqa: E402

# Work per unit for the short runs (tivopc clamps to its 10 s minimum).
SHORT = {"tivopc": 0.25, "offload_rpc": 0.1, "fleet": 0.1}


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds",
                     "0.5", "--trace", str(trace), "--scale",
                     str(SHORT[workload])])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert "run_record" in json.loads(lines[-2])
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    result = _result(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == run.END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_per_layer_metrics_printed_with_units(capsys, workload):
    result = _result(capsys, workload, trace=1)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} \
        == run.PER_LAYER
    layers = sum(m["value"] for name, m in metrics.items()
                 if name.endswith(".self_s"))
    assert layers == pytest.approx(metrics["bench.traced_root_s"]["value"],
                                   abs=1e-6)
    assert metrics["sim.events"]["value"] > 0
    assert 0 < metrics["bench.trace_overhead"]["value"]
    with open(os.path.join(run.OUT_DIR, f"ledger-{workload}-seed5.json"),
              encoding="utf-8") as handle:
        assert json.load(handle)["span_sample"]["spans"]


def test_planted_wrong_kv_value_counts_as_failure():
    workload = workloads.OffloadRpcWorkload(5, 0.1, plant_wrong_value=True)
    check = workload.check(workload.run_unit())
    assert check.failed > 0 and check.failed / check.attempted > 0
    clean = workloads.OffloadRpcWorkload(5, 0.1)
    assert clean.check(clean.run_unit()).failed == 0


def test_planted_failed_fleet_shard_counts_as_failure():
    workload = workloads.FleetWorkload(5, 0.1, plant_failed_shard=True)
    unit = workload.run_unit()
    assert unit.out["report"].degraded
    check = workload.check(unit)
    assert check.failed > 0 and check.failed / check.attempted > 0


def test_one_lost_stream_packet_counts_as_failure(monkeypatch):
    """The switch silently drops chunk 100 of every stream."""
    from repro.net.switch import Switch
    forward = Switch._forward

    def lossy(switch, packet):
        if packet.payload != ("chunk", 100):
            forward(switch, packet)
    monkeypatch.setattr(Switch, "_forward", lossy)
    observer = workloads.Observer()
    observer.install()
    try:
        workload = workloads.TivopcWorkload(5, 0.25, observer=observer)
        check = workload.check(workload.run_unit())
    finally:
        observer.uninstall()
    assert check.failed == len(workload.STREAMING)
    assert all("packets lost or phantom" in p for p in check.problems)


def test_changed_counters_refuse_to_report():
    workload = workloads.OffloadRpcWorkload(5, 0.1)
    first, second = workload.run_unit(), workload.run_unit()
    assert run.determinism_problems(workload, [first, second]) == []
    second.counters["sim.events"] += 1
    assert run.determinism_problems(workload, [first, second])


def test_layer_self_times_sum_to_root():
    from ledger import Ledger
    ledger = Ledger()
    ledger.install()
    try:
        workloads.OffloadRpcWorkload(5, 0.1).traced_unit(ledger)
    finally:
        ledger.uninstall()
    traced = ledger.result
    assert sum(traced.self_ns.values()) == traced.root_ns
    layers = traced.layer_self_s()
    assert layers["core"] > 0 and layers["rdma"] > 0 and layers["sim"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
