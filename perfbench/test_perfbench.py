"""The benchmark's own tests: every workload at a tiny sample.

    python3 -m pytest perfbench -q

Each workload goes through the same code path as a measured run, at
``sample=10``; the tests assert that every metric ``BENCHMARK.json``
names is emitted and that the correctness checks fire on corrupted
input.  They take a few minutes (every repetition is a fresh process
that builds the simulated model's oracle).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SAMPLE = 10


@pytest.fixture(autouse=True)
def _quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "MIN_READS", 10)
    monkeypatch.setenv("REPRO_STORE_DIR", str(run.WORK / "store"))
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        w for w in workloads.WORKLOADS if w not in workloads.BY_HAND]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        run.LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace):
    outcome = run.run_workload(workload, seed=3, seconds=0.1,
                               trace=trace, sample=SAMPLE)
    payload = outcome.payload()
    assert payload["correct"], outcome.problems
    assert payload["failed"] == 0 and payload["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(payload["metrics"]) == {
        metric["name"] for metric in BENCHMARK[section]}
    for metric in BENCHMARK[section]:
        assert payload["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in payload["metrics"].values())


def test_traced_run_fails_when_pools_are_built(monkeypatch):
    # With the store off, every repetition builds its pools.
    cold = dict(run.child_env(), REPRO_STORE_DIR="off")
    monkeypatch.setattr(run, "child_env", lambda: cold)
    outcome = run.run_workload("paper_grid", seed=3, seconds=0.1,
                               trace=True, sample=SAMPLE)
    assert outcome.metrics["store.builds"][0] > 0
    assert not outcome.correct
    assert any("warm store" in p for p in outcome.problems)


def _sequential(request, registry):
    from repro.runs.driver import execute_run
    return execute_run(request, registry=registry)


def _sharded(request, registry):
    from repro.dist.driver import execute_run_sharded
    return execute_run_sharded(request, workloads.SHARDS,
                               registry=registry, procs=workloads.SHARDS)


@pytest.mark.parametrize("execute", [_sequential, _sharded])
def test_ledger_check_fires_on_a_corrupted_record(execute, tmp_path):
    from repro.runs.registry import RunRegistry
    request = workloads.grid_request("paper_grid", 3, SAMPLE)
    registry = RunRegistry(tmp_path / "runs")
    result = execute(request, registry)
    ledger = registry.ledger_path(result.run_id)
    reference = checks.digest(checks.reference_lines(request))
    assert checks.digest(checks.record_lines(ledger)) == reference
    text = ledger.read_text()
    flipped = text.replace('"parsed":"yes"', '"parsed":"no"', 1)
    assert flipped != text
    ledger.write_text(flipped)
    assert checks.digest(checks.record_lines(ledger)) != reference


def test_sharded_run_fails_when_its_records_differ(monkeypatch, tmp_path):
    spawn = run.spawn

    def corrupted(spec, scratch):
        out = spawn(spec, scratch)
        out["sweeps"][0]["digest"] = "0:not-the-records"
        return out

    monkeypatch.setattr(run, "spawn", corrupted)
    outcome = run.Outcome()
    run.grid_reps("sharded_grid", 4, 0.1, SAMPLE, tmp_path, outcome,
                  trace=False)
    assert not outcome.correct
    assert any("differ from the reference" in p for p in outcome.problems)


def test_trail_is_the_only_key_dropped(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text(
        '{"event":"run-started","run_id":"r"}\n'
        '{"event":"record","cell":"c","i":0,"parsed":"yes",'
        '"trail":{"batch":1}}\n')
    assert checks.record_lines(ledger, drop_trail=True) == [
        '{"event":"record","cell":"c","i":0,"parsed":"yes"}\n']


def test_served_check_fires_on_a_wrong_body(tmp_path):
    from repro.serve import ReproServer
    root = tmp_path / "served"
    prep = run.spawn({"mode": "served_prep", "seed": 5, "sample": SAMPLE,
                      "runs_dir": str(root)}, tmp_path)
    paths = run.served_paths(prep["runs"], prep["questions"], 5)
    expected = run.expected_bodies(root, prep["runs"], paths)
    expected[paths[2][1]] = b"{}"
    server = ReproServer(root=root, port=0).start()
    try:
        reads = run.read_loop(server.port, paths, expected, 0, clients=1,
                              limit=len(paths))
    finally:
        server.close()
    outcome = run.Outcome()
    run.count_reads(reads, outcome)
    assert outcome.failed == sum(1 for p in paths if p == paths[2])
    assert not outcome.correct


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
