"""Tests for repro.dist: planning, sharded execution, merge, gc.

The heart of the suite is the determinism contract: a sharded run —
at any worker count, including one crashed and resumed mid-shard —
merges into a ledger whose record/cell event lines are byte-identical
to a single-process run of the same request.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import driver as dist_driver
from repro.dist.worker import replay_shard
from repro.engine.cache import ResponseCache, merge_caches
from repro.engine.telemetry import EngineStats
from repro.errors import LedgerCorruptError, RunError
from repro.llm.registry import get_model
from repro.obs.export import read_spans_jsonl
from repro.runs import ledger as run_ledger
from repro.runs import (RunRegistry, RunRequest, create_run,
                        execute_run, load_run, resume_run)
from repro.runs.driver import CellKey
from repro.dist import (execute_run_sharded, gc_runs, load_shard_plan,
                        merge_run, merge_shard_caches, merge_stats,
                        plan_shards, render_shard_dashboard,
                        resume_run_sharded, run_shard, shard_statuses,
                        sharded_run_status)
from repro.cli import main

SMALL = dict(dataset="mcq", models=("GPT-4", "LLMs4OL"),
             taxonomy_keys=("ebay", "glottolog"),
             settings=("zero-shot",), sample_size=6, seed="dist")


@pytest.fixture()
def registry(tmp_path) -> RunRegistry:
    return RunRegistry(tmp_path / "runs")


def _events(registry: RunRegistry, run_id: str,
            drop_trail: bool = False) -> list[str]:
    """The determinism-contract slice of a run's ledger lines
    (``drop_trail`` strips the trails, whose placement fields vary
    with an engine's scheduling)."""
    lines = registry.ledger_path(run_id).read_text(
        encoding="utf-8").splitlines()
    kept = []
    for line in lines:
        payload = json.loads(line)
        if payload.get("event") not in ("record", "cell-started",
                                        "cell-finished"):
            continue
        if drop_trail and payload.pop("trail", None) is not None:
            line = json.dumps(payload, separators=(",", ":"))
        kept.append(line)
    return kept


class _BudgetedModel:
    """Wraps a model; raises once a shared call budget is spent."""

    def __init__(self, inner, counter, lock):
        self.inner = inner
        self.name = inner.name
        self._counter = counter
        self._lock = lock

    def generate(self, prompt: str) -> str:
        with self._lock:
            if self._counter["budget"] <= 0:
                raise RuntimeError("injected crash")
            self._counter["budget"] -= 1
        return self.inner.generate(prompt)


def budgeted_resolver(budget: int):
    counter = {"budget": budget}
    lock = threading.Lock()

    def resolve(name: str):
        return _BudgetedModel(get_model(name), counter, lock)

    return resolve


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_plan_is_disjoint_exact_cover(self):
        request = RunRequest(**SMALL)
        plan = plan_shards(request, 4)
        assert plan.num_shards == 4
        covered = {cell_id: set() for cell_id, _ in plan.cells}
        for task in plan.tasks():
            indices = set(task.indices)
            assert not covered[task.cell.cell_id] & indices
            covered[task.cell.cell_id] |= indices
        for cell_id, n in plan.cells:
            assert covered[cell_id] == set(range(n))

    def test_plan_is_balanced(self):
        plan = plan_shards(RunRequest(**SMALL), 4)
        sizes = [plan.shard_questions(i) for i in range(4)]
        assert sum(sizes) == plan.total_questions
        assert min(sizes) > 0

    def test_plan_is_pure_function_of_request(self):
        a = plan_shards(RunRequest(**SMALL), 3)
        b = plan_shards(RunRequest(**SMALL), 3)
        assert a.to_dict() == b.to_dict()

    def test_more_shards_than_questions(self):
        request = RunRequest(dataset="mcq", models=("GPT-4",),
                             taxonomy_keys=("ebay",),
                             settings=("zero-shot",), sample_size=2,
                             seed="tiny")
        plan = plan_shards(request, 64)
        assert plan.num_shards == 64
        covered = {cell_id: set() for cell_id, _ in plan.cells}
        for task in plan.tasks():
            covered[task.cell.cell_id] |= set(task.indices)
        for cell_id, n in plan.cells:
            assert covered[cell_id] == set(range(n))

    def test_round_trip_through_registry(self, registry):
        from repro.dist import save_shard_plan
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=8)
        plan = plan_shards(request, 3)
        save_shard_plan(registry, run_id, plan)
        assert registry.shard_count(run_id) == 3
        assert load_shard_plan(registry, run_id).to_dict() \
            == plan.to_dict()

    def test_load_without_plan_raises(self, registry):
        run_id = registry.create(RunRequest(**SMALL), cells=8)
        assert registry.shard_count(run_id) == 0
        with pytest.raises(RunError, match="no shard plan"):
            load_shard_plan(registry, run_id)

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(RunError, match="shards must be >= 1"):
            plan_shards(RunRequest(**SMALL), 0)
        with pytest.raises(RunError, match="shards must be >= 1"):
            execute_run_sharded(RunRequest(**SMALL), 0)


# ----------------------------------------------------------------------
# Sharded execution == single-process execution
# ----------------------------------------------------------------------
class TestShardedDeterminism:
    @pytest.mark.parametrize("shape, drop_trail", [
        ({}, False),
        ({"trail": True}, False),
        ({"workers": 2, "batch_size": 4, "coalesce": True,
          "trail": True}, True),
    ], ids=["plain", "trail", "engine"])
    def test_inline_shards_match_single_process(self, registry, shape,
                                                drop_trail):
        single = execute_run(
            RunRequest(**SMALL, trail=shape.get("trail", False)),
            registry=registry)
        sharded = execute_run_sharded(RunRequest(**SMALL, **shape),
                                      shards=4, registry=registry,
                                      procs=0)
        assert sharded.run_id != single.run_id
        assert _events(registry, sharded.run_id, drop_trail) \
            == _events(registry, single.run_id, drop_trail)
        assert sharded.cells.keys() == single.cells.keys()
        for key, expected in single.cells.items():
            got = sharded.cells[key]
            assert got.metrics == expected.metrics
            assert got.records == expected.records
        assert sharded.evaluated == single.evaluated
        assert registry.summary(sharded.run_id).status == "finished"
        assert registry.summary(sharded.run_id).shards == 4

    def test_process_pool_shards_match_single_process(self, registry):
        request = RunRequest(**SMALL)
        single = execute_run(request, registry=registry)
        sharded = execute_run_sharded(request, shards=2,
                                      registry=registry, procs=2)
        assert _events(registry, sharded.run_id) \
            == _events(registry, single.run_id)
        assert sharded.evaluated == single.evaluated

    def test_merged_spans_have_single_root(self, registry):
        sharded = execute_run_sharded(RunRequest(**SMALL), shards=3,
                                      registry=registry, procs=0)
        spans = read_spans_jsonl(registry.spans_path(sharded.run_id))
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == 1
        assert roots[0].name == "run"
        assert roots[0].attrs["merged"] is True
        assert roots[0].attrs["shards"] == 3
        assert sum(1 for span in spans if span.name == "shard") == 3

    def test_sharded_run_loads_back(self, registry):
        sharded = execute_run_sharded(RunRequest(**SMALL), shards=2,
                                      registry=registry, procs=0)
        loaded = load_run(sharded.run_id, registry=registry)
        assert loaded.cells.keys() == sharded.cells.keys()
        for key, expected in sharded.cells.items():
            assert loaded.cells[key].metrics == expected.metrics

    def test_history_records_shard_fanout(self, registry):
        from repro.obs import read_history
        sharded = execute_run_sharded(RunRequest(**SMALL), shards=2,
                                      registry=registry, procs=0)
        entries = [entry for entry in read_history(registry)
                   if entry.run_id == sharded.run_id]
        assert entries and entries[-1].shards == 2


class TestMergeStats:
    """The merge keeps every counter: each field sums, except seven."""

    QUANTILES = ("latency_p50_s", "latency_p90_s", "latency_p99_s")

    @staticmethod
    def _stats(start: int) -> EngineStats:
        # Every field a different value, in both shards.
        return EngineStats(**{
            field.name: (float(start + index) if field.type == "float"
                         else start + index)
            for index, field in enumerate(fields(EngineStats))})

    def test_every_field_sums_except_seven(self):
        a, b = self._stats(1), self._stats(40)
        merged = merge_stats([a, b])
        records = a.records + b.records
        for field in fields(EngineStats):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name in self.QUANTILES:
                expected = (x * a.records + y * b.records) / records
            elif field.name in ("wall_time_s", "adaptive_high_water",
                                "latency_max_s"):
                expected = max(x, y)
            elif field.name == "latency_min_s":
                expected = min(x, y)
            else:
                expected = x + y
            assert getattr(merged, field.name) == pytest.approx(
                expected), field.name

    def test_batched_sharded_run_records_its_shards_batches(
            self, registry, capsys):
        from repro.obs import read_history
        request = RunRequest(**SMALL, workers=2, batch_size=4)
        run_id = execute_run_sharded(request, shards=2,
                                     registry=registry,
                                     procs=0).run_id
        shard_batches = []
        for shard in range(2):
            for line in registry.shard_ledger_path(
                    run_id, shard).read_text("utf-8").splitlines():
                event = json.loads(line)
                if event["event"] == "shard-finished":
                    shard_batches.append(event["stats"]["batches"])
        assert len(shard_batches) == 2
        batches = sum(shard_batches)
        assert batches > 0
        assert registry.state(run_id).stats["batches"] == batches
        entry = [entry for entry in read_history(registry)
                 if entry.run_id == run_id][-1]
        assert entry.batches == batches
        assert main(["runs", "show", run_id, "--json",
                     "--runs-dir", str(registry.root)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["stats"]["batches"] == batches


# ----------------------------------------------------------------------
# Crash / resume
# ----------------------------------------------------------------------
def _crash(request: RunRequest, registry: RunRegistry,
           shards: int) -> str:
    """Kill a run of ``request`` 13 model calls in, single-process
    (``shards=0``) or sharded; returns its id."""
    run_id = create_run(request, registry=registry)
    if shards:
        with pytest.raises(RunError, match="shard"):
            execute_run_sharded(request, shards=shards,
                                registry=registry, run_id=run_id,
                                procs=0,
                                resolve_model=budgeted_resolver(13))
    else:
        with pytest.raises(RuntimeError, match="injected crash"):
            execute_run(request, registry=registry, run_id=run_id,
                        resolve_model=budgeted_resolver(13))
    return run_id


def _resume(registry: RunRegistry, run_id: str, shards: int):
    if shards:
        return resume_run_sharded(run_id, registry=registry, procs=0)
    return resume_run(run_id, registry=registry)


class TestCrashResume:
    def test_killed_worker_resumes_bit_identical(self, registry):
        request = RunRequest(**SMALL)
        single = execute_run(request, registry=registry)
        with pytest.raises(RunError, match="shard") as excinfo:
            execute_run_sharded(request, shards=4, registry=registry,
                                procs=0,
                                resolve_model=budgeted_resolver(13))
        assert "resume" in str(excinfo.value)
        run_id = [rid for rid in registry.list_ids()
                  if rid != single.run_id][0]
        # the durable partial state refuses to merge...
        with pytest.raises(RunError, match="cannot be merged yet"):
            merge_run(run_id, registry=registry)
        # ...and resume completes it to the single-process bytes.
        resumed = resume_run_sharded(run_id, registry=registry,
                                     procs=0)
        assert _events(registry, run_id) \
            == _events(registry, single.run_id)
        assert resumed.evaluated + resumed.replayed \
            == sum(len(result.records)
                   for result in single.cells.values())
        assert resumed.evaluated > 0       # fresh work happened
        assert resumed.replayed > 0        # durable work was reused

    @pytest.mark.parametrize("shards", [0, 2],
                             ids=["single", "sharded"])
    def test_resume_after_torn_appends_matches_single_process(
            self, registry, shards):
        request = RunRequest(**SMALL)
        single = execute_run(request, registry=registry)
        record = next(line for line in _events(registry, single.run_id)
                      if '"event":"record"' in line)
        run_id = _crash(request, registry, shards)
        logs = ([(registry.ledger_path(run_id),
                  registry.spans_path(run_id))] if not shards else
                [(registry.shard_ledger_path(run_id, shard),
                  registry.shard_spans_path(run_id, shard))
                 for shard in range(shards)])
        # A kill mid-append leaves half a line at the end of each log.
        for ledger, spans in logs:
            span = spans.read_text(encoding="utf-8").splitlines()[-1]
            for path, line in ((ledger, record), (spans, span)):
                with open(path, "a", encoding="utf-8") as stream:
                    stream.write(line[:len(line) // 2])
        _resume(registry, run_id, shards)
        if shards:      # a single-process ledger keeps both attempts
            assert _events(registry, run_id) \
                == _events(registry, single.run_id)
        loaded = load_run(run_id, registry=registry)
        assert loaded.cells.keys() == single.cells.keys()
        for key, expected in single.cells.items():
            assert loaded.cells[key].metrics == expected.metrics
            assert loaded.cells[key].records == expected.records
        assert read_spans_jsonl(registry.spans_path(run_id))

    @pytest.mark.parametrize("shards", [0, 2],
                             ids=["single", "sharded"])
    def test_resumed_span_ids_are_distinct_and_nested(self, registry,
                                                      shards):
        run_id = _crash(RunRequest(**SMALL), registry, shards)
        _resume(registry, run_id, shards)
        spans = read_spans_jsonl(registry.spans_path(run_id))
        by_id = {span.span_id: span for span in spans}
        assert len(by_id) == len(spans)
        questions = [span for span in spans if span.name == "question"]
        assert questions
        for span in questions:
            cell = by_id[span.parent_id]
            assert cell.name == "cell"
            assert cell.start_s <= span.start_s <= span.end_s \
                <= cell.end_s

    def test_resume_of_finished_run_is_pure_replay(self, registry):
        request = RunRequest(**SMALL)
        sharded = execute_run_sharded(request, shards=2,
                                      registry=registry, procs=0)
        before = _events(registry, sharded.run_id)
        again = resume_run_sharded(sharded.run_id, registry=registry,
                                   procs=0)
        assert again.evaluated == 0
        assert _events(registry, sharded.run_id) == before

    def test_merge_is_idempotent_and_forceable(self, registry):
        sharded = execute_run_sharded(RunRequest(**SMALL), shards=2,
                                      registry=registry, procs=0)
        before = _events(registry, sharded.run_id)
        merged = merge_run(sharded.run_id, registry=registry)
        assert merged.evaluated == 0       # pure load, no re-merge
        forced = merge_run(sharded.run_id, registry=registry,
                           force=True)
        assert _events(registry, sharded.run_id) == before
        assert forced.cells.keys() == sharded.cells.keys()


# ----------------------------------------------------------------------
# Hand-back: the parent merges the states its shards return
# ----------------------------------------------------------------------
def _no_model(name: str):
    """A model resolver (module level, so it pickles) that fails."""
    raise RuntimeError(f"no model {name}")


def _cells(state) -> dict:
    return {cell_id: (cell.expected_n, cell.records)
            for cell_id, cell in state.cells.items()}


@pytest.fixture(scope="module")
def fresh_roots(tmp_path_factory):
    """A fresh runs root per call, all under one directory: removing a
    directory per hypothesis example is slow on some mounts."""
    directory = tmp_path_factory.mktemp("hand-back")
    numbers = itertools.count()
    return lambda: RunRegistry(directory / f"runs-{next(numbers)}")


class TestHandBack:
    @staticmethod
    def _handed_back(call, *args, **kwargs) -> list:
        """Run ``call`` and return the shard states it merged."""
        states = []
        real = dist_driver.merge_run

        def spy(*spy_args, _states=None, **spy_kwargs):
            states.extend(_states)
            return real(*spy_args, _states=_states, **spy_kwargs)

        with mock.patch.object(dist_driver, "merge_run", spy):
            call(*args, **kwargs)
        return states

    @staticmethod
    def _assert_replays(registry: RunRegistry, run_id: str,
                        state) -> None:
        replayed = replay_shard(
            registry.shard_ledger_path(run_id, state.shard), state.shard)
        assert _cells(state) == _cells(replayed)
        assert state.lines == replayed.lines
        assert (state.attempts, state.finished, state.stats) \
            == (replayed.attempts, replayed.finished, replayed.stats)

    @settings(max_examples=16, deadline=None)
    @given(trail=st.booleans(), procs=st.sampled_from([0, 2]),
           crash_at=st.one_of(st.none(), st.integers(0, 83)))
    def test_handed_back_state_is_the_replayed_ledger(
            self, fresh_roots, trail, procs, crash_at):
        registry = fresh_roots()
        request = RunRequest(**SMALL, trail=trail)
        if crash_at is None:
            states = self._handed_back(
                execute_run_sharded, request, shards=2,
                registry=registry, procs=procs)
            run_id = registry.list_ids()[0]
            assert [state.attempts for state in states] == [1, 1]
        else:
            # Killed at a random record (inline: the budgeted resolver
            # does not pickle), then resumed at ``procs``: a shard that
            # finished before the kill is re-entered as a replay.
            run_id = create_run(request, registry=registry)
            with pytest.raises(RunError, match="shard"):
                execute_run_sharded(
                    request, shards=2, registry=registry,
                    run_id=run_id, procs=0,
                    resolve_model=budgeted_resolver(crash_at))
            states = self._handed_back(resume_run_sharded, run_id,
                                       registry=registry, procs=procs)
        assert [state.shard for state in states] == [0, 1]
        for state in states:
            self._assert_replays(registry, run_id, state)
        # Re-entering a finished shard hands back its replay.
        plan = load_shard_plan(registry, run_id)
        for shard in range(plan.num_shards):
            again = run_shard(run_id, shard, registry=registry,
                              plan=plan)
            assert again.evaluated == 0
            self._assert_replays(registry, run_id, again.state)

    def test_parent_folds_no_shard_ledger(self, registry):
        folded = []
        real = run_ledger.fold_jsonl

        def spy(path, *args, **kwargs):
            if "shards" in Path(path).parts:
                folded.append(path)
            return real(path, *args, **kwargs)

        request = RunRequest(**SMALL)
        run_id = create_run(request, registry=registry)
        with pytest.raises(RunError, match="shard"):
            execute_run_sharded(request, shards=2, registry=registry,
                                run_id=run_id, procs=0,
                                resolve_model=budgeted_resolver(50))
        with mock.patch.object(run_ledger, "fold_jsonl", spy):
            resume_run_sharded(run_id, registry=registry, procs=2)
            execute_run_sharded(request, shards=2, registry=registry,
                                procs=2)
            assert folded == []
            merge_run(run_id, registry=registry, force=True)
        assert sorted(folded) == [registry.shard_ledger_path(run_id, 0),
                                  registry.shard_ledger_path(run_id, 1)]

    def test_pool_forks_from_a_frozen_heap_and_thaws_it(self, registry):
        frozen = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                frozen.append(gc.get_freeze_count())
                super().__init__(*args, **kwargs)

        request = RunRequest(**SMALL)
        with mock.patch.object(dist_driver, "ProcessPoolExecutor", Pool):
            execute_run_sharded(request, shards=2, registry=registry,
                                procs=2)
            assert gc.get_freeze_count() == 0
            with pytest.raises(RunError, match="no model"):
                execute_run_sharded(request, shards=2,
                                    registry=registry, procs=2,
                                    resolve_model=_no_model)
            assert gc.get_freeze_count() == 0
        assert len(frozen) == 2 and min(frozen) > 0


# ----------------------------------------------------------------------
# Status aggregation
# ----------------------------------------------------------------------
class TestShardStatus:
    def test_pending_then_finished(self, registry):
        from repro.dist import save_shard_plan
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=4)
        plan = plan_shards(request, 2)
        save_shard_plan(registry, run_id, plan)
        statuses = shard_statuses(run_id, registry=registry)
        assert [s.status for s in statuses] == ["pending", "pending"]
        assert sharded_run_status(run_id, registry=registry) \
            == "crashed"
        run_shard(run_id, 0, registry=registry, plan=plan)
        statuses = shard_statuses(run_id, registry=registry)
        assert statuses[0].status == "finished"
        assert statuses[1].status == "pending"
        run_shard(run_id, 1, registry=registry, plan=plan)
        assert sharded_run_status(run_id, registry=registry) \
            == "unmerged"
        assert registry.summary(run_id).status == "unmerged"
        dashboard = render_shard_dashboard(
            run_id, shard_statuses(run_id, registry=registry))
        assert "repro runs merge" in dashboard
        merge_run(run_id, registry=registry)
        assert registry.summary(run_id).status == "finished"

    def test_gc_leaves_merged_shards_finished(self, registry, capsys):
        request = RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                             sample_size=6)
        run_id = execute_run_sharded(request, 2, registry=registry,
                                     procs=0).run_id
        runs_dir = ["--runs-dir", str(registry.root)]

        def shown() -> tuple[list, str]:
            assert main(["runs", "show", run_id, "--json"]
                        + runs_dir) == 0
            rows = json.loads(capsys.readouterr().out)["shards"]
            assert main(["runs", "show", run_id] + runs_dir) == 0
            return rows, capsys.readouterr().out

        rows, text = shown()
        assert [(row["status"], row["questions_done"],
                 row["questions_total"], row["attempts"])
                for row in rows] == [("finished", 12, 12, 1)] * 2
        report = gc_runs(registry, min_age_s=0)
        assert [c.reason for c in report.removed] == ["merged-shards"]
        assert not registry.shards_dir(run_id).exists()
        # The merge proved exact cover: a pruned shard stays finished,
        # with the merged ledger's attempt.
        assert shown() == (rows, text)
        assert "pending" not in text
        assert registry.summary(run_id).status == "finished"

    def test_each_status_comes_from_the_shard_started_pid(
            self, registry, killed_attempt):
        from repro.dist import save_shard_plan
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=8)
        plan = plan_shards(request, 2)
        save_shard_plan(registry, run_id, plan)

        def status(shard: int) -> str:
            return shard_statuses(run_id, registry=registry)[shard].status

        assert [status(0), status(1)] == ["pending", "pending"]
        run_shard(run_id, 0, registry=registry, plan=plan)
        assert status(0) == "finished"
        # Shard 1's worker dies: its shard-started pid is gone.
        dead = killed_attempt(registry, run_id, answers=4, shard=1)
        shard_ledger = registry.shard_ledger_path(run_id, 1)
        assert replay_shard(shard_ledger, 1).pid == dead
        assert status(1) == "crashed"
        assert sharded_run_status(run_id, registry=registry) == "crashed"
        # An attempt in this process, killed by an exception: its
        # shard-started pid is alive.
        with pytest.raises(RuntimeError):
            run_shard(run_id, 1, registry=registry, plan=plan,
                      resolve_model=budgeted_resolver(1))
        assert replay_shard(shard_ledger, 1).pid == os.getpid()
        assert status(1) == "running"
        assert sharded_run_status(run_id, registry=registry) == "running"
        run_shard(run_id, 1, registry=registry, plan=plan)
        assert status(1) == "finished"
        assert sharded_run_status(run_id, registry=registry) \
            == "unmerged"

    def test_questions_done_tracks_progress(self, registry):
        from repro.dist import save_shard_plan
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=8)
        plan = plan_shards(request, 2)
        save_shard_plan(registry, run_id, plan)
        run_shard(run_id, 0, registry=registry, plan=plan)
        statuses = shard_statuses(run_id, registry=registry)
        assert statuses[0].questions_done \
            == plan.shard_questions(0)
        assert statuses[1].questions_done == 0


# ----------------------------------------------------------------------
# Registry hardening (satellite)
# ----------------------------------------------------------------------
class TestRegistryHardening:
    def test_orphan_dir_is_skipped_not_fatal(self, registry):
        good = execute_run(RunRequest(**SMALL), registry=registry)
        (registry.root / "half-created-run").mkdir(parents=True)
        ids = registry.list_ids()
        assert good.run_id in ids
        assert "half-created-run" not in ids
        assert [p.name for p in registry.orphan_dirs()] \
            == ["half-created-run"]
        assert [s.run_id for s in registry.list_runs()] \
            == [good.run_id]

    def test_corrupt_manifest_is_flagged_not_fatal(self, registry):
        good = execute_run(RunRequest(**SMALL), registry=registry)
        bad_dir = registry.root / "corrupt-run"
        bad_dir.mkdir(parents=True)
        registry.manifest_path("corrupt-run").write_text(
            "{not json", encoding="utf-8")
        summaries = {s.run_id: s for s in registry.list_runs()}
        assert summaries[good.run_id].status == "finished"
        assert summaries["corrupt-run"].status == "invalid"
        assert summaries["corrupt-run"].dataset == "?"


# ----------------------------------------------------------------------
# Cache merge (satellite)
# ----------------------------------------------------------------------
class TestCacheMerge:
    def test_merge_caches_first_writer_wins(self):
        a, b = ResponseCache(), ResponseCache()
        a.put("m", "p1", "from-a")
        b.put("m", "p1", "from-b")
        b.put("m", "p2", "only-b")
        merged = merge_caches([a, b])
        assert merged.get("m", "p1") == "from-a"
        assert merged.get("m", "p2") == "only-b"

    def test_merge_respects_capacity(self):
        a = ResponseCache()
        for i in range(10):
            a.put("m", f"p{i}", f"r{i}")
        merged = merge_caches([a], capacity=4)
        assert len(merged.entries()) == 4

    def test_sharded_run_folds_shard_caches(self, registry,
                                            tmp_path):
        cache_path = tmp_path / "shared-cache.json"
        request = RunRequest(**SMALL, workers=2)
        sharded = execute_run_sharded(
            request, shards=2, registry=registry, procs=0,
            cache_path=str(cache_path))
        assert cache_path.exists()
        merged = ResponseCache.load(cache_path)
        assert len(merged.entries()) > 0
        for shard in range(2):
            shard_cache = registry.shard_cache_path(
                sharded.run_id, shard)
            assert shard_cache.exists()
        again = merge_shard_caches(sharded.run_id, registry=registry,
                                   target=str(cache_path))
        assert len(again.entries()) == len(merged.entries())


# ----------------------------------------------------------------------
# Garbage collection (satellite)
# ----------------------------------------------------------------------
class TestGc:
    def test_dry_run_reports_without_deleting(self, registry):
        sharded = execute_run_sharded(RunRequest(**SMALL), shards=2,
                                      registry=registry, procs=0)
        shards_dir = registry.shards_dir(sharded.run_id)
        report = gc_runs(registry=registry, dry_run=True,
                         min_age_s=0.0)
        assert report.dry_run
        assert [c.reason for c in report.removed] == ["merged-shards"]
        assert report.bytes_reclaimed > 0
        assert shards_dir.is_dir()

    def test_gc_prunes_merged_shards_and_orphans(self, registry):
        sharded = execute_run_sharded(RunRequest(**SMALL), shards=2,
                                      registry=registry, procs=0)
        orphan = registry.root / "dead-create"
        orphan.mkdir(parents=True)
        (orphan / "junk.bin").write_bytes(b"x" * 64)
        stale = registry.run_dir(sharded.run_id) / "merge.ledger.tmp"
        stale.write_text("torn", encoding="utf-8")
        report = gc_runs(registry=registry, min_age_s=0.0)
        reasons = sorted(c.reason for c in report.removed)
        assert reasons == ["merged-shards", "orphan-run", "stale-tmp"]
        assert not registry.shards_dir(sharded.run_id).exists()
        assert not orphan.exists()
        assert not stale.exists()
        # the merged run itself is untouched and still loads
        assert load_run(sharded.run_id, registry=registry)

    def test_gc_never_touches_unmerged_shards(self, registry):
        from repro.dist import save_shard_plan
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=8)
        plan = plan_shards(request, 2)
        save_shard_plan(registry, run_id, plan)
        run_shard(run_id, 0, registry=registry, plan=plan)
        report = gc_runs(registry=registry, min_age_s=0.0)
        assert report.removed == ()
        assert registry.shards_dir(run_id).is_dir()

    def test_min_age_protects_fresh_debris(self, registry):
        orphan = registry.root / "fresh-create"
        orphan.mkdir(parents=True)
        report = gc_runs(registry=registry, min_age_s=3600.0)
        assert report.removed == ()
        assert orphan.exists()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliDist:
    def _run(self, capsys, *argv):
        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    def test_sharded_run_then_inspect_merge_gc(self, capsys,
                                               tmp_path):
        runs_dir = str(tmp_path / "runs")
        out = self._run(capsys, "run", "--dataset", "mcq",
                        "--models", "GPT-4", "--taxonomies", "ebay",
                        "--sample", "6", "--seed", "cli",
                        "--shards", "2", "--local-procs", "0",
                        "--runs-dir", runs_dir)
        assert "Sharded run (x2)" in out
        run_id = RunRegistry(runs_dir).list_ids()[0]

        out = self._run(capsys, "runs", "list", "--runs-dir",
                        runs_dir)
        assert "shards" in out and "finished" in out

        out = self._run(capsys, "runs", "show", run_id,
                        "--runs-dir", runs_dir)
        assert "Shards (x2)" in out

        out = self._run(capsys, "watch", run_id, "--once",
                        "--runs-dir", runs_dir)
        assert run_id in out

        out = self._run(capsys, "runs", "merge", run_id,
                        "--runs-dir", runs_dir)
        assert f"Merged run {run_id}" in out

        out = self._run(capsys, "runs", "gc", "--dry-run",
                        "--min-age", "0", "--json",
                        "--runs-dir", runs_dir)
        report = json.loads(out)
        assert report["dry_run"] is True
        assert any(c["reason"] == "merged-shards"
                   for c in report["removed"])

    def test_watch_once_on_unmerged_run_shows_shards(self, capsys,
                                                     tmp_path):
        from repro.dist import save_shard_plan
        registry = RunRegistry(tmp_path / "runs")
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=8)
        plan = plan_shards(request, 2)
        save_shard_plan(registry, run_id, plan)
        run_shard(run_id, 0, registry=registry, plan=plan)
        out = self._run(capsys, "watch", run_id, "--once",
                        "--runs-dir", str(tmp_path / "runs"))
        assert "[sharded x2]" in out
        out = self._run(capsys, "watch", run_id, "--once", "--json",
                        "--runs-dir", str(tmp_path / "runs"))
        statuses = json.loads(out)
        assert [s["shard"] for s in statuses] == [0, 1]

    def test_cli_resume_routes_to_sharded(self, capsys, tmp_path):
        from repro.dist import save_shard_plan
        registry = RunRegistry(tmp_path / "runs")
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=8)
        plan = plan_shards(request, 2)
        save_shard_plan(registry, run_id, plan)
        run_shard(run_id, 0, registry=registry, plan=plan)
        out = self._run(capsys, "runs", "resume", run_id,
                        "--local-procs", "0",
                        "--runs-dir", str(tmp_path / "runs"))
        assert f"Resumed sharded run {run_id}" in out
        assert registry.summary(run_id).status == "finished"


# ----------------------------------------------------------------------
# Cross-cell integrity checks in the merge
# ----------------------------------------------------------------------
class TestMergeValidation:
    @staticmethod
    def _unmerged(registry: RunRegistry) -> str:
        """A 2-shard run whose shards finished but were not merged."""
        from repro.dist import save_shard_plan
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=8)
        plan = plan_shards(request, 2)
        save_shard_plan(registry, run_id, plan)
        for shard in range(2):
            run_shard(run_id, shard, registry=registry, plan=plan)
        return run_id

    @staticmethod
    def _lines(path) -> list[str]:
        return path.read_text(encoding="utf-8").splitlines(
            keepends=True)

    @staticmethod
    def _first_record(lines: list[str]) -> tuple[int, dict]:
        return next((number, json.loads(line))
                    for number, line in enumerate(lines)
                    if '"event":"record"' in line)

    def test_cell_outside_the_plan_is_refused(self, registry):
        run_id = self._unmerged(registry)
        ledger = registry.shard_ledger_path(run_id, 0)
        _, event = self._first_record(self._lines(ledger))
        event["cell"] = "hard|GPT-4|nowhere|zero-shot"
        with open(ledger, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(event) + "\n")
        with pytest.raises(RunError, match="not in the shard plan"):
            merge_run(run_id, registry=registry)

    def test_conflicting_shard_records_are_refused(self, registry):
        run_id = self._unmerged(registry)
        _, event = self._first_record(
            self._lines(registry.shard_ledger_path(run_id, 0)))
        event["response"] += " (answered differently)"
        with open(registry.shard_ledger_path(run_id, 1), "a",
                  encoding="utf-8") as stream:
            stream.write(json.dumps(event) + "\n")
        with pytest.raises(RunError, match="conflicting records"):
            merge_run(run_id, registry=registry)
        assert not registry.state(run_id).finished

    def test_corrupt_middle_shard_line_is_refused(self, registry):
        run_id = self._unmerged(registry)
        ledger = registry.shard_ledger_path(run_id, 1)
        lines = self._lines(ledger)
        lines.insert(len(lines) // 2, "{not json\n")
        ledger.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(LedgerCorruptError):
            merge_run(run_id, registry=registry)

    def test_torn_only_copy_of_a_record_is_a_hole(self, registry):
        run_id = self._unmerged(registry)
        ledger = registry.shard_ledger_path(run_id, 0)
        lines = self._lines(ledger)
        number, event = self._first_record(lines)
        torn = lines.pop(number)
        ledger.write_text("".join(lines) + torn[:len(torn) // 2],
                          encoding="utf-8")
        with pytest.raises(RunError, match="cannot be merged yet") \
                as excinfo:
            merge_run(run_id, registry=registry)
        assert f"{event['cell']} (missing 1 of" in str(excinfo.value)

    def test_torn_shard_span_tail_stays_out_of_merged_log(self,
                                                          registry):
        run_id = self._unmerged(registry)
        logs = [registry.shard_spans_path(run_id, shard)
                for shard in range(2)]
        complete = sum(len(self._lines(path)) for path in logs)
        with open(logs[0], "a", encoding="utf-8") as stream:
            stream.write('{"name":"question","id":')
        merge_run(run_id, registry=registry)
        spans = read_spans_jsonl(registry.spans_path(run_id))
        assert len(spans) == complete + 1
        assert spans[-1].name == "run"

    def test_garbled_span_line_does_not_abort_merge(self, registry):
        from repro.obs import read_history
        run_id = self._unmerged(registry)
        spans = registry.shard_spans_path(run_id, 0)
        lines = self._lines(spans)
        lines.insert(1, "{garbled\n")
        spans.write_text("".join(lines), encoding="utf-8")
        merge_run(run_id, registry=registry)
        assert registry.state(run_id).finished
        assert any(entry.run_id == run_id
                   for entry in read_history(registry))
        with pytest.raises(ValueError,
                           match="corrupt span log .* at line 2"):
            main(["obs", "trace", run_id,
                  "--runs-dir", str(registry.root)])

    def test_plan_size_mismatch_detected(self, registry):
        from repro.dist import save_shard_plan
        request = RunRequest(**SMALL)
        run_id = registry.create(request, cells=8)
        plan = plan_shards(request, 2)
        save_shard_plan(registry, run_id, plan)
        run_shard(run_id, 0, registry=registry, plan=plan)
        run_shard(run_id, 1, registry=registry, plan=plan)
        # corrupt the persisted plan: shrink one cell's n
        payload = plan.to_dict()
        payload["cells"][0]["n"] += 5
        registry.shard_plan_path(run_id).write_text(
            json.dumps(payload), encoding="utf-8")
        with pytest.raises(RunError):
            merge_run(run_id, registry=registry)

    def test_cell_key_parse_round_trips_plan_cells(self):
        plan = plan_shards(RunRequest(**SMALL), 2)
        for cell_id, _ in plan.cells:
            key = CellKey.parse(cell_id)
            assert key is not None
            assert key.cell_id == cell_id
