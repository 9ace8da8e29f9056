"""Tests for repro.runs.session: the one run-session setup and the
engine-selection rule shared by execute, resume and shard attempts."""

from __future__ import annotations

import json
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.cache import ResponseCache
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import EngineStats
from repro.errors import RunError
from repro.llm.registry import get_model
from repro.obs.cost import usd_to_nanos
from repro.obs.export import read_spans_jsonl
from repro.obs.history import read_history
from repro.obs.jsonl import iter_jsonl
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runs import (RunRegistry, RunRequest, create_run,
                        execute_run, resume_run)
from repro.runs.session import RunSession, engine_for

SMALL = dict(models=("GPT-4",), taxonomy_keys=("ebay",), sample_size=8)


@pytest.fixture()
def registry(tmp_path) -> RunRegistry:
    return RunRegistry(tmp_path / "runs")


def crash_after(budget: int):
    """A resolver whose models raise once ``budget`` calls are spent."""
    counter = {"left": budget}
    lock = threading.Lock()

    class Crashing:
        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name

        def generate(self, prompt: str) -> str:
            with lock:
                if counter["left"] <= 0:
                    raise RuntimeError("injected crash")
                counter["left"] -= 1
            return self.inner.generate(prompt)

    return lambda name: Crashing(get_model(name))


def ledger_events(registry: RunRegistry, run_id: str,
                  kind: str) -> list[dict]:
    return [event for _, event in
            iter_jsonl(registry.ledger_path(run_id)).records
            if event["event"] == kind]


# ----------------------------------------------------------------------
# The engine-selection rule
# ----------------------------------------------------------------------
class TestEngineFor:
    def test_paper_shape_runs_the_sequential_loop(self):
        assert engine_for(RunRequest(**SMALL)) is None

    @pytest.mark.parametrize("shape", [dict(workers=2),
                                       dict(batch_size=4),
                                       dict(coalesce=True)])
    def test_engine_shapes_select_an_engine(self, shape, tmp_path):
        request = RunRequest(retries=1, trail=True, **SMALL, **shape)
        engine = engine_for(request)
        assert engine is not None
        assert engine.config.max_workers == request.workers
        assert engine.config.batch_size == request.batch_size
        assert engine.config.coalesce == request.coalesce
        assert engine.config.retry.retries == 1
        assert engine.cache is not None
        # The engine always collects trails; the session's runner
        # stamps them because the request asks.
        with RunSession(request, tmp_path, engine=engine) as session:
            assert session.runner.engine is engine
            assert session.runner.trail is True

    def test_a_cache_selects_an_engine_at_one_worker(self):
        cache = ResponseCache()
        engine = engine_for(RunRequest(**SMALL), cache=cache)
        assert engine is not None and engine.cache is cache


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
class TestRunSession:
    def test_teardown_runs_when_the_attempt_raises(self, tmp_path):
        tracer = Tracer()
        session = RunSession(RunRequest(**SMALL), tmp_path,
                             tracer=tracer)
        with pytest.raises(RuntimeError):
            with session:
                assert tracer.sink is not None
                raise RuntimeError("boom")
        assert tracer.sink is None
        assert (tmp_path / "heartbeat.json").exists()
        with pytest.raises(RunError, match="closed"):
            session.ledger.run_finished(0)

    def test_borrowed_engine_gets_its_tracer_back(self, tmp_path):
        engine = EvaluationEngine(EngineConfig(max_workers=2))
        own = engine.telemetry
        with RunSession(RunRequest(**SMALL), tmp_path,
                        engine=engine) as session:
            assert engine.tracer is session.tracer
            assert engine.telemetry is session.telemetry
            assert session.telemetry is not own
        assert engine.tracer is NULL_TRACER
        assert engine.telemetry is own

    def test_a_raising_attempt_hands_the_engine_its_book_back(
            self, tmp_path):
        engine = EvaluationEngine(EngineConfig(max_workers=2))
        own = engine.telemetry
        own.add(calls=2)
        with pytest.raises(RuntimeError):
            with RunSession(RunRequest(**SMALL), tmp_path,
                            engine=engine) as session:
                engine.telemetry.add(calls=3)
                raise RuntimeError("boom")
        assert engine.telemetry is own
        assert session.stats().calls == 3
        assert engine.stats().calls == 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_span_log_holds_every_span_and_the_tracer_none(
            self, registry, workers):
        result = execute_run(RunRequest(workers=workers, **SMALL),
                             registry=registry)
        logged = read_spans_jsonl(registry.spans_path(result.run_id))
        names = Counter(span.name for span in logged)
        assert names["run"] == names["cell"] == 1
        assert names["question"] == result.evaluated
        if workers > 1:
            assert names["model_call"] == result.evaluated
        assert len({span.span_id for span in logged}) == len(logged)

    def test_a_session_tracer_keeps_no_spans(self, tmp_path):
        session = RunSession(RunRequest(**SMALL), tmp_path)
        with session:
            with session.span("run"):
                for index in range(3):
                    with session.tracer.span("question", i=index):
                        pass
        assert session.tracer.spans() == ()
        assert [span.name for span in read_spans_jsonl(
            tmp_path / "spans.jsonl")] == [
            "question", "question", "question", "run"]


# ----------------------------------------------------------------------
# Ledger events shared by execute and resume
# ----------------------------------------------------------------------
class TestAttemptEvents:
    def test_fresh_run_is_attempt_one(self, registry):
        result = execute_run(RunRequest(**SMALL), registry=registry)
        (started,) = ledger_events(registry, result.run_id,
                                   "run-started")
        assert started["resumed"] is False and started["attempt"] == 1
        spans = read_spans_jsonl(registry.spans_path(result.run_id))
        (run_span,) = [span for span in spans if span.name == "run"]
        assert set(run_span.attrs) == {"run_id", "dataset", "workers"}
        (cell_span,) = [span for span in spans if span.name == "cell"]
        assert set(cell_span.attrs) == {"model", "label", "setting", "n"}

    def test_resume_of_a_never_started_run_is_marked_resumed(
            self, registry):
        request = RunRequest(**SMALL)
        run_id = create_run(request, registry=registry)
        result = resume_run(run_id, registry=registry)
        (started,) = ledger_events(registry, run_id, "run-started")
        assert started["resumed"] is True and started["attempt"] == 1
        assert result.replayed == 0 and result.evaluated > 0
        (run_span,) = [span for span in read_spans_jsonl(
            registry.spans_path(run_id)) if span.name == "run"]
        assert run_span.attrs["resumed"] is True
        assert run_span.attrs["attempt"] == 1


# ----------------------------------------------------------------------
# Bugs the shared session fixes
# ----------------------------------------------------------------------
class TestSessionFixes:
    def _cli(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_cache_is_honoured_at_one_worker(self, capsys, tmp_path):
        cache = tmp_path / "c.json"
        argv = ("run", "--models", "GPT-4", "--taxonomies", "ebay",
                "--sample", "5", "--cache", str(cache), "--json",
                "--runs-dir", str(tmp_path / "runs"))
        first = json.loads(self._cli(capsys, *argv))
        assert first["request"]["workers"] == 1
        assert cache.exists()
        second = json.loads(self._cli(capsys, *argv))
        assert second["evaluated"] == first["evaluated"] > 0
        assert second["stats"]["cache_hits"] == second["evaluated"]

    def test_resume_with_workers_keeps_the_stored_trail(
            self, capsys, registry):
        request = RunRequest(trail=True, **SMALL)
        run_id = create_run(request, registry=registry)
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=run_id,
                        resolve_model=crash_after(10))
        assert registry.state(run_id).recorded_questions == 10
        self._cli(capsys, "runs", "resume", run_id, "--workers", "2",
                  "--runs-dir", str(registry.root))
        state = registry.state(run_id)
        assert state.finished
        records = [record for cell in state.cells.values()
                   for record in cell.records.values()]
        assert len(records) > 10
        assert all(record.trail is not None for record in records)

    def test_reused_engine_traces_each_run_to_its_own_log(
            self, registry):
        engine = EvaluationEngine(EngineConfig(max_workers=2,
                                               cache=False))
        request = RunRequest(workers=2, **SMALL)
        for _ in range(2):
            result = execute_run(request, registry=registry,
                                 engine=engine)
            spans = read_spans_jsonl(registry.spans_path(result.run_id))
            calls = [span for span in spans if span.name == "model_call"]
            assert len(calls) == result.evaluated > 0


    def test_reused_engine_persists_each_run_its_own_stats(
            self, registry):
        engine = EvaluationEngine(EngineConfig(max_workers=2))
        results = [execute_run(RunRequest(**SMALL), registry=registry,
                               engine=engine) for _ in range(2)]
        first, second = (
            EngineStats.from_dict(registry.state(result.run_id).stats)
            for result in results)
        assert [result.stats for result in results] == [first, second]
        # The second run is served whole from the engine's warm cache.
        assert first.records == first.calls == first.cache_misses > 0
        assert second.records == second.cache_hits == first.records
        assert (second.calls, second.prompt_tokens, second.cost_nanos) \
            == (0, 0, 0)
        listed = {row.run_id: row.cost_nanos
                  for row in registry.list_runs()}
        assert [listed[result.run_id] for result in results] == \
            [first.cost_nanos, 0]
        history = {entry.run_id: entry for entry in read_history(registry)}
        assert [history[result.run_id].cost_nanos
                for result in results] == [first.cost_nanos, 0]
        assert history[results[1].run_id].throughput == \
            pytest.approx(second.throughput)
        # The engine's own book is both runs together.
        both = engine.stats()
        for name in ("records", "calls", "cache_hits", "cache_misses",
                     "prompt_tokens", "completion_tokens", "cost_nanos"):
            assert getattr(both, name) == \
                getattr(first, name) + getattr(second, name)
        assert both.wall_time_s == pytest.approx(
            first.wall_time_s + second.wall_time_s)
        assert both.latency_max_s == max(first.latency_max_s,
                                         second.latency_max_s)

    def test_a_borrowed_engines_past_spend_does_not_stop_a_run(
            self, registry):
        engine = EvaluationEngine(EngineConfig(max_workers=2))
        spent = execute_run(RunRequest(**SMALL), registry=registry,
                            engine=engine).stats
        request = RunRequest(models=("GPT-4",),
                             taxonomy_keys=("google", "amazon"),
                             sample_size=8,
                             max_cost_usd=spent.cost_usd / 2)
        assert engine.stats().cost_nanos >= usd_to_nanos(
            request.max_cost_usd)
        result = execute_run(request, registry=registry, engine=engine)
        # The ceiling is checked before each cell against this run's
        # own spend, so the first cell runs; the guard stops a later
        # one once this run alone is past it.
        assert result.evaluated > 0
        assert result.budget is not None
        assert result.budget["completed_cells"] == 1
        assert result.budget["spent_cost_nanos"] == \
            result.stats.cost_nanos


def test_shard_attempt_keeps_the_run_layout_and_spans(registry):
    from repro.dist import execute_run_sharded
    result = execute_run_sharded(RunRequest(**SMALL), 2,
                                 registry=registry, procs=0)
    for shard in range(2):
        directory = Path(registry.shard_dir(result.run_id, shard))
        assert {"ledger.jsonl", "spans.jsonl", "heartbeat.json"} <= \
            {path.name for path in directory.iterdir()}
        spans = read_spans_jsonl(directory / "spans.jsonl")
        (shard_span,) = [span for span in spans if span.name == "shard"]
        assert shard_span.attrs == {"run_id": result.run_id,
                                    "shard": shard, "tasks": 1,
                                    "attempt": 1}
        (cell_span,) = [span for span in spans if span.name == "cell"]
        assert cell_span.attrs["sliced"] is True
