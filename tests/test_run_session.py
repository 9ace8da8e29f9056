"""Tests for repro.runs.session: the one run-session setup and the
engine-selection rule shared by execute, resume and shard attempts."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.cache import ResponseCache
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EvaluationEngine
from repro.errors import RunError
from repro.llm.registry import get_model
from repro.obs.export import read_spans_jsonl
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
    def test_engine_shapes_select_an_engine(self, shape):
        request = RunRequest(retries=1, trail=True, **SMALL, **shape)
        engine = engine_for(request)
        assert engine is not None
        assert engine.config.max_workers == request.workers
        assert engine.config.batch_size == request.batch_size
        assert engine.config.coalesce == request.coalesce
        assert engine.config.retry.retries == 1
        assert engine.config.trail is True
        assert engine.cache is not None

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
        with RunSession(RunRequest(**SMALL), tmp_path,
                        engine=engine) as session:
            assert engine.tracer is session.tracer
            assert session.telemetry is None
        assert engine.tracer is NULL_TRACER

    def test_untraced_session_writes_no_span_log(self, tmp_path):
        with RunSession(RunRequest(**SMALL), tmp_path,
                        trace=False) as session:
            assert session.engine is None
            assert session.telemetry is not None
        assert not (tmp_path / "spans.jsonl").exists()
        assert (tmp_path / "ledger.jsonl").exists()


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
