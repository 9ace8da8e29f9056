"""One book per question.

Every question runs under its own provenance trail, which the engine
installs; ``EvaluationRunner.ask`` prices it there once, and the run's
per-question counters are folded from the finished trail by
``Telemetry.observe``.  These checks hold that book against what an
endpoint would bill, across the execution shapes, and pin the two
faults the split books had: a caller's engine dropped the request's
trails, and a backend pool booked its hedges outside the attempt.
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine.cache import ResponseCache
from repro.engine.config import EngineConfig
from repro.engine.middleware import FaultInjectingModel
from repro.engine.pool import BackendPool
from repro.engine.scheduler import EvaluationEngine
from repro.errors import ModelError
from repro.llm.base import call_generate_batch, supports_generate_batch
from repro.llm.registry import get_model
from repro.obs import read_spans_jsonl
from repro.obs.cost import call_cost_nanos, count_tokens
from repro.runs import RunRegistry, RunRequest, execute_run
from repro.runs.ledger import replay_ledger
from repro.runs.session import engine_for

#: GPT-4 over ebay's sample-3 hard pool: twelve questions, one cell.
PROBE = dict(models=("GPT-4",), taxonomy_keys=("ebay",), sample_size=3)


class _Down:
    """A replica that always fails with a hard error."""

    name = "GPT-4"

    def generate(self, prompt: str) -> str:
        raise ModelError("replica down")


class _Slow:
    """GPT-4 behind a 20 ms sleep: a pool with a short hedge delay
    hedges every question it sends here."""

    name = "GPT-4"

    def __init__(self) -> None:
        self.inner = get_model("GPT-4")

    def generate(self, prompt: str) -> str:
        time.sleep(0.02)
        return self.inner.generate(prompt)


def _records(registry: RunRegistry, run_id: str) -> list[dict]:
    """The run's record events, in (cell, index) order."""
    with open(registry.ledger_path(run_id), encoding="utf-8") as lines:
        events = [json.loads(line) for line in lines]
    return sorted((event for event in events
                   if event["event"] == "record"),
                  key=lambda event: (event["cell"], event["i"]))


# ----------------------------------------------------------------------
# The two faults of the split books, and the sequential install
# ----------------------------------------------------------------------
@pytest.fixture()
def hedged_run(tmp_path):
    """A trail-on run through a caller's 2-worker engine whose model
    is a pool hedging every question."""
    registry = RunRegistry(tmp_path / "runs")
    engine = EvaluationEngine(EngineConfig(max_workers=2))
    pool = BackendPool([_Slow(), get_model("GPT-4")],
                       hedge_delay_s=0.001)
    try:
        result = execute_run(
            RunRequest(**PROBE, workers=2, trail=True),
            registry=registry, engine=engine,
            resolve_model=lambda _: pool)
    finally:
        pool.close()
    return registry, result.run_id


class TestCallersEngine:
    def test_a_callers_engine_stamps_the_requests_trails(
            self, hedged_run):
        records = _records(*hedged_run)
        assert len(records) == 12
        assert all("trail" in record for record in records)

    def test_the_attempt_books_the_pools_hedges(self, hedged_run):
        registry, run_id = hedged_run
        hedged = sum(record["trail"].get("hedged", False)
                     for record in _records(registry, run_id))
        assert hedged > 0
        stats = replay_ledger(registry.ledger_path(run_id)).stats
        assert stats["hedged"] == hedged


class TestSequentialInstall:
    def test_a_callers_model_notes_on_the_installed_trail(
            self, tmp_path):
        """The one-worker engine installs the trail, so layers inside
        a caller's model note on it: the pool's replica and
        fallbacks."""
        registry = RunRegistry(tmp_path / "runs")
        pool = BackendPool([_Down(), get_model("GPT-4")])
        result = execute_run(RunRequest(**PROBE, trail=True),
                             registry=registry,
                             resolve_model=lambda _: pool)
        trails = [record["trail"]
                  for record in _records(registry, result.run_id)]
        assert len(trails) == 12
        assert all(trail.get("replica") == 1 for trail in trails)
        # The first replica sits out its cooldown after three
        # failures; until then each question falls back from it.
        assert [trail.get("fallbacks") for trail in trails
                if "fallbacks" in trail] == [[0]] * 3


# ----------------------------------------------------------------------
# The book against an endpoint's bill, over the execution shapes
# ----------------------------------------------------------------------
class _Meter:
    """What an endpoint bills: every prompt it receives (``n`` for a
    batch of ``n``), those prompts' tokens and the completion tokens
    of every answer it returns.  It advertises ``generate_batch``
    only when ``shared`` and its inner model has one."""

    def __init__(self, inner, shared: bool) -> None:
        self.inner = inner
        self.name = inner.name
        self.prompts = self.prompt_tokens = 0
        self.completion_tokens = self.cost_nanos = 0
        self._lock = threading.Lock()
        if shared and supports_generate_batch(inner):
            self.generate_batch = self._generate_batch

    def _bill(self, prompts, answers) -> None:
        prompt = sum(count_tokens(text, self) for text in prompts)
        completion = sum(count_tokens(text, self) for text in answers)
        with self._lock:
            self.prompts += len(prompts)
            self.prompt_tokens += prompt
            self.completion_tokens += completion
            self.cost_nanos += call_cost_nanos(self.name, prompt,
                                               completion)

    def generate(self, prompt: str) -> str:
        try:
            answer = self.inner.generate(prompt)
        except Exception:
            self._bill([prompt], [])
            raise
        self._bill([prompt], [answer])
        return answer

    def _generate_batch(self, prompts):
        try:
            answers = call_generate_batch(self.inner, prompts)
        except Exception:
            self._bill(prompts, [])
            raise
        self._bill(prompts, answers)
        return answers

    def bill(self) -> tuple[int, int, int, int]:
        return (self.prompts, self.prompt_tokens,
                self.completion_tokens, self.cost_nanos)


def _bare_lines(records: list[dict]) -> list[dict]:
    for record in records:
        record.pop("trail", None)
    return records


@pytest.fixture(scope="module")
def sequential_lines(tmp_path_factory):
    """The plain sequential run's record lines, without trails."""
    registry = RunRegistry(tmp_path_factory.mktemp("reference"))
    result = execute_run(RunRequest(**PROBE), registry=registry)
    return _bare_lines(_records(registry, result.run_id))


class TestShapes:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(workers=st.integers(1, 3), batch_size=st.sampled_from([1, 4]),
           shared=st.booleans(), coalesce=st.booleans(),
           warm=st.booleans(), fault_rate=st.sampled_from([0.0, 0.3]),
           pooled=st.booleans(), trail=st.booleans())
    def test_the_book_equals_the_endpoints_bill(
            self, tmp_path_factory, sequential_lines, workers,
            batch_size, shared, coalesce, warm, fault_rate, pooled,
            trail):
        registry = RunRegistry(tmp_path_factory.mktemp("shape"))
        request = RunRequest(**PROBE, workers=workers,
                             batch_size=batch_size, coalesce=coalesce,
                             retries=3, trail=trail)
        cache = None
        if warm:
            cache = ResponseCache()
            execute_run(RunRequest(**PROBE), registry=registry,
                        engine=engine_for(request, cache=cache))
        # Every shape, the paper's one-worker one included, retries
        # with the request's policy, so each absorbs injected faults.
        engine = engine_for(request, cache=cache)
        inner = get_model("GPT-4")
        if pooled:
            inner = BackendPool([_Down(), inner])
        if fault_rate:
            inner = FaultInjectingModel(inner, seed=7,
                                        failure_rate=fault_rate)
        meter = _Meter(inner, shared)
        result = execute_run(request, registry=registry, engine=engine,
                             resolve_model=lambda _: meter)
        stats = result.stats
        assert (stats.calls, stats.prompt_tokens,
                stats.completion_tokens, stats.cost_nanos) \
            == meter.bill()
        if warm:
            assert meter.prompts == 0
        records = _records(registry, result.run_id)
        if trail:
            billed = [sum(record["trail"].get(name, 0)
                          for record in records)
                      for name in ("billed_prompt_tokens",
                                   "billed_completion_tokens",
                                   "cost_nanos")]
            assert billed == list(meter.bill()[1:])
        assert _bare_lines(records) == sequential_lines


# ----------------------------------------------------------------------
# obs why cites the question's own span and its batch's
# ----------------------------------------------------------------------
class _PerPrompt:
    """GPT-4 without ``generate_batch``: each batch member calls its
    own prompt."""

    name = "GPT-4"

    def __init__(self) -> None:
        self.inner = get_model("GPT-4")

    def generate(self, prompt: str) -> str:
        return self.inner.generate(prompt)


class TestWhyCitesBatchCalls:
    def _batched_run(self, tmp_path, resolve_model=None):
        runs_dir = tmp_path / "runs"
        registry = RunRegistry(runs_dir)
        result = execute_run(
            RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                       sample_size=10, workers=2, batch_size=4,
                       trail=True),
            registry=registry, resolve_model=resolve_model)
        spans = read_spans_jsonl(registry.spans_path(result.run_id))
        return runs_dir, result, spans

    def _why(self, capsys, runs_dir, run_id, n) -> list[str]:
        """``repro obs why`` of each question of the run."""
        texts = []
        for index in range(n):
            assert main(["obs", "why", run_id, str(index),
                         "--runs-dir", str(runs_dir)]) == 0
            texts.append(capsys.readouterr().out)
        return texts

    def test_every_question_cites_its_shared_call(self, capsys,
                                                  tmp_path):
        runs_dir, result, spans = self._batched_run(tmp_path)
        n = result.evaluated
        batches = [span for span in spans if span.name == "batch"]
        # A shared batch's call has no span of its own: its batch span
        # times it, naming the leader's cell and every member.
        assert {span.name for span in spans} == {
            "run", "cell", "question", "batch"}
        members = [uid for span in batches
                   for uid in span.attrs["members"].split()]
        assert len(members) == n
        assert all(span.attrs["cell"] for span in batches)
        assert [(text.count("question#"), text.count("batch#"))
                for text in self._why(capsys, runs_dir, result.run_id,
                                      n)] == [(1, 1)] * n

    def test_per_prompt_calls_still_name_their_question(
            self, capsys, tmp_path):
        runs_dir, result, spans = self._batched_run(
            tmp_path, resolve_model=lambda _: _PerPrompt())
        n = result.evaluated
        questions = {span.attrs["uid"]: span.span_id for span in spans
                     if span.name == "question"}
        batch_of = {uid: span.span_id for span in spans
                    if span.name == "batch"
                    for uid in span.attrs["members"].split()}
        assert len(questions) == len(batch_of) == n
        # Each question cites its own span and its batch's, and no
        # batch-mate's question span.
        for text in self._why(capsys, runs_dir, result.run_id, n):
            uid = text.splitlines()[1].split()[0]
            assert (text.count("question#"), text.count("batch#")) \
                == (1, 1)
            assert f"question#{questions[uid]} " in text
            assert f"batch#{batch_of[uid]} " in text
