"""The batcher forms and serves its batches on the engine's own worker
threads: which threads a batched run starts and leaves behind, where
its spans hang in the trace tree, and its locking under constant
thread switches."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batching import BatchingModel
from repro.engine.config import EngineConfig
from repro.engine.middleware import FaultInjectingModel
from repro.engine.scheduler import EvaluationEngine
from repro.llm.base import BaseChatModel
from repro.llm.registry import get_model
from repro.obs.export import read_spans_jsonl
from repro.runs.driver import execute_run
from repro.runs.registry import RunRegistry
from repro.runs.request import RunRequest


class Census:
    """A backend noting every thread that appears while it serves.

    ``shared`` makes it a batch backend (one ``generate_batch`` per
    batch); otherwise it answers one prompt per call.
    """

    def __init__(self, shared: bool):
        self.name = "census"
        self.before = set(threading.enumerate())
        self.seen: set[threading.Thread] = set()
        self._lock = threading.Lock()
        if shared:
            self.generate_batch = self._generate_batch

    def _note(self) -> None:
        with self._lock:
            self.seen.update(set(threading.enumerate()) - self.before)

    def generate(self, prompt: str) -> str:
        self._note()
        return f"ans:{prompt}"

    def _generate_batch(self, prompts: list[str]) -> list[str]:
        self._note()
        return [f"ans:{prompt}" for prompt in prompts]


class TestThreadCensus:
    @pytest.mark.parametrize("shared", [True, False],
                             ids=["shared", "per-prompt"])
    def test_a_batched_run_uses_and_leaves_only_its_pool(self, shared):
        engine = EvaluationEngine(EngineConfig(
            max_workers=2, batch_size=8, batch_linger_s=0.001,
            cache=False, retry=None))
        backend = Census(shared)
        items = [f"q{i}" for i in range(200)]
        results = engine.run(backend, items,
                             lambda model, item: model.generate(item))
        assert results == [f"ans:{item}" for item in items]
        assert backend.seen
        assert [thread.name for thread in backend.seen
                if not thread.name.startswith("repro-engine")] == []
        assert [thread.name for thread in backend.seen
                if thread.is_alive()] == []


@pytest.mark.parametrize("shared", [True, False],
                         ids=["shared", "per-prompt"])
def test_a_batch_of_none_answers_settles(shared):
    # A backend answering None must not look like a member still
    # waiting for its outcome.
    class Silent(Census):
        def generate(self, prompt):
            return None

        def _generate_batch(self, prompts):
            return [None] * len(prompts)

    answers: list = []
    with BatchingModel(Silent(shared), batch_size=4,
                       linger_s=0.01) as batcher:
        threads = [threading.Thread(
            target=lambda: answers.append(batcher.generate("p")))
            for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
    assert answers == [None] * 6


def _traced_batched_run(tmp_path, resolve_model=None) -> list:
    """The spans of a 2-worker, ``batch_size=4`` run over ebay's
    sample-10 hard pool."""
    registry = RunRegistry(tmp_path / "runs")
    request = RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                         sample_size=10, workers=2, batch_size=4)
    result = execute_run(request, registry=registry,
                         resolve_model=resolve_model)
    assert result.evaluated == 40
    return read_spans_jsonl(registry.spans_path(result.run_id))


class TestSpanParents:
    def _batch_parents(self, spans) -> list[str]:
        by_id = {span.span_id: span for span in spans}
        batches = [span for span in spans if span.name == "batch"]
        assert batches
        return [by_id[span.parent_id].name if span.parent_id in by_id
                else None for span in batches]

    def _members_are_the_questions(self, spans) -> None:
        """The batch spans name the cell and, among them, every
        question of the run once: a batch span stands for its
        backend call(s), which write no span of their own."""
        batches = [span for span in spans if span.name == "batch"]
        assert all(span.attrs["cell"] for span in batches)
        assert sorted(uid for span in batches
                      for uid in span.attrs["members"].split()) \
            == sorted(span.attrs["uid"] for span in spans
                      if span.name == "question")
        assert {span.name for span in spans} == {
            "run", "cell", "question", "batch"}

    def test_a_shared_batch_hangs_under_its_leaders_question(
            self, tmp_path):
        spans = _traced_batched_run(tmp_path)
        assert set(self._batch_parents(spans)) <= {"question", "retry"}
        self._members_are_the_questions(spans)

    def test_a_per_prompt_batch_hangs_under_its_leaders_question(
            self, tmp_path):
        spans = _traced_batched_run(
            tmp_path, lambda name: FaultInjectingModel(
                get_model(name), failure_rate=0.0))
        assert set(self._batch_parents(spans)) <= {"question", "retry"}
        # Every member calls on its own thread, and its batch span
        # names its question.
        self._members_are_the_questions(spans)


class Echo(BaseChatModel):
    def _respond(self, prompt: str) -> str:
        return f"ans:{prompt}"


@settings(deadline=None, max_examples=25)
@given(
    items=st.lists(st.text(alphabet="abcd", min_size=1, max_size=3),
                   min_size=1, max_size=32),
    batch_size=st.integers(min_value=1, max_value=5),
    workers=st.integers(min_value=1, max_value=8),
)
def test_batched_coalesced_parity_under_constant_thread_switches(
        items, batch_size, workers):
    """The batched and coalesced engine stays indistinguishable from
    the sequential loop, and ``on_result`` fires once per index, when
    the interpreter switches threads every microsecond."""
    engine = EvaluationEngine(
        EngineConfig(max_workers=workers, batch_size=batch_size,
                     batch_linger_s=0.001, coalesce=True, cache=False,
                     retry=None))
    seen: list[int] = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = engine.run(Echo("echo"), items,
                             lambda model, item: model.generate(item),
                             on_result=lambda index, _: seen.append(
                                 index))
    finally:
        sys.setswitchinterval(previous)
    assert results == [f"ans:{item}" for item in items]
    assert sorted(seen) == list(range(len(items)))
