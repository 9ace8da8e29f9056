"""The evaluation runner: model x pool x prompting setting.

The loop is the one the paper ran against real endpoints: render the
prompt (with few-shot exemplars from the same pool when requested),
send it to the model, parse the raw text response, score it.  Models
are opaque :class:`ChatModel` objects — swap a simulated backend for a
real API client and nothing here changes.

Every question runs through an :class:`repro.engine.EvaluationEngine`:
the runner's own when the caller passes one, else a one-worker engine
with no middleware at all.  The engine asks a ``workers=1`` run's
questions in order on the calling thread, and fans any other shape
out over its worker pool behind its middleware stack (coalesce,
cache, retry, rate limit, timeout, batch).  Records come back in
question order either way — the batching layer groups concurrent
prompts into ``generate_batch`` calls *underneath* the per-question
fan-out — so every shape yields bit-identical metrics.

The engine asks each question under its own provenance trail
(:func:`repro.obs.trail.trail_scope`): :meth:`EvaluationRunner.ask`
prices the question on it, once, and the engine folds the question's
counters from it (:meth:`repro.engine.telemetry.Telemetry.observe`);
the runner's ``trail`` flag decides only whether the record carries
the frozen trail.

A runner can also carry a ``ledger`` sink (duck-typed; see
:class:`repro.runs.ledger.RunLedger`): each ``evaluate`` call then
becomes one *cell* — the runner emits cell-started, streams every
scored question as it completes (from the engine's collecting thread,
so the sink only needs to be thread-safe across cells), and seals the
cell with its metrics.  :meth:`complete_cell` is the resume path:
given the records a previous attempt already persisted, it re-asks
only the missing question indices and merges, producing a result
bit-identical to an uninterrupted evaluation.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.core.results import (PoolResult, QuestionRecord,
                                metrics_from_records)
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EvaluationEngine
from repro.llm.base import ChatModel
from repro.llm.parsing import parse_answer
from repro.llm.prompting import PromptSetting, build_prompt
from repro.obs.cost import call_cost_nanos, count_tokens
from repro.obs.tracer import NullTracer, Tracer
from repro.obs.trail import current_trail
from repro.questions.model import Question
from repro.questions.pools import QuestionPool

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.runs.ledger import RunLedger


class EvaluationRunner:
    """Drives models over question pools and scores the answers."""

    def __init__(self, variant: int = 0, keep_records: bool = False,
                 engine: EvaluationEngine | None = None,
                 ledger: "RunLedger | None" = None,
                 tracer: "Tracer | NullTracer | None" = None,
                 trail: bool = False):
        #: Template paraphrase variant (0 is the paper's main results).
        self.variant = variant
        #: Whether PoolResults carry per-question records.
        self.keep_records = keep_records
        #: The engine every question runs through; by default one
        #: worker and no middleware (no retry, no cache), which asks
        #: the questions in order on the calling thread.
        self.engine = (engine if engine is not None else
                       EvaluationEngine(EngineConfig(retry=None,
                                                     cache=False)))
        #: Optional run-ledger sink; ``None`` keeps results in memory.
        self.ledger = ledger
        #: Span recorder: explicit tracer wins, else the engine's.
        self.tracer = tracer if tracer is not None else self.engine.tracer
        #: Stamp each record with its frozen provenance trail.
        self.trail = trail

    def ask(self, model: ChatModel, question: Question,
            setting: PromptSetting = PromptSetting.ZERO_SHOT,
            pool_questions: tuple[Question, ...] = (),
            backend: ChatModel | None = None) -> QuestionRecord:
        """One question -> one scored interaction record.  ``backend``
        is the raw model under ``model``'s middleware (default:
        ``model``).

        The question is priced here, once, on the trail installed
        around it: each attempt re-sent the prompt and only the
        answering one returned a completion, so it bills
        ``prompt_tokens × attempts`` plus the completion tokens —
        and nothing when a cache or a coalesced leader answered.
        """
        prompt = build_prompt(question, setting,
                              pool_questions=pool_questions,
                              variant=self.variant)
        response = model.generate(prompt)
        parsed = parse_answer(response, question)
        # Counted as the raw backend counts them, so the record is
        # bit-identical whether the call ran at one worker, fanned
        # out, or on a shard.
        backend = model if backend is None else backend
        prompt_tokens = count_tokens(prompt, backend)
        completion_tokens = count_tokens(response, backend)
        context = current_trail()
        trail = None
        if context is not None:
            if not (context.cache_hit
                    or context.coalesced == "follower"):
                billed = prompt_tokens * context.attempts
                context.note_cost(
                    billed, completion_tokens,
                    call_cost_nanos(model.name, billed,
                                    completion_tokens))
            if self.trail:
                trail = context.freeze()
        return QuestionRecord(
            question_uid=question.uid,
            model=model.name,
            setting=setting.value,
            response=response,
            parsed=parsed,
            expected=question.expected_answer,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            trail=trail,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def cell_id(model: ChatModel, label: str,
                setting: PromptSetting) -> str:
        """The ledger cell identifier for one evaluate call."""
        return f"{model.name}|{label}|{setting.value}"

    def _ask_indexed(self, model: ChatModel,
                     indexed: list[tuple[int, Question]],
                     setting: PromptSetting,
                     pool_questions: tuple[Question, ...],
                     cell: str | None = None
                     ) -> list[tuple[int, QuestionRecord]]:
        """Score ``(original index, question)`` pairs, streaming each
        record into the ledger (keyed by its *original* index) the
        moment it exists — not when the whole batch returns."""
        on_result = None
        if self.ledger is not None and cell is not None:
            ledger = self.ledger

            def on_result(position: int,
                          record: QuestionRecord) -> None:
                ledger.record(cell, indexed[position][0], record)

        # A fanned-out question runs on a worker thread whose span
        # stack is empty, so the cell span is named as the parent.
        parent = self.tracer.current_id()
        span = self.tracer.span

        def ask_traced(wrapped: ChatModel,
                       question: Question) -> QuestionRecord:
            # The engine installed the question's trail outside this
            # span, so the span times the question alone; naming the
            # question there lets the batcher's span cite it.
            context = current_trail()
            context.question = question.uid
            context.cell = cell
            with span("question", parent=parent,
                      kind=question.kind.value,
                      level=question.level, uid=question.uid):
                return self.ask(wrapped, question, setting,
                                pool_questions=pool_questions,
                                backend=model)

        records = self.engine.run(
            model, [question for _, question in indexed],
            ask_traced, on_result=on_result)
        return [(indexed[i][0], record)
                for i, record in enumerate(records)]

    def _slice(self, model: ChatModel,
               questions: tuple[Question, ...],
               setting: PromptSetting, label: str, indices,
               done: Mapping[int, QuestionRecord] | None = None,
               **span_attrs) -> dict[int, QuestionRecord]:
        """Open the cell, ask ``indices`` minus ``done``, and return
        every record by index (the cell stays unsealed)."""
        done = dict(done or {})
        cell = None
        if self.ledger is not None:
            cell = self.cell_id(model, label, setting)
            self.ledger.cell_started(cell, len(questions))
        indexed = [(index, questions[index])
                   for index in sorted(indices) if index not in done]
        with self.tracer.span("cell", model=model.name, label=label,
                              setting=setting.value, n=len(indexed),
                              **span_attrs):
            for index, record in self._ask_indexed(
                    model, indexed, setting,
                    pool_questions=questions, cell=cell):
                done[index] = record
        return done

    def _evaluate_cell(self, model: ChatModel,
                       questions: tuple[Question, ...],
                       setting: PromptSetting, label: str,
                       done: Mapping[int, QuestionRecord] | None = None
                       ) -> PoolResult:
        """One ledgered cell: a slice over every index, then the
        seal."""
        done = self._slice(model, questions, setting, label,
                           range(len(questions)), done)
        records = [done[index] for index in range(len(questions))]
        metrics = metrics_from_records(records)
        if self.ledger is not None:
            self.ledger.cell_finished(
                self.cell_id(model, label, setting), metrics)
        return PoolResult(
            pool_label=label,
            model=model.name,
            setting=setting.value,
            metrics=metrics,
            records=tuple(records) if self.keep_records else (),
        )

    # ------------------------------------------------------------------
    def evaluate(self, model: ChatModel, pool: QuestionPool,
                 setting: PromptSetting = PromptSetting.ZERO_SHOT
                 ) -> PoolResult:
        """Score ``model`` on every question of ``pool``."""
        return self._evaluate_cell(model, pool.questions, setting,
                                   label=pool.label)

    def complete_cell(self, model: ChatModel, pool: QuestionPool,
                      setting: PromptSetting,
                      done: Mapping[int, QuestionRecord]) -> PoolResult:
        """Finish a partially recorded cell (the resume path).

        ``done`` maps question index -> record as replayed from the
        ledger; only the holes are re-asked.  Because prompts, pools
        and the simulated backends are deterministic, the merged
        result is bit-identical to an uninterrupted :meth:`evaluate`.
        """
        return self._evaluate_cell(model, pool.questions, setting,
                                   label=pool.label, done=done)

    def evaluate_slice(self, model: ChatModel, pool: QuestionPool,
                       setting: PromptSetting,
                       indices, done: Mapping[int, QuestionRecord]
                       | None = None) -> dict[int, QuestionRecord]:
        """Score a subset of a pool's questions (the shard path).

        Unlike :meth:`evaluate`, the cell is *not* sealed: a shard
        owns only ``indices`` of the cell, so it emits cell-started
        (with the full pool size, letting any replayer know the
        expected extent), streams its records at their absolute pool
        indices, and leaves ``cell-finished`` to the merge, which is
        the only party that sees every shard's records.  ``done``
        holds records a previous shard attempt already persisted;
        only the holes are re-asked.
        """
        return self._slice(model, pool.questions, setting, pool.label,
                           indices, done, sliced=True)

    def evaluate_questions(self, model: ChatModel,
                           questions: tuple[Question, ...],
                           setting: PromptSetting =
                           PromptSetting.ZERO_SHOT,
                           label: str = "ad-hoc") -> PoolResult:
        """Score a bare question tuple (instance typing pools)."""
        return self._evaluate_cell(model, questions, setting,
                                   label=label)
