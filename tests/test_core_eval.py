"""Tests for metrics, results, the runner and report rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benchmark import TaxoGlimpse
from repro.core.metrics import (Metrics, combine, retrieval_metrics,
                                summarize)
from repro.core.report import format_matrix, format_rows, matrix_to_csv
from repro.core.results import QuestionRecord, metrics_from_records
from repro.core.runner import EvaluationRunner
from repro.llm.base import StaticResponder
from repro.llm.prompting import PromptSetting
from repro.llm.registry import get_model
from repro.questions.model import Answer, DatasetKind
from repro.runs.driver import evaluate_request
from repro.runs.request import RunRequest


class TestMetrics:
    def test_summarize(self):
        metrics = summarize(8, 1, 10)
        assert metrics.accuracy == 0.8
        assert metrics.miss_rate == 0.1

    def test_summarize_rejects_overflow(self):
        with pytest.raises(ValueError):
            summarize(8, 3, 10)

    def test_summarize_rejects_zero_total(self):
        with pytest.raises(ValueError):
            summarize(0, 0, 0)

    def test_metrics_bounds_validated(self):
        with pytest.raises(ValueError):
            Metrics(1.2, 0.0, 5)

    def test_answered_accuracy(self):
        metrics = Metrics(0.45, 0.5, 100)
        assert metrics.answered_accuracy == pytest.approx(0.9)

    def test_answered_accuracy_all_missed(self):
        assert Metrics(0.0, 1.0, 10).answered_accuracy == 0.0

    def test_combine_weights_by_count(self):
        combined = combine([Metrics(1.0, 0.0, 10),
                            Metrics(0.0, 1.0, 30)])
        assert combined.accuracy == pytest.approx(0.25)
        assert combined.miss_rate == pytest.approx(0.75)
        assert combined.n == 40

    def test_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            combine([])

    def test_retrieval_metrics(self):
        metrics = retrieval_metrics({"a", "b", "x"}, {"a", "b", "c"})
        assert metrics.precision == pytest.approx(2 / 3)
        assert metrics.recall == pytest.approx(2 / 3)
        assert metrics.f1 == pytest.approx(2 / 3)

    def test_retrieval_empty_sets(self):
        metrics = retrieval_metrics(set(), {"a"})
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0


class TestRecords:
    def _record(self, parsed, expected=Answer.YES):
        return QuestionRecord("uid", "m", "zero-shot", "Yes.",
                              parsed, expected)

    def test_correct(self):
        assert self._record(Answer.YES).correct

    def test_wrong(self):
        record = self._record(Answer.NO)
        assert not record.correct
        assert not record.missed

    def test_missed(self):
        record = self._record(Answer.IDK)
        assert record.missed
        assert not record.correct

    def test_unparseable_counts_as_miss(self):
        assert self._record(Answer.UNPARSEABLE).missed

    def test_metrics_from_records(self):
        records = [self._record(Answer.YES),
                   self._record(Answer.NO),
                   self._record(Answer.IDK),
                   self._record(Answer.YES)]
        metrics = metrics_from_records(records)
        assert metrics.accuracy == 0.5
        assert metrics.miss_rate == 0.25

    @staticmethod
    def _two_pass(records):
        """The fold metrics_from_records replaced: the reference."""
        correct = sum(1 for record in records if record.correct)
        missed = sum(1 for record in records if record.missed)
        return summarize(correct, missed, len(records))

    _answers = st.sampled_from(list(Answer)).flatmap(
        lambda answer: st.sampled_from([answer, answer.value]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        _answers, st.one_of(_answers, st.just("maybe"))), min_size=1))
    def test_one_pass_metrics_equal_the_two_pass_fold(self, pairs):
        """Enum members and plain strings score alike (IDK and
        UNPARSEABLE miss, MCQ letters compare by value)."""
        records = [self._record(parsed, expected)
                   for parsed, expected in pairs]
        assert metrics_from_records(records) == self._two_pass(records)

    def test_unknown_parsed_answer_raises_like_missed(self):
        records = [self._record(Answer.YES), self._record("maybe")]
        with pytest.raises(ValueError):
            records[1].missed
        with pytest.raises(ValueError):
            metrics_from_records(records)


class TestRunner:
    def test_always_yes_scores_half_on_balanced_pool(self, ebay_pools):
        # Easy pools are exactly half positives, so an always-Yes
        # model scores exactly 0.5 — a sanity anchor for the harness.
        pool = ebay_pools.total_pool(DatasetKind.EASY)
        result = EvaluationRunner().evaluate(
            StaticResponder("always-yes", "Yes."), pool)
        assert result.metrics.accuracy == pytest.approx(0.5)
        assert result.metrics.miss_rate == 0.0

    def test_always_idk_scores_zero_with_full_miss(self, ebay_pools):
        pool = ebay_pools.total_pool(DatasetKind.HARD)
        result = EvaluationRunner().evaluate(
            StaticResponder("always-idk", "I don't know."), pool)
        assert result.metrics.accuracy == 0.0
        assert result.metrics.miss_rate == 1.0

    def test_keep_records(self, ebay_pools):
        pool = ebay_pools.level_pool(1, DatasetKind.MCQ)
        runner = EvaluationRunner(keep_records=True)
        result = runner.evaluate(get_model("GPT-4"), pool)
        assert len(result.records) == len(pool)
        assert all(r.response for r in result.records)

    def test_records_not_kept_by_default(self, ebay_pools):
        pool = ebay_pools.level_pool(1, DatasetKind.MCQ)
        result = EvaluationRunner().evaluate(get_model("GPT-4"), pool)
        assert result.records == ()

    def test_evaluate_questions_label(self, ebay_pools):
        questions = ebay_pools.level_pool(
            1, DatasetKind.HARD).questions[:6]
        result = EvaluationRunner().evaluate_questions(
            get_model("GPT-4"), questions, label="adhoc")
        assert result.pool_label == "adhoc"
        assert result.metrics.n == 6

    def test_evaluate_matrix_shape(self):
        matrix = evaluate_request(RunRequest(
            dataset=DatasetKind.MCQ.value, models=("GPT-4", "Mistral"),
            taxonomy_keys=("ebay",), sample_size=20)).matrix()
        assert set(matrix) == {("GPT-4", "ebay"), ("Mistral", "ebay")}

    def test_runner_is_deterministic(self, ebay_pools):
        pool = ebay_pools.total_pool(DatasetKind.HARD)
        first = EvaluationRunner().evaluate(get_model("Mixtral"), pool)
        second = EvaluationRunner().evaluate(get_model("Mixtral"), pool)
        assert first.metrics == second.metrics


class TestReports:
    def _matrix(self):
        return {("GPT-4", "ebay"): Metrics(0.9, 0.01, 100),
                ("GPT-4", "ncbi"): Metrics(0.6, 0.1, 100)}

    def test_format_matrix_contains_values(self):
        text = format_matrix(self._matrix(), ["GPT-4"],
                             {"ebay": "eBay", "ncbi": "NCBI"},
                             title="Table X")
        assert "Table X" in text
        assert "0.900" in text
        assert "0.100" in text
        assert "eBay" in text

    def test_format_matrix_missing_cells(self):
        text = format_matrix(self._matrix(), ["GPT-4"],
                             {"ebay": "eBay", "schema": "Schema"})
        assert "n/a" in text

    def test_csv_round_trip(self):
        csv_text = matrix_to_csv(self._matrix(), ["GPT-4"],
                                 ["ebay", "ncbi"])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "model,taxonomy,accuracy,miss_rate,n"
        assert len(lines) == 3

    def test_format_rows(self):
        text = format_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}],
                           title="T")
        assert text.splitlines()[0] == "T"
        assert "x" in text


class TestFacade:
    def test_run_returns_pool_result(self, fast_bench):
        result = fast_bench.run("GPT-4", "ebay", DatasetKind.HARD)
        assert result.metrics.n > 0
        assert 0.0 <= result.metrics.accuracy <= 1.0

    def test_run_level_restricts(self, fast_bench):
        total = fast_bench.run("GPT-4", "ebay", DatasetKind.MCQ)
        level = fast_bench.run("GPT-4", "ebay", DatasetKind.MCQ,
                               level=1)
        assert level.metrics.n < total.metrics.n

    def test_run_accepts_model_objects(self, fast_bench):
        result = fast_bench.run(StaticResponder("always-no", "No."),
                                "ebay", DatasetKind.EASY)
        assert result.metrics.accuracy == pytest.approx(0.5)

    def test_run_table_and_format(self, fast_bench):
        matrix = evaluate_request(RunRequest(
            dataset=DatasetKind.MCQ.value, models=("GPT-4", "Flan-T5-3B"),
            taxonomy_keys=("ebay", "schema"),
            sample_size=fast_bench.sample_size)).matrix()
        assert len(matrix) == 4
        text = fast_bench.format_table(matrix, title="MCQ")
        assert "GPT-4" in text
        assert "Schema" in text

    def test_pools_cached(self, fast_bench):
        assert fast_bench.pools("ebay") is fast_bench.pools("ebay")

    def test_custom_setting(self, fast_bench):
        result = fast_bench.run("Llama-2-7B", "ebay", DatasetKind.HARD,
                                setting=PromptSetting.FEW_SHOT)
        zero = fast_bench.run("Llama-2-7B", "ebay", DatasetKind.HARD)
        assert result.metrics.miss_rate < zero.metrics.miss_rate
