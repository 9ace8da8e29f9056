"""Tests for repro.runs: ledger, resume determinism, registry, diff."""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import (QuestionRecord, metrics_from_dict,
                                metrics_to_dict, record_from_dict,
                                record_line, record_to_dict)
from repro.engine.cache import ResponseCache
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EvaluationEngine
from repro.errors import (LedgerCorruptError, RunError,
                          UnknownRunError)
from repro.experiments.config import ExperimentConfig
from repro.experiments.levels import (levels_from_run, run_levels)
from repro.experiments.overall import (overall_from_run, run_overall)
from repro.llm.prompting import PromptSetting
from repro.llm.registry import get_model
from repro.questions.model import Answer, DatasetKind
from repro.runs import (CellKey, RunLedger, RunRegistry, RunRequest,
                        RunState, create_run, diff_runs, evaluate_request,
                        execute_run, load_run, replay_ledger, resume_run)
from repro.runs.diff import _flips
from repro.runs.registry import RUNS_ENV
from repro.runs.ledger import _apply, fold_ledger, fold_run_ledger
from repro.cli import main

SMALL = dict(models=("GPT-4", "LLMs4OL"),
             taxonomy_keys=("ebay", "glottolog"), sample_size=10)


@pytest.fixture()
def registry(tmp_path) -> RunRegistry:
    return RunRegistry(tmp_path / "runs")


class _BudgetedModel:
    """Wraps a model; raises after a shared call budget is spent."""

    def __init__(self, inner, counter: dict, lock: threading.Lock):
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


def forbidden_resolver(name: str):  # pragma: no cover - must not run
    raise AssertionError(f"model {name!r} was resolved during a "
                         f"ledger-only reconstruction")


# ----------------------------------------------------------------------
# Record / metrics codec + the correct-by-value satellite
# ----------------------------------------------------------------------
class TestRecordCodec:
    def test_round_trip_preserves_equality_and_scoring(self):
        record = QuestionRecord("q1", "GPT-4", "zero-shot", "Yes.",
                                Answer.YES, Answer.YES)
        decoded = record_from_dict(
            json.loads(json.dumps(record_to_dict(record))))
        assert decoded == record
        assert decoded.correct == record.correct is True
        assert decoded.missed == record.missed is False

    def test_correct_compares_by_value_not_identity(self):
        # Regression: a record whose answers are plain strings (any
        # codec that skips enum reconstruction) must score the same
        # as one holding enum singletons.
        record = QuestionRecord("q1", "GPT-4", "zero-shot", "Yes.",
                                "yes", Answer.YES)
        assert record.parsed is not Answer.YES
        assert record.correct is True
        wrong = QuestionRecord("q1", "GPT-4", "zero-shot", "No.",
                               "no", Answer.YES)
        assert wrong.correct is False

    def test_metrics_round_trip_is_bit_identical(self):
        from repro.core.metrics import Metrics
        metrics = Metrics(accuracy=1 / 3, miss_rate=1 / 7, n=21)
        decoded = metrics_from_dict(
            json.loads(json.dumps(metrics_to_dict(metrics))))
        assert decoded == metrics


# ----------------------------------------------------------------------
# Ledger writer + replay
# ----------------------------------------------------------------------
class TestLedger:
    def _record(self, index: int) -> QuestionRecord:
        return QuestionRecord(f"q{index}", "GPT-4", "zero-shot",
                              "Yes.", Answer.YES, Answer.YES)

    def test_replay_folds_events_into_cells(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        from repro.core.metrics import Metrics
        with RunLedger(path) as ledger:
            ledger.run_started("r1")
            ledger.cell_started("c1", 2)
            ledger.record("c1", 1, self._record(1))
            ledger.record("c1", 0, self._record(0))
            ledger.cell_finished("c1", Metrics(1.0, 0.0, 2))
            ledger.run_finished(1, {"records": 2})
        state = replay_ledger(path)
        assert state.run_id == "r1"
        assert state.finished
        assert state.stats == {"records": 2}
        cell = state.cells["c1"]
        assert cell.complete
        assert [r.question_uid for r in cell.ordered_records()] == \
            ["q0", "q1"]

    def test_ordered_records_name_holes(self):
        from repro.runs.ledger import CellState
        cell = CellState("c1", expected_n=3,
                         records={i: self._record(i) for i in (0, 2, 5)})
        with pytest.raises(RunError, match=r"c1 .*indices \[1\]"):
            cell.ordered_records()
        # An index past the cell does not hide a complete one.
        cell.records[1] = self._record(1)
        assert [r.question_uid for r in cell.ordered_records()] == \
            ["q0", "q1", "q2"]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.run_started("r1")
            ledger.cell_started("c1", 3)
            ledger.record("c1", 0, self._record(0))
        # Simulate a crash mid-append: chop the tail of the file.
        torn = path.read_text(encoding="utf-8")[:-17]
        path.write_text(torn, encoding="utf-8")
        state = replay_ledger(path)
        assert state.cells["c1"].records == {}
        assert not state.finished

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.run_started("r1")
            ledger.cell_started("c1", 1)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:-5]  # corrupt a NON-final line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LedgerCorruptError):
            replay_ledger(path)

    def test_unknown_events_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.run_started("r1")
            ledger._append({"event": "from-the-future", "x": 1})
            ledger.run_finished(0)
        assert replay_ledger(path).finished

    def test_closed_ledger_refuses_appends(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.close()
        with pytest.raises(RunError):
            ledger.run_started("r1")

    def test_bad_durability_mode_rejected(self, tmp_path):
        with pytest.raises(RunError):
            RunLedger(tmp_path / "ledger.jsonl", durability="maybe")

    def test_record_durability_fsyncs_every_append(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path, durability="record") as ledger:
            ledger.cell_started("c1", 1)
            ledger.record("c1", 0, self._record(0))
        assert len(replay_ledger(path).cells["c1"].records) == 1


# ----------------------------------------------------------------------
# Execute + registry + ledger-only loading
# ----------------------------------------------------------------------
class TestExecuteAndLoad:
    def test_execute_then_load_is_bit_identical(self, registry):
        request = RunRequest(**SMALL)
        result = execute_run(request, registry=registry)
        assert result.evaluated > 0
        loaded = load_run(result.run_id, registry=registry)
        assert loaded.request == request
        assert set(loaded.cells) == set(result.cells)
        for key, live in result.cells.items():
            assert loaded.cells[key].metrics == live.metrics
            assert loaded.cells[key].records == live.records
            assert loaded.cells[key].pool_label == live.pool_label

    def test_engine_run_streams_identical_ledger(self, registry):
        request = RunRequest(workers=4, **SMALL)
        sequential = execute_run(RunRequest(**SMALL),
                                 registry=registry)
        engine = EvaluationEngine(EngineConfig(max_workers=4))
        threaded = execute_run(request, registry=registry,
                               engine=engine)
        for key, live in sequential.cells.items():
            assert threaded.cells[key].records == live.records
        assert threaded.stats is not None
        loaded = load_run(threaded.run_id, registry=registry)
        assert loaded.stats.records == threaded.stats.records

    def test_registry_listing_and_summary(self, registry):
        request = RunRequest(**SMALL)
        result = execute_run(request, registry=registry)
        summaries = registry.list_runs()
        assert [s.run_id for s in summaries] == [result.run_id]
        summary = summaries[0]
        assert summary.finished
        assert summary.cells_done == summary.cells_total == 4
        assert summary.questions == result.evaluated
        payload = summary.to_dict()
        assert payload["run_id"] == result.run_id
        assert payload["finished"] is True

    def test_repeated_requests_get_distinct_run_ids(self, registry):
        request = RunRequest(dataset="easy", models=("GPT-4",),
                             taxonomy_keys=("ebay",), sample_size=6)
        first = execute_run(request, registry=registry)
        second = execute_run(request, registry=registry)
        assert first.run_id != second.run_id
        assert first.run_id.rsplit("-", 1)[0] == \
            second.run_id.rsplit("-", 1)[0]

    def test_unknown_run_raises(self, registry):
        with pytest.raises(UnknownRunError):
            registry.request("deadbeef-01")
        with pytest.raises(UnknownRunError):
            registry.state("deadbeef-01")

    def test_cell_key_round_trip(self):
        key = CellKey(model="GPT-4", taxonomy_key="ebay",
                      dataset="hard", setting="zero-shot", level=2)
        assert CellKey.parse(key.cell_id) == key
        total = CellKey(model="GPT-4", taxonomy_key="ebay",
                        dataset="hard", setting="zero-shot")
        assert CellKey.parse(total.cell_id) == total
        assert CellKey.parse("GPT-4|ad-hoc|zero-shot") is None

    def test_request_validation(self):
        with pytest.raises(RunError):
            RunRequest(dataset="nope")
        with pytest.raises(RunError):
            RunRequest(settings=("telepathy",))
        with pytest.raises(RunError):
            RunRequest(models=())

    def test_fingerprint_tracks_request_fields(self):
        base = RunRequest(**SMALL)
        assert base.fingerprint() == RunRequest(**SMALL).fingerprint()
        assert base.fingerprint() != \
            replace(base, workers=8, retries=1).fingerprint()


# ----------------------------------------------------------------------
# Kill mid-cell + resume determinism (the tentpole guarantee)
# ----------------------------------------------------------------------
class TestResumeDeterminism:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_killed_then_resumed_is_bit_identical(self, registry,
                                                  workers):
        request = RunRequest(**SMALL)
        baseline = execute_run(request, registry=registry)

        def engine():
            if workers == 1:
                return None
            return EvaluationEngine(EngineConfig(max_workers=workers))

        run_id = create_run(request, registry=registry)
        # Kill the run mid-cell: the budget dies inside cell 3 of 4.
        budget = int(baseline.evaluated * 0.6)
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=run_id,
                        engine=engine(),
                        resolve_model=budgeted_resolver(budget))
        crashed = registry.state(run_id)
        assert not crashed.finished
        assert 0 < crashed.recorded_questions < baseline.evaluated

        resumed = resume_run(run_id, registry=registry,
                             engine=engine())
        assert set(resumed.cells) == set(baseline.cells)
        for key, expected in baseline.cells.items():
            assert resumed.cells[key].metrics == expected.metrics
            assert resumed.cells[key].records == expected.records
        # Resume must reuse the ledger, not redo the whole sweep.
        assert resumed.replayed == crashed.recorded_questions
        assert resumed.evaluated == \
            baseline.evaluated - crashed.recorded_questions
        final = registry.state(run_id)
        assert final.finished and final.attempts == 2

    def test_partial_cell_reenters_at_missing_indices(self, registry):
        request = RunRequest(dataset="hard", models=("GPT-4",),
                             taxonomy_keys=("ebay",), sample_size=10)
        baseline = execute_run(request, registry=registry)
        run_id = create_run(request, registry=registry)
        kill_at = baseline.evaluated // 2
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=run_id,
                        resolve_model=budgeted_resolver(kill_at))
        (cell_state,) = registry.state(run_id).cells.values()
        assert cell_state.partial
        resumed = resume_run(run_id, registry=registry)
        assert resumed.resumed_cells == \
            tuple(key.cell_id for key in baseline.cells)
        assert resumed.evaluated == baseline.evaluated - kill_at
        (key,) = baseline.cells
        assert resumed.cells[key].records == \
            baseline.cells[key].records

    def test_resume_of_finished_run_makes_zero_model_calls(
            self, registry):
        request = RunRequest(dataset="easy", models=("GPT-4",),
                             taxonomy_keys=("ebay",), sample_size=6)
        result = execute_run(request, registry=registry)
        resumed = resume_run(result.run_id, registry=registry,
                             resolve_model=forbidden_resolver)
        assert resumed.evaluated == 0
        assert resumed.replayed == result.evaluated
        for key, expected in result.cells.items():
            assert resumed.cells[key].records == expected.records

    def test_resume_of_finished_run_writes_nothing(self, registry,
                                                   tree_bytes):
        request = RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                             sample_size=10)
        result = execute_run(request, registry=registry)
        before = tree_bytes(registry.root)
        resumed = resume_run(result.run_id, registry=registry,
                             resolve_model=forbidden_resolver)
        assert tree_bytes(registry.root) == before
        assert registry.state(result.run_id).attempts == 1
        # The run's own stats, not those of an empty second attempt.
        assert resumed.stats.records == result.evaluated == 40
        assert resumed.stats.cost_nanos == result.stats.cost_nanos > 0
        assert (resumed.evaluated, resumed.replayed) == (0, 40)

    def test_resume_of_unmerged_sharded_run_is_refused(
            self, registry, unmerged_sharded_run, tree_bytes):
        run_id = unmerged_sharded_run(registry)
        before = tree_bytes(registry.root)
        with pytest.raises(RunError,
                           match=f"`repro runs resume {run_id}`"):
            resume_run(run_id, registry=registry,
                       resolve_model=forbidden_resolver)
        assert tree_bytes(registry.root) == before
        assert not registry.ledger_path(run_id).exists()


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
class _EveryNthFlipped:
    """A 'drifted endpoint': every nth response is replaced."""

    def __init__(self, inner, nth: int = 5):
        self.inner = inner
        self.name = inner.name
        self._nth = nth
        self._calls = 0
        self._lock = threading.Lock()

    def generate(self, prompt: str) -> str:
        with self._lock:
            self._calls += 1
            flip = self._calls % self._nth == 0
        response = self.inner.generate(prompt)
        return "I don't know." if flip else response


def _reference_flips(result_a, result_b) -> list[tuple[str, ...]]:
    """``runs.diff._flips`` as it read before it stopped going through
    the ``Enum.value`` descriptor (it only takes enum members)."""
    by_uid = {record.question_uid: record
              for record in result_b.records}
    flips = []
    for record in result_a.records:
        other = by_uid.get(record.question_uid)
        if other is None or record.parsed == other.parsed:
            continue
        flips.append((record.question_uid, record.parsed.value,
                      other.parsed.value, record.expected.value))
    return flips


def _fields(flips) -> list[tuple[str, ...]]:
    return [(flip.question_uid, flip.parsed_a, flip.parsed_b,
             flip.expected) for flip in flips]


def _cell(records) -> SimpleNamespace:
    """The one part of a cell result ``_flips`` reads."""
    return SimpleNamespace(records=tuple(records))


def _record(uid: str, parsed: Answer, expected: Answer,
            plain: tuple[bool, bool] = (False, False)) -> QuestionRecord:
    """A record whose answers are enum members, or plain strings where
    ``plain`` says so (parsed, expected)."""
    return QuestionRecord(
        question_uid=uid, model="m", setting="zero-shot", response="",
        parsed=parsed.value if plain[0] else parsed,
        expected=expected.value if plain[1] else expected)


#: One question: in run A?, in run B?, parsed A, parsed B, expected,
#: and which of A's and B's answers are stored as plain strings.
_answers = st.sampled_from(list(Answer))
_question = st.tuples(st.booleans(), st.booleans(), _answers, _answers,
                      _answers, st.tuples(st.booleans(), st.booleans()),
                      st.tuples(st.booleans(), st.booleans()))


#: One ledger event: a record (cell, index, parsed, expected, prompt
#: and completion tokens), a cell start or seal, or a new attempt.
_event = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(("c0", "c1", "c2")),
              st.integers(0, 5), _answers, _answers,
              st.integers(0, 50), st.integers(0, 9)),
    st.tuples(st.just("cell-started"), st.sampled_from(("c0", "c1")),
              st.integers(1, 6)),
    st.tuples(st.just("cell-finished"), st.sampled_from(("c0", "c2"))),
    st.tuples(st.just("run-started"), st.integers(1, 3)))


def _event_line(event: tuple) -> str:
    kind = event[0]
    if kind == "record":
        _, cell, index, parsed, expected, prompt, completion = event
        return record_line(cell, index, QuestionRecord(
            question_uid=f"q{index}", model="m", setting="zero-shot",
            response="", parsed=parsed, expected=expected,
            prompt_tokens=prompt, completion_tokens=completion))
    if kind == "cell-started":
        payload = {"event": kind, "cell": event[1], "n": event[2]}
    elif kind == "cell-finished":
        payload = {"event": kind, "cell": event[1], "accuracy": 1.0,
                   "miss_rate": 0.0, "n": 1}
    else:
        payload = {"event": kind, "run_id": "r", "attempt": event[1]}
    return json.dumps(payload) + "\n"


def _recount(cell) -> tuple[int, int, int]:
    records = cell.records.values()
    return (sum(record.correct for record in records),
            sum(record.prompt_tokens for record in records),
            sum(record.completion_tokens for record in records))


class TestCellSums:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.lists(_event, max_size=8), min_size=1,
                    max_size=6),
           st.lists(st.booleans(), min_size=18, max_size=18))
    def test_sums_match_a_recount_in_every_version(self, chunks, reads):
        """Records appended over copy-on-write extensions, an index
        recorded again by a later attempt, sums read (and so kept) on
        some versions and not others: every cell's sums equal a
        recount, and no later extension changes an earlier version's."""
        versions = []
        with TemporaryDirectory() as directory:
            path = Path(directory) / "ledger.jsonl"
            path.write_bytes(b"")
            state, offset, line = None, 0, 1
            for step, chunk in enumerate(chunks):
                with path.open("a", encoding="utf-8") as handle:
                    handle.write("".join(map(_event_line, chunk)))
                state, offset, line = fold_run_ledger(
                    path, state, offset, line)
                for cell_id, cell in state.cells.items():
                    if reads[3 * step + int(cell_id[1])]:
                        cell.sums
                versions.append((state, {
                    cell_id: _recount(cell)
                    for cell_id, cell in state.cells.items()}))
        for state, recounts in versions:
            assert {cell_id: cell.sums for cell_id, cell
                    in state.cells.items()} == recounts
            assert {cell_id: _recount(cell) for cell_id, cell
                    in state.cells.items()} == recounts


    def test_an_in_place_fold_drops_the_sums_it_touches(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = _event_line(("record", "c0", 0, Answer.YES, Answer.YES,
                             5, 1))
        path.write_text(first, encoding="utf-8")
        state, offset, line = fold_run_ledger(path)
        assert state.cells["c0"].sums == (1, 5, 1)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(_event_line(("record", "c0", 1, Answer.NO,
                                      Answer.YES, 7, 2)))
        fold_ledger(path, state, _apply, offset, line)
        assert state.cells["c0"].sums == (1, 12, 3)


    def test_concurrent_readers_share_one_recount(self, tmp_path):
        """Server threads read the sums of one shared version at once:
        every reader sees the recount."""
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(
            _event_line(("record", f"c{index % 3}", index,
                         Answer.YES, list(Answer)[index % 3],
                         index, index % 5))
            for index in range(300)), encoding="utf-8")
        state = fold_run_ledger(path)[0]
        expected = {cell_id: _recount(cell)
                    for cell_id, cell in state.cells.items()}
        seen, errors = [], []

        def read() -> None:
            try:
                seen.append({cell_id: cell.sums
                             for cell_id, cell in state.cells.items()})
            except Exception as exc:        # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert seen == [expected] * 8


class TestDiff:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_question, max_size=30), st.randoms())
    def test_flips_match_the_enum_value_reference(self, questions,
                                                  rng):
        """Members and plain strings alike, uids on one side only,
        changed and unchanged answers: the same flips, in the same
        order, with the same plain-string values."""
        side_a, side_b, members_a, members_b = [], [], [], []
        for index, (in_a, in_b, parsed_a, parsed_b, expected,
                    plain_a, plain_b) in enumerate(questions):
            uid = f"q{index}"
            if in_a:
                side_a.append(_record(uid, parsed_a, expected, plain_a))
                members_a.append(_record(uid, parsed_a, expected))
            if in_b:
                side_b.append(_record(uid, parsed_b, expected, plain_b))
                members_b.append(_record(uid, parsed_b, expected))
        # Run B's order does not matter: flips follow run A's.
        rng.shuffle(side_b)
        flips = _fields(_flips(_cell(side_a), _cell(side_b)))
        assert flips == _reference_flips(_cell(members_a),
                                         _cell(members_b))
        assert all(type(value) is str
                   for flip in flips for value in flip)

    def test_a_non_answer_string_is_refused(self):
        good = _record("q", Answer.NO, Answer.YES)
        bad = QuestionRecord(question_uid="q", model="m",
                             setting="zero-shot", response="",
                             parsed="maybe", expected=Answer.YES)
        with pytest.raises(ValueError, match="maybe"):
            _flips(_cell([bad]), _cell([good]))

    def test_identical_runs_diff_clean(self, registry):
        request = RunRequest(dataset="easy", models=("GPT-4",),
                             taxonomy_keys=("ebay",), sample_size=8)
        a = execute_run(request, registry=registry)
        b = execute_run(request, registry=registry)
        diff = diff_runs(a.run_id, b.run_id, registry=registry)
        assert diff.identical
        assert diff.total_flips == 0

    def test_drifted_endpoint_shows_flips_and_deltas(self, registry):
        request = RunRequest(dataset="hard", models=("GPT-4",),
                             taxonomy_keys=("ebay",), sample_size=12)
        a = execute_run(request, registry=registry)
        b_id = create_run(request, registry=registry)
        execute_run(request, registry=registry, run_id=b_id,
                    resolve_model=lambda name:
                    _EveryNthFlipped(get_model(name), nth=4))
        diff = diff_runs(a.run_id, b_id, registry=registry)
        assert not diff.identical
        assert diff.total_flips > 0
        (cell,) = diff.cells
        (cell_a,) = load_run(a.run_id, registry=registry).cells.values()
        (cell_b,) = load_run(b_id, registry=registry).cells.values()
        assert _fields(cell.flips) == _reference_flips(cell_a, cell_b)
        assert cell.changed
        assert any(flip.regression for flip in cell.flips)
        assert cell.miss_delta > 0
        row = cell.as_row()
        assert row["flips"] == len(cell.flips)

    def test_disjoint_cell_spaces_are_reported(self, registry):
        a = execute_run(RunRequest(models=("GPT-4",),
                                   taxonomy_keys=("ebay",),
                                   sample_size=6), registry=registry)
        b = execute_run(RunRequest(models=("LLMs4OL",),
                                   taxonomy_keys=("ebay",),
                                   sample_size=6), registry=registry)
        diff = diff_runs(a, b)
        assert not diff.cells
        assert len(diff.only_in_a) == len(diff.only_in_b) == 1


# ----------------------------------------------------------------------
# Experiments route through the ledger
# ----------------------------------------------------------------------
class TestExperimentsThroughLedger:
    CONFIG = ExperimentConfig(sample_size=8,
                              models=("GPT-4", "LLMs4OL"),
                              taxonomy_keys=("ebay", "glottolog"))

    def test_overall_table_reconstructs_from_ledger_alone(
            self, registry):
        classic = run_overall(DatasetKind.HARD, self.CONFIG)
        ledgered = run_overall(DatasetKind.HARD, self.CONFIG,
                               registry=registry)
        assert ledgered.cells == classic.cells
        (run_id,) = [s.run_id for s in registry.list_runs()]
        # Reload purely from disk: no model may be instantiated.
        loaded = load_run(run_id, registry=registry)
        assert loaded.replayed > 0
        rebuilt = overall_from_run(loaded)
        assert rebuilt.cells == classic.cells
        by_id = overall_from_run(run_id, registry=registry)
        assert by_id.cells == classic.cells

    def test_levels_reconstruct_from_ledger_alone(self, registry):
        config = ExperimentConfig(sample_size=8, models=("GPT-4",),
                                  taxonomy_keys=("ebay", "ncbi"))
        classic = run_levels(config)
        ledgered = run_levels(config, registry=registry)
        assert ledgered == classic
        (run_id,) = [s.run_id for s in registry.list_runs()]
        rebuilt = levels_from_run(run_id, registry=registry)
        assert rebuilt == classic


class TestEvaluateRequest:
    """The in-memory route scores the ledgered route's cells."""

    @pytest.mark.parametrize("shape", [
        {"per_level": True, "variant": 1},
        {"settings": tuple(setting.value for setting in PromptSetting),
         "trail": True},
        {"workers": 2},
    ], ids=["per-level", "three-settings", "two-workers"])
    def test_equals_execute_run_cell_for_cell(self, registry, shape):
        request = RunRequest(models=("GPT-4", "Llama-2-7B"),
                             taxonomy_keys=("ebay", "ncbi"),
                             sample_size=6, **shape)
        memory = evaluate_request(request)
        ledgered = execute_run(request, registry=registry)
        assert list(memory.cells) == list(ledgered.cells)
        assert [(cell.pool_label, cell.model, cell.setting, cell.metrics)
                for cell in memory.cells.values()] == [
            (cell.pool_label, cell.model, cell.setting, cell.metrics)
            for cell in ledgered.cells.values()]
        assert memory.run_id is None
        assert memory.evaluated == ledgered.evaluated

    def test_writes_nothing_and_keeps_no_records(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(RUNS_ENV, str(tmp_path / "runs"))
        result = evaluate_request(RunRequest(**SMALL))
        assert not (tmp_path / "runs").exists()
        assert len(result.cells) == 4
        assert all(cell.records == () for cell in result.cells.values())


# ----------------------------------------------------------------------
# Cache persistence satellite
# ----------------------------------------------------------------------
class TestCachePersistence:
    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        cache = ResponseCache()
        cache.put("GPT-4", "p", "r")
        path = tmp_path / "cache.json"
        cache.save(path)
        cache.put("GPT-4", "p2", "r2")
        cache.save(path)  # overwrite goes through os.replace too
        assert len(ResponseCache.load(path)) == 2
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_cache_file_recovers_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"format_version": 1, "entries": [{"mo',
                        encoding="utf-8")
        cache = ResponseCache.load(path)
        assert len(cache) == 0

    def test_missing_cache_file_recovers_empty(self, tmp_path):
        cache = ResponseCache.load(tmp_path / "nope.json")
        assert len(cache) == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestRunsCli:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    @pytest.fixture()
    def runs_dir(self, tmp_path):
        return str(tmp_path / "cli-runs")

    def test_run_then_list_show_resume_diff(self, capsys, runs_dir):
        out = self._run(capsys, "run", "--models", "GPT-4",
                        "--taxonomies", "ebay", "--sample", "8",
                        "--runs-dir", runs_dir)
        assert "Ledgered run" in out and "1 cells" in out

        listing = json.loads(self._run(
            capsys, "runs", "list", "--json", "--runs-dir", runs_dir))
        assert len(listing) == 1 and listing[0]["finished"] is True
        run_id = listing[0]["run_id"]

        table = self._run(capsys, "runs", "list", "--runs-dir",
                          runs_dir)
        assert run_id in table and "finished" in table

        shown = json.loads(self._run(
            capsys, "runs", "show", run_id, "--json", "--runs-dir",
            runs_dir))
        assert shown["finished"] is True
        assert shown["manifest"]["run_id"] == run_id
        assert shown["cells"][0]["status"] == "done"

        resumed = self._run(capsys, "runs", "resume", run_id,
                            "--runs-dir", runs_dir)
        assert "0 evaluated" in resumed

        self._run(capsys, "run", "--models", "GPT-4",
                  "--taxonomies", "ebay", "--sample", "8",
                  "--runs-dir", runs_dir)
        other = json.loads(self._run(
            capsys, "runs", "list", "--json", "--runs-dir",
            runs_dir))[1]["run_id"]
        diff_out = self._run(capsys, "runs", "diff", run_id, other,
                             "--runs-dir", runs_dir)
        assert "runs are identical" in diff_out
        diff_json = json.loads(self._run(
            capsys, "runs", "diff", run_id, other, "--json",
            "--runs-dir", runs_dir))
        assert diff_json["identical"] is True

    def test_empty_registry_listing(self, capsys, runs_dir):
        out = self._run(capsys, "runs", "list", "--runs-dir", runs_dir)
        assert "no runs in registry" in out


# ----------------------------------------------------------------------
# Registry scans vs concurrent writers (consistent-snapshot contract)
# ----------------------------------------------------------------------
class TestRegistryRaceConsistency:
    """Listing must never throw because a run vanished mid-scan."""

    TINY = dict(models=("GPT-4",), taxonomy_keys=("ebay",),
                sample_size=6)

    def test_vanished_run_is_skipped_not_raised(self, registry,
                                                monkeypatch):
        result = execute_run(RunRequest(**self.TINY),
                             registry=registry)
        # Simulate a run directory swept away (gc, a remote worker)
        # between enumeration and decode.
        real_ids = registry.list_ids()
        monkeypatch.setattr(registry, "list_ids",
                            lambda: real_ids + ["ghost-01"])
        summaries = registry.list_runs()
        assert [s.run_id for s in summaries] == [result.run_id]

    def test_corrupt_manifest_is_flagged_not_raised(self, registry):
        result = execute_run(RunRequest(**self.TINY),
                             registry=registry)
        broken = create_run(RunRequest(**self.TINY),
                            registry=registry)
        registry.manifest_path(broken).write_text("{nope",
                                                  encoding="utf-8")
        summaries = registry.list_runs()
        by_id = {s.run_id: s for s in summaries}
        assert by_id[result.run_id].finished
        assert by_id[broken].status == "invalid"

    def test_missing_root_lists_empty(self, tmp_path):
        registry = RunRegistry(tmp_path / "never-created")
        assert registry.list_ids() == []
        assert registry.orphan_dirs() == []
        assert registry.list_runs() == []

    def test_unknown_run_still_raises_for_direct_lookups(self,
                                                         registry):
        with pytest.raises(UnknownRunError):
            registry.manifest("ghost-01")
        with pytest.raises(UnknownRunError):
            registry.state("ghost-01")

    def test_run_ids_are_plain_names(self, registry, capsys):
        """A run id that climbs out of its root (a tenant's registry
        nests under the server root) is an unknown run, before any
        file is opened."""
        run_id = execute_run(RunRequest(**self.TINY),
                             registry=registry).run_id
        nested = RunRegistry(registry.root / "tenants" / "t1")
        nested.root.mkdir(parents=True)
        for bad in (f"../../{run_id}", "../x", "a/b", "..", ".", "",
                    f"{run_id}/../{run_id}", "-01", "x" * 65):
            with pytest.raises(UnknownRunError):
                nested.run_dir(bad)
            with pytest.raises(UnknownRunError):
                nested.state(bad)
        with pytest.raises(UnknownRunError):
            main(["runs", "show", f"../../{run_id}", "--json",
                  "--runs-dir", str(nested.root)])
        with pytest.raises(UnknownRunError):
            main(["runs", "show", "../x", "--runs-dir",
                  str(registry.root)])
        # The ids the registry creates still resolve, and a directory
        # whose name is no run id is not listed.
        (registry.root / "not a run").mkdir()
        (registry.root / "not a run" / "manifest.json").write_text("{}")
        assert registry.list_ids() == [run_id]
        assert registry.manifest(run_id)["run_id"] == run_id
        assert main(["runs", "show", run_id, "--json", "--runs-dir",
                     str(registry.root)]) == 0
        assert json.loads(capsys.readouterr().out)["finished"] is True

    def test_listing_survives_create_delete_churn(self, registry):
        import shutil
        request = RunRequest(**self.TINY)
        anchor = execute_run(request, registry=registry)
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn() -> None:
            try:
                while not stop.is_set():
                    run_id = registry.create(request, cells=1)
                    shutil.rmtree(registry.run_dir(run_id),
                                  ignore_errors=True)
            except BaseException as exc:
                errors.append(exc)

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            for _ in range(200):
                summaries = registry.list_runs()
                # The anchor run is always visible and valid; churn
                # debris may appear or vanish but never poisons the
                # scan.
                assert anchor.run_id in \
                    [s.run_id for s in summaries]
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not errors


# ----------------------------------------------------------------------
# Registry state cache: one replay per ledger version, never stale
# ----------------------------------------------------------------------
class TestStateCache:
    TINY = dict(models=("GPT-4",), taxonomy_keys=("ebay",),
                sample_size=6)

    @pytest.fixture()
    def replays(self, monkeypatch) -> list:
        """Paths the registry replays (the real fold still runs)."""
        paths = []

        def counting(path, *args, **kwargs):
            paths.append(path)
            return fold_run_ledger(path, *args, **kwargs)

        monkeypatch.setattr("repro.runs.registry.fold_run_ledger",
                            counting)
        return paths

    @staticmethod
    def _fresh(registry, run_id):
        return replay_ledger(registry.ledger_path(run_id))

    def test_unchanged_ledger_replays_once(self, registry, replays):
        run_id = execute_run(RunRequest(**self.TINY),
                             registry=registry).run_id
        first = registry.state(run_id)
        assert registry.state(run_id) is first
        assert len(replays) == 1
        # A second registry over the same cache shares the entry.
        shared = RunRegistry(registry.root,
                             state_cache=registry.state_cache)
        assert shared.state(run_id) is first
        assert len(replays) == 1

    def test_append_is_seen(self, registry):
        run_id = execute_run(RunRequest(**SMALL, max_tokens=1),
                             registry=registry).run_id
        stopped = registry.state(run_id)
        assert stopped.budget is not None and stopped.attempts == 1
        resume_run(run_id, registry=registry)
        state = registry.state(run_id)
        assert state == self._fresh(registry, run_id)
        assert state.attempts == 2 and state.finished
        assert stopped.attempts == 1      # the old version is intact

    def test_replace_is_seen(self, registry):
        from repro.dist import execute_run_sharded, merge_run
        from repro.dist.worker import ShardLedger
        run_id = execute_run_sharded(RunRequest(**self.TINY), shards=2,
                                     registry=registry,
                                     procs=0).run_id
        assert registry.state(run_id).attempts == 1
        # A second shard attempt makes the re-merge write attempt 2.
        with ShardLedger(registry.shard_ledger_path(run_id, 0)) as ledger:
            ledger.shard_started(run_id, 0, attempt=2)
            ledger.shard_finished(0)
        merge_run(run_id, registry=registry, force=True)
        state = registry.state(run_id)
        assert state == self._fresh(registry, run_id)
        assert state.attempts == 2

    def test_delete_is_seen(self, registry):
        import shutil
        run_id = execute_run(RunRequest(**self.TINY),
                             registry=registry).run_id
        assert registry.state(run_id).finished
        registry.ledger_path(run_id).unlink()
        assert registry.state(run_id) == RunState(run_id=run_id)
        # The manifest check comes first: a swept run is unknown even
        # while its last state is still cached.
        shutil.rmtree(registry.run_dir(run_id))
        with pytest.raises(UnknownRunError):
            registry.state(run_id)

    def test_torn_tail_is_seen(self, registry):
        run_id = execute_run(RunRequest(**self.TINY),
                             registry=registry).run_id
        assert registry.state(run_id).finished
        path = registry.ledger_path(run_id)
        path.write_bytes(path.read_bytes()[:-17])
        state = registry.state(run_id)
        assert state == self._fresh(registry, run_id)
        assert not state.finished

    def test_corruption_raises_on_every_read(self, registry, replays):
        run_id = execute_run(RunRequest(**self.TINY),
                             registry=registry).run_id
        registry.state(run_id)
        path = registry.ledger_path(run_id)
        path.write_bytes(b"{garbage\n" + path.read_bytes())
        for attempt in (1, 2):
            with pytest.raises(LedgerCorruptError):
                registry.state(run_id)
            assert len(replays) == 1 + attempt     # never cached

    def test_lru_eviction_by_ledger_bytes(self, registry, replays,
                                          monkeypatch):
        runs = [execute_run(RunRequest(**self.TINY),
                            registry=registry).run_id
                for _ in range(3)]
        a, b, c = (registry.ledger_path(run_id) for run_id in runs)
        sizes = [path.stat().st_size for path in (a, b, c)]
        budget = 2 * max(sizes)          # any two fit, three do not
        monkeypatch.setattr("repro.runs.registry.STATE_CACHE_BYTES",
                            budget)
        cache = registry.state_cache
        for run_id in runs:
            registry.state(run_id)
            assert cache.bytes <= budget
        assert replays == [a, b, c]      # a, the oldest, went first
        registry.state(runs[2])
        registry.state(runs[1])
        assert replays == [a, b, c]
        registry.state(runs[0])          # evicts c, now least recent
        registry.state(runs[1])
        registry.state(runs[2])
        assert replays == [a, b, c, a, c]
        assert cache.bytes <= budget

    def test_over_budget_ledger_is_not_kept(self, registry, replays,
                                            monkeypatch):
        run_id = execute_run(RunRequest(**self.TINY),
                             registry=registry).run_id
        size = registry.ledger_path(run_id).stat().st_size
        monkeypatch.setattr("repro.runs.registry.STATE_CACHE_BYTES",
                            size - 1)
        first = registry.state(run_id)
        assert registry.state(run_id) == first
        assert len(replays) == 2
        assert registry.state_cache.bytes == 0

    def test_readers_racing_an_appender_converge(self, registry):
        import sys
        run_id = execute_run(RunRequest(**self.TINY),
                             registry=registry).run_id
        stop = threading.Event()
        finals: list[RunState] = []
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                seen = 0
                while not stop.is_set():
                    events = registry.state(run_id).events
                    # The file only grows, so no reader may go back.
                    assert events >= seen
                    seen = events
                finals.append(registry.state(run_id))
            except BaseException as exc:
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers:
                thread.start()
            with RunLedger(registry.ledger_path(run_id)) as ledger:
                for attempt in range(2, 102):
                    ledger.run_started(run_id, resumed=True,
                                       attempt=attempt)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors
        fresh = self._fresh(registry, run_id)
        assert fresh.attempts == 101
        assert len(finals) == 8
        assert all(state == fresh for state in finals)

    def test_views_count_against_the_budget(self, registry, replays,
                                            monkeypatch):
        import sys
        from repro.serve.views import run_show_body, run_trails_body
        a, b = (execute_run(RunRequest(**self.TINY, trail=True),
                            registry=registry).run_id
                for _ in range(2))
        ledger_a, ledger_b = (registry.ledger_path(run_id).stat().st_size
                              for run_id in (a, b))
        cache = registry.state_cache
        show = run_show_body(registry, a)
        summary = registry.summary(a)
        assert cache.bytes == ledger_a + len(show) + sys.getsizeof(summary)
        assert run_show_body(registry, a) is show
        assert registry.summary(a) is summary
        assert len(replays) == 1
        assert cache.bytes == ledger_a + len(show) + sys.getsizeof(summary)
        # Room for a with its views and b's ledger, but not for a's
        # trails body too: keeping it evicts b, the least recent.
        budget = cache.bytes + ledger_b
        monkeypatch.setattr("repro.runs.registry.STATE_CACHE_BYTES",
                            budget)
        registry.state(b)
        assert cache.bytes == budget
        run_show_body(registry, a)               # a is the most recent
        trails = run_trails_body(registry, a)
        assert cache.bytes == budget - ledger_b + len(trails)
        assert cache.bytes <= budget
        assert len(replays) == 2
        registry.state(b)                        # replayed again
        assert len(replays) == 3
        assert cache.bytes <= budget
        # A view that alone overflows the budget takes its entry with
        # it: nothing stale stays, and the next read builds again.
        monkeypatch.setattr("repro.runs.registry.STATE_CACHE_BYTES",
                            ledger_b + 10)
        registry.summary(b)
        assert run_show_body(registry, b) == run_show_body(registry, b)
        assert cache.bytes <= ledger_b + 10
