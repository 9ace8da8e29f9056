"""Tests for repro.runs: ledger, resume determinism, registry, diff."""

from __future__ import annotations

import json
import threading
from dataclasses import replace

import pytest

from repro.core.results import (QuestionRecord, metrics_from_dict,
                                metrics_to_dict, record_from_dict,
                                record_to_dict)
from repro.engine.cache import ResponseCache
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EvaluationEngine
from repro.errors import (LedgerCorruptError, RunError,
                          UnknownRunError)
from repro.experiments.config import ExperimentConfig
from repro.experiments.levels import (levels_from_run, run_levels)
from repro.experiments.overall import (overall_from_run, run_overall)
from repro.llm.registry import get_model
from repro.questions.model import Answer, DatasetKind
from repro.runs import (CellKey, RunLedger, RunRegistry, RunRequest,
                        create_run, diff_runs, execute_run, load_run,
                        replay_ledger, resume_run)
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


class TestDiff:
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
        cache = ResponseCache.load(tmp_path / "nope.json",
                                   capacity=4)
        assert len(cache) == 0 and cache.capacity == 4


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
