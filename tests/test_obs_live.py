"""Tests for live monitoring and regression gates.

The tentpole's acceptance criterion lives here: a worker killed
mid-run leaves a ledger the follower reports as partial progress and
flags ``stalled`` once the deadline passes; after ``resume_run``
finishes the job, ``repro obs check`` against a pre-kill baseline
passes, while an injected accuracy drop exits non-zero.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import threading
import time

from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LedgerCorruptError, RunError
from repro.llm.registry import get_model
from repro.obs import (AlertEvaluator, HistoryEntry, JsonlCorruptError,
                       LedgerFollower,
                       Thresholds, append_entry, check_entries,
                       entry_from_result, iter_jsonl, latest_for,
                       load_entry, read_history, render_dashboard,
                       watch_run, write_entry)
from repro.obs import jsonl
from repro.obs.jsonl import cut_torn_tail, fold_jsonl
from repro.obs.live import SpanTotals, fold_span_totals
from repro.runs import (HeartbeatWriter, RunLedger, RunRegistry,
                        RunRequest, create_run, execute_run, load_run,
                        pid_alive, read_heartbeat, replay_ledger,
                        resume_run, run_status)
from repro.runs.registry import StateCache
from repro.cli import main

SMALL = dict(models=("GPT-4",), taxonomy_keys=("ebay",),
             sample_size=8)


@pytest.fixture()
def registry(tmp_path) -> RunRegistry:
    return RunRegistry(tmp_path / "runs")


class _CrashOnceModel:
    """Wraps a model; raises once a shared call budget is spent."""

    def __init__(self, inner, counter: dict, lock: threading.Lock):
        self.inner = inner
        self.name = inner.name
        self._counter = counter
        self._lock = lock

    def generate(self, prompt: str) -> str:
        with self._lock:
            if self._counter["budget"] <= 0:
                raise RuntimeError("injected worker death")
            self._counter["budget"] -= 1
        return self.inner.generate(prompt)


def crashing_resolver(budget: int):
    counter = {"budget": budget}
    lock = threading.Lock()

    def resolve(name: str):
        return _CrashOnceModel(get_model(name), counter, lock)

    return resolve


class _SlowModel:
    """A model with a small fixed latency, for concurrent follows."""

    def __init__(self, inner, latency_s: float):
        self.inner = inner
        self.name = inner.name
        self.latency_s = latency_s

    def generate(self, prompt: str) -> str:
        time.sleep(self.latency_s)
        return self.inner.generate(prompt)


def slow_resolver(latency_s: float):
    def resolve(name: str):
        return _SlowModel(get_model(name), latency_s)

    return resolve


def _weighted_accuracy(result) -> float:
    questions = sum(cell.metrics.n for cell in result.cells.values())
    correct = sum(cell.metrics.accuracy * cell.metrics.n
                  for cell in result.cells.values())
    return correct / questions if questions else 0.0


# ----------------------------------------------------------------------
# Shared offset-aware JSONL tailing
# ----------------------------------------------------------------------
def _fold_payloads(path, base=None, offset=0, start_line=1, follow=False):
    """A log fold whose state is every payload so far, as a tuple."""
    seen = list(base or ())
    _, offset, line = fold_jsonl(
        path, lambda payload, _: seen.append(payload), _LOG, "test-line",
        _corrupt, offset, start_line, follow)
    return tuple(seen), offset, line


def _corrupt(path: str, line: int, reason: str) -> JsonlCorruptError:
    return JsonlCorruptError(path, line, reason)


_LOG = logging.getLogger("repro.tests.tail")


class _Tail:
    """One log read the way ``LedgerFollower`` reads each of its two:
    through ``StateCache.follow``, a missing file being nothing yet.
    Each poll returns the payloads appended since the previous one."""

    def __init__(self, path):
        self.path = path
        self.cache = StateCache()
        self.version = None

    def poll(self) -> list[dict]:
        before = self.version.state if self.version is not None else ()
        try:
            self.version = self.cache.follow(self.path, self.version,
                                             _fold_payloads)
        except FileNotFoundError:
            return []
        return list(self.version.state[len(before):])


class TestIterJsonl:
    def test_reads_records_with_line_numbers_and_offset(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n', encoding="utf-8")
        batch = iter_jsonl(path)
        assert batch.payloads == [{"a": 1}, {"b": 2}]
        assert [line for line, _ in batch.records] == [1, 2]
        assert batch.offset == path.stat().st_size
        assert batch.next_line == 3 and not batch.torn

    def test_resumes_from_offset(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n', encoding="utf-8")
        first = iter_jsonl(path)
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"b": 2}\n')
        second = iter_jsonl(path, offset=first.offset,
                            start_line=first.next_line)
        assert second.payloads == [{"b": 2}]
        assert second.records[0][0] == 2

    def test_torn_final_line_left_for_the_next_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b":', encoding="utf-8")
        batch = iter_jsonl(path)
        assert batch.payloads == [{"a": 1}]
        assert batch.torn and batch.torn_line == 2
        # The torn bytes were not consumed: completing the line and
        # re-reading from the returned offset yields the record.
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(' 2}\n')
        resumed = iter_jsonl(path, offset=batch.offset,
                             start_line=batch.next_line)
        assert resumed.payloads == [{"b": 2}] and not resumed.torn

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\nnot json\n{"c": 3}\n',
                        encoding="utf-8")
        with pytest.raises(JsonlCorruptError) as excinfo:
            iter_jsonl(path)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("content, kept", [
        ('{"a": 1}\n', '{"a": 1}\n'),
        ('{"a": 1}\n{"b":', '{"a": 1}\n'),
        ('{"b":', ""),
        ('{"a": 1}\n' + "x" * (2 * jsonl._TAIL_BLOCK + 7), '{"a": 1}\n'),
        ("x" * (2 * jsonl._TAIL_BLOCK + 7), ""),
        ("", ""),
    ], ids=["clean", "torn", "only-torn", "newline-blocks-back",
            "no-newline", "empty"])
    def test_cut_torn_tail_keeps_complete_lines(self, tmp_path,
                                                content, kept):
        path = tmp_path / "log.jsonl"
        path.write_text(content, encoding="utf-8")
        cut_torn_tail(path)
        assert path.read_text(encoding="utf-8") == kept
        cut_torn_tail(tmp_path / "missing.jsonl")
        assert not (tmp_path / "missing.jsonl").exists()

    def test_tail_polls_only_the_appended_bytes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        tail = _Tail(path)
        assert tail.poll() == []          # missing file: not an error
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"a": 1}\n{"b":')
        assert tail.poll() == [{"a": 1}]
        assert tail.poll() == []          # torn tail not consumed
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(' 2}\n')
        assert tail.poll() == [{"b": 2}]

    def test_concurrent_writer_with_torn_appends(self, tmp_path):
        """A writer tearing every line mid-append never corrupts or
        drops a record for a concurrently polling tail."""
        path = tmp_path / "log.jsonl"
        total = 40

        def writer():
            with open(path, "a", encoding="utf-8") as stream:
                for index in range(total):
                    line = json.dumps({"i": index}) + "\n"
                    stream.write(line[:4])        # deliberately torn
                    stream.flush()
                    time.sleep(0.001)
                    stream.write(line[4:])
                    stream.flush()

        thread = threading.Thread(target=writer)
        thread.start()
        tail = _Tail(path)
        seen: list[dict] = []
        while thread.is_alive():
            seen.extend(tail.poll())
            time.sleep(0.002)
        thread.join()
        seen.extend(tail.poll())
        assert seen == [{"i": index} for index in range(total)]


# ----------------------------------------------------------------------
# Heartbeat and status folding
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_first_beat_is_synchronous(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        with HeartbeatWriter(path, interval_s=60.0):
            beat = read_heartbeat(path)
            assert beat is not None
            assert beat["pid"] == os.getpid()
        assert read_heartbeat(path) is not None   # left behind

    def test_unreadable_heartbeat_is_treated_as_absent(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        path.write_text("{torn", encoding="utf-8")
        assert read_heartbeat(path) is None
        assert read_heartbeat(tmp_path / "missing.json") is None

    def test_pid_alive(self):
        assert pid_alive(os.getpid()) is True
        assert pid_alive(-5) is False
        assert pid_alive("not a pid") is False
        assert pid_alive(None) is False

    def test_run_status_folds_the_three_signals(self):
        now = 1000.0
        live = {"pid": os.getpid(), "ts": now - 1.0}
        assert run_status(True, None, None) == "finished"
        assert run_status(False, None, now, now=now) == "crashed"
        dead = {"pid": -5, "ts": now - 1.0}
        assert run_status(False, dead, now, now=now) == "crashed"
        assert run_status(False, live, now - 2.0, now=now,
                          stall_deadline_s=30.0) == "running"
        stale = {"pid": os.getpid(), "ts": now - 120.0}
        assert run_status(False, stale, now - 120.0, now=now,
                          stall_deadline_s=30.0) == "stalled"
        # A fresh ledger keeps a stale heartbeat "running" and
        # vice versa: only both sitting still means stalled.
        assert run_status(False, stale, now - 1.0, now=now,
                          stall_deadline_s=30.0) == "running"

    def test_registry_status_of_finished_and_crashed(self, registry):
        result = execute_run(RunRequest(**SMALL), registry=registry)
        assert registry.status(result.run_id) == "finished"
        summary = registry.summary(result.run_id)
        assert summary.status == "finished"
        assert summary.as_row()["status"] == "finished"

    def test_registry_status_crashed_when_pid_is_gone(self, registry):
        run_id = create_run(RunRequest(**SMALL), registry=registry)
        crash = crashing_resolver(3)
        with pytest.raises(RuntimeError):
            execute_run(RunRequest(**SMALL), registry=registry,
                        run_id=run_id, resolve_model=crash)
        # Rewrite the heartbeat as if its writer process had died.
        registry.heartbeat_path(run_id).write_text(
            json.dumps({"pid": -5, "ts": time.time()}),
            encoding="utf-8")
        assert registry.status(run_id) == "crashed"
        assert registry.summary(run_id).status == "crashed"


# ----------------------------------------------------------------------
# LedgerFollower
# ----------------------------------------------------------------------
class TestLedgerFollower:
    def test_snapshot_of_finished_run_matches_load_run(self, registry):
        result = execute_run(RunRequest(**SMALL), registry=registry)
        follower = LedgerFollower(result.run_id, registry=registry)
        progress = follower.poll()
        loaded = load_run(result.run_id, registry=registry)
        assert progress.finished and progress.status == "finished"
        assert progress.cells_done == len(loaded.cells)
        assert progress.questions_done == sum(
            cell.metrics.n for cell in loaded.cells.values())
        assert progress.accuracy == pytest.approx(
            _weighted_accuracy(loaded))
        assert progress.eta_s is None
        # A second poll consumes nothing and agrees (up to the
        # wall-clock age fields).
        def stable(snapshot):
            return {key: value
                    for key, value in snapshot.to_dict().items()
                    if not key.endswith("_age_s")}
        assert stable(follower.poll()) == stable(progress)

    def test_concurrent_follow_converges_to_post_hoc_state(
            self, registry):
        request = RunRequest(workers=4, **SMALL)
        run_id = create_run(request, registry=registry)
        errors: list[Exception] = []

        def writer():
            try:
                execute_run(request, registry=registry, run_id=run_id,
                            resolve_model=slow_resolver(0.003))
            except Exception as exc:  # pragma: no cover - test guard
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        follower = LedgerFollower(run_id, registry=registry)
        seen: list[int] = []
        while thread.is_alive():
            seen.append(follower.poll().questions_done)
            time.sleep(0.005)
        thread.join()
        assert not errors
        assert seen == sorted(seen)       # progress is monotone
        final = follower.poll()
        state = replay_ledger(registry.ledger_path(run_id))
        loaded = load_run(run_id, registry=registry)
        assert final.finished and final.status == "finished"
        assert final.attempts == state.attempts
        assert final.questions_done == sum(
            len(cell.records) for cell in state.cells.values())
        assert final.accuracy == pytest.approx(
            _weighted_accuracy(loaded))

    def test_killed_run_reports_partial_progress_then_stalls(
            self, registry):
        request = RunRequest(**SMALL)
        run_id = create_run(request, registry=registry)
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=run_id,
                        resolve_model=crashing_resolver(5))
        follower = LedgerFollower(run_id, registry=registry)
        progress = follower.poll()
        assert not progress.finished
        assert 0 < progress.questions_done < progress.questions_planned
        assert progress.status == "running"   # deadline not yet hit
        time.sleep(0.02)
        stalled = LedgerFollower(run_id, registry=registry,
                                 stall_deadline_s=0.0).poll()
        assert stalled.status == "stalled"
        # Resume finishes the run; the follower flips to finished.
        resume_run(run_id, registry=registry)
        assert follower.poll().status == "finished"

    def test_eta_counts_down_and_clears_on_finish(self, registry):
        request = RunRequest(**SMALL)
        run_id = create_run(request, registry=registry)
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=run_id,
                        resolve_model=crashing_resolver(5))
        partial = LedgerFollower(run_id, registry=registry).poll()
        assert partial.eta_s is not None and partial.eta_s >= 0.0
        assert partial.throughput > 0.0

    def test_unknown_run_raises(self, registry):
        with pytest.raises(RunError):
            LedgerFollower("no-such-run", registry=registry)

    def test_dashboard_renders_bars_and_stall_banner(self, registry):
        result = execute_run(RunRequest(**SMALL), registry=registry)
        progress = LedgerFollower(result.run_id,
                                  registry=registry).poll()
        frame = render_dashboard(progress)
        assert f"run {result.run_id} [finished]" in frame
        assert "[########################]" in frame
        progress.status = "stalled"
        assert "stalled" in render_dashboard(progress)


# ----------------------------------------------------------------------
# A budget stop settles the run; it is not a stall
# ----------------------------------------------------------------------
#: Stops after the first of its two cells.
BUDGETED = RunRequest(models=("GPT-4", "LLMs4OL"), taxonomy_keys=("ebay",),
                      sample_size=6, max_tokens=1)


class TestBudgetStop:
    @pytest.fixture()
    def stopped(self, registry) -> str:
        result = execute_run(BUDGETED, registry=registry)
        assert result.budget is not None and len(result.cells) == 1
        return result.run_id

    def test_follower_reports_the_stop_a_minute_later(self, registry,
                                                      stopped):
        later = LedgerFollower(stopped, registry=registry,
                               clock=lambda: time.time() + 60.0).poll()
        assert later.status == "budget-stopped"
        assert not later.finished and later.eta_s is None
        breached = {row["name"] for row in AlertEvaluator().assess(later)
                    if row["breached"]}
        assert not breached & {"run-stalled", "throughput-floor"}

    def test_elapsed_time_ends_at_the_stop(self, registry, stopped):
        ts = {event["event"]: event["ts"] for event in
              iter_jsonl(registry.ledger_path(stopped)).payloads
              if "ts" in event}
        later = LedgerFollower(stopped, registry=registry,
                               clock=lambda: time.time() + 60.0).poll()
        assert later.elapsed_s == pytest.approx(
            ts["budget-exhausted"] - ts["run-started"])

    def test_a_new_attempt_clears_the_stop(self, registry, stopped):
        ledger = RunLedger(registry.ledger_path(stopped))
        ledger.run_started(stopped, resumed=True, attempt=2)
        ledger.close()
        with HeartbeatWriter(registry.heartbeat_path(stopped)):
            assert replay_ledger(
                registry.ledger_path(stopped)).budget is None
            [summary] = registry.list_runs()
            assert summary.status == "running"
            progress = LedgerFollower(stopped, registry=registry).poll()
        assert progress.status == "running"
        assert progress.budget is None

    def test_watch_run_returns_on_the_stop(self, registry, stopped):
        frames: list[str] = []

        def emit(frame: str) -> None:
            frames.append(frame)
            assert len(frames) < 5, "watch_run kept polling"

        progress = watch_run(stopped, registry=registry, interval_s=0.01,
                             emit=emit)
        assert progress.status == "budget-stopped"
        assert f"run {stopped} [budget-stopped]" in frames[-1]


# ----------------------------------------------------------------------
# History and the regression gate
# ----------------------------------------------------------------------
class TestHistory:
    def test_execute_run_appends_one_entry(self, registry):
        result = execute_run(RunRequest(**SMALL), registry=registry)
        entries = read_history(registry)
        assert len(entries) == 1
        entry = entries[0]
        assert entry.run_id == result.run_id
        assert entry.questions == sum(
            cell.metrics.n for cell in result.cells.values())
        assert entry.accuracy == pytest.approx(
            _weighted_accuracy(result))
        assert entry.throughput > 0 and entry.wall_time_s > 0
        assert set(entry.cell_accuracy) == {
            key.cell_id for key in result.cells}

    def test_resume_appends_an_entry_with_bumped_attempts(
            self, registry):
        request = RunRequest(**SMALL)
        run_id = create_run(request, registry=registry)
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=run_id,
                        resolve_model=crashing_resolver(5))
        assert read_history(registry) == []   # no seal, no entry
        resume_run(run_id, registry=registry)
        entries = read_history(registry)
        assert len(entries) == 1
        assert entries[0].run_id == run_id
        assert entries[0].attempts == 2

    def test_entry_round_trips_through_files(self, tmp_path, registry):
        result = execute_run(RunRequest(**SMALL), registry=registry)
        entry = read_history(registry)[0]
        assert HistoryEntry.from_dict(
            json.loads(json.dumps(entry.to_dict()))) == entry
        path = write_entry(entry, tmp_path / "baseline.json")
        assert load_entry(path) == entry
        with pytest.raises(RunError):
            load_entry(tmp_path / "missing.json")
        assert latest_for([entry], run_id=result.run_id) == entry
        assert latest_for([entry], run_id="other") is None

    def test_torn_history_tail_is_tolerated(self, registry):
        execute_run(RunRequest(**SMALL), registry=registry)
        with open(registry.history_path(), "a",
                  encoding="utf-8") as stream:
            stream.write('{"run_id": "torn')
        assert len(read_history(registry)) == 1


class TestRegressionGate:
    def _entry(self, **overrides) -> HistoryEntry:
        base = dict(run_id="base-01", finished_at=0.0, dataset="hard",
                    attempts=1, cells=2, questions=100, accuracy=0.9,
                    wall_time_s=2.0, throughput=50.0,
                    latency_p50_s=0.01, latency_p99_s=0.1,
                    cache_hit_rate=0.0,
                    cell_accuracy={"a": 0.92, "b": 0.88})
        base.update(overrides)
        return HistoryEntry(**base)

    def test_identical_entries_pass(self):
        report = check_entries(self._entry(),
                               self._entry(run_id="cand-01"))
        assert report.passed and not report.failures
        metrics = {check.metric for check in report.checks}
        assert metrics == {"accuracy_drop_pts",
                           "throughput_drop_pct", "p99_blowup_pct"}

    def test_overall_accuracy_drop_fails(self):
        candidate = self._entry(run_id="cand-01", accuracy=0.85,
                                cell_accuracy={"a": 0.87, "b": 0.83})
        report = check_entries(self._entry(), candidate,
                               Thresholds(accuracy_drop_pts=1.0))
        assert not report.passed
        failed = {(check.metric, check.scope)
                  for check in report.failures}
        assert ("accuracy_drop_pts", "overall") in failed
        assert ("accuracy_drop_pts", "a") in failed

    def test_single_cell_regression_cannot_hide_in_the_mean(self):
        # Cell b collapses while a improves; overall barely moves.
        candidate = self._entry(run_id="cand-01", accuracy=0.895,
                                cell_accuracy={"a": 0.99, "b": 0.80})
        report = check_entries(self._entry(), candidate,
                               Thresholds(accuracy_drop_pts=1.0))
        assert not report.passed
        assert any(check.scope == "b" for check in report.failures)

    def test_throughput_and_p99_gates(self):
        slow = self._entry(run_id="cand-01", throughput=10.0,
                           latency_p99_s=0.5)
        report = check_entries(self._entry(), slow, Thresholds(
            throughput_drop_pct=50.0, p99_blowup_pct=200.0))
        failed = {check.metric for check in report.failures}
        assert failed == {"throughput_drop_pct", "p99_blowup_pct"}

    def test_zero_baseline_perf_is_skipped_not_failed(self):
        baseline = self._entry(throughput=0.0, latency_p99_s=0.0)
        report = check_entries(baseline, self._entry(run_id="c"))
        metrics = {check.metric for check in report.checks}
        assert metrics == {"accuracy_drop_pts"}
        assert report.passed

    def test_kill_resume_then_check_against_prekill_baseline(
            self, registry, tmp_path):
        """The acceptance scenario end to end."""
        request = RunRequest(**SMALL)
        baseline_run = execute_run(request, registry=registry)
        baseline_path = write_entry(read_history(registry)[0],
                                    tmp_path / "baseline.json")
        run_id = create_run(request, registry=registry)
        with pytest.raises(RuntimeError):
            execute_run(request, registry=registry, run_id=run_id,
                        resolve_model=crashing_resolver(5))
        resume_run(run_id, registry=registry)
        candidate = latest_for(read_history(registry))
        assert candidate.run_id == run_id
        report = check_entries(load_entry(baseline_path), candidate,
                               Thresholds(throughput_drop_pct=99.0,
                                          p99_blowup_pct=10_000.0))
        # Pools and models are pure functions of the request, so the
        # resumed run's accuracy is bit-identical to the baseline's.
        assert report.passed
        assert candidate.accuracy == pytest.approx(
            _weighted_accuracy(baseline_run))


# ----------------------------------------------------------------------
# CLI: watch / obs history / obs check
# ----------------------------------------------------------------------
class TestLiveCli:
    def _run(self, capsys, *argv: str, code: int = 0) -> str:
        assert main(list(argv)) == code
        return capsys.readouterr().out

    @pytest.fixture()
    def runs_dir(self, tmp_path):
        return str(tmp_path / "cli-runs")

    @pytest.fixture()
    def finished_run(self, capsys, runs_dir) -> str:
        self._run(capsys, "run", "--models", "GPT-4",
                  "--taxonomies", "ebay", "--sample", "8",
                  "--runs-dir", runs_dir)
        listing = json.loads(self._run(
            capsys, "runs", "list", "--json", "--runs-dir", runs_dir))
        return listing[0]["run_id"]

    def test_watch_once_json_reports_progress(self, capsys, runs_dir,
                                              finished_run):
        snapshot = json.loads(self._run(
            capsys, "watch", finished_run, "--once", "--json",
            "--runs-dir", runs_dir))
        assert snapshot["status"] == "finished"
        assert snapshot["questions_done"] == \
            snapshot["questions_planned"] > 0
        assert snapshot["cells"][0]["complete"] is True

    def test_watch_once_dashboard_and_follow_alias(
            self, capsys, runs_dir, finished_run):
        frame = self._run(capsys, "watch", finished_run, "--once",
                          "--runs-dir", runs_dir)
        assert f"run {finished_run} [finished]" in frame
        followed = self._run(capsys, "runs", "show", finished_run,
                             "--follow", "--runs-dir", runs_dir)
        assert f"run {finished_run} finished" in followed

    def test_runs_list_shows_live_status(self, capsys, runs_dir,
                                         finished_run):
        listing = json.loads(self._run(
            capsys, "runs", "list", "--json", "--runs-dir", runs_dir))
        assert listing[0]["status"] == "finished"

    def test_obs_history_lists_the_series(self, capsys, runs_dir,
                                          finished_run):
        table = self._run(capsys, "obs", "history", "--runs-dir",
                          runs_dir)
        assert finished_run in table and "accuracy" in table
        entries = json.loads(self._run(
            capsys, "obs", "history", "--json", "--last", "1",
            "--runs-dir", runs_dir))
        assert len(entries) == 1
        assert entries[0]["run_id"] == finished_run

    def test_obs_check_passes_and_gates(self, capsys, runs_dir,
                                        finished_run):
        out = self._run(capsys, "obs", "check", "--baseline",
                        finished_run, "--runs-dir", runs_dir)
        assert "PASS" in out
        # Inject a regressed entry and gate against the good one.
        registry = RunRegistry(runs_dir)
        good = latest_for(read_history(registry))
        bad = dataclasses.replace(
            good, run_id="regressed-01",
            accuracy=good.accuracy - 0.10,
            cell_accuracy={cell: acc - 0.10 for cell, acc
                           in good.cell_accuracy.items()})
        append_entry(bad, registry)
        out = self._run(capsys, "obs", "check", "--baseline",
                        finished_run, "--run", "regressed-01",
                        "--runs-dir", runs_dir, code=1)
        assert "FAIL" in out
        verdict = json.loads(self._run(
            capsys, "obs", "check", "--baseline", finished_run,
            "--run", "regressed-01", "--json", "--runs-dir",
            runs_dir, code=1))
        assert verdict["passed"] is False

    def test_obs_check_baseline_file_round_trip(self, capsys, tmp_path,
                                                runs_dir,
                                                finished_run):
        baseline = str(tmp_path / "baseline.json")
        self._run(capsys, "obs", "check", "--write-baseline",
                  baseline, "--runs-dir", runs_dir)
        out = self._run(capsys, "obs", "check", "--baseline-file",
                        baseline, "--runs-dir", runs_dir)
        assert "PASS" in out

    def test_obs_check_without_history_fails_loudly(self, capsys,
                                                    runs_dir):
        with pytest.raises(RunError):
            main(["obs", "check", "--baseline", "x",
                  "--runs-dir", runs_dir])


# ----------------------------------------------------------------------
# Concurrent readers (the serving layer's sharing contract)
# ----------------------------------------------------------------------
class TestConcurrentFollowers:
    """One run, many readers — the ``repro.serve`` hub's contract."""

    READERS = 6

    #: Snapshot fields that depend on the poll clock rather than the
    #: ledger contents.
    VOLATILE = ("ts", "elapsed_s", "throughput", "eta_s",
                "heartbeat_age_s", "progress_age_s")

    def _stable(self, snapshot: dict) -> dict:
        return {key: value for key, value in snapshot.items()
                if key not in self.VOLATILE}

    def test_one_shared_follower_polled_by_many_threads(self,
                                                        registry):
        request = RunRequest(**SMALL)
        run_id = create_run(request, registry=registry)
        follower = LedgerFollower(run_id, registry=registry)
        stop = threading.Event()
        errors: list[BaseException] = []
        polls = [0] * self.READERS

        def reader(slot: int) -> None:
            try:
                while not stop.is_set():
                    follower.poll()
                    polls[slot] += 1
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(self.READERS)]
        for thread in threads:
            thread.start()
        try:
            result = execute_run(request, registry=registry,
                                 run_id=run_id,
                                 resolve_model=slow_resolver(0.001))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        assert all(count > 0 for count in polls)
        # The shared, heavily contended follower converges to the
        # exact post-hoc state.
        final = follower.poll()
        loaded = load_run(run_id, registry=registry)
        assert final.finished
        assert final.questions_done == sum(
            cell.metrics.n for cell in loaded.cells.values())
        assert final.correct == round(
            _weighted_accuracy(loaded) * final.questions_done)
        assert {cell.cell_id for cell in final.cells} == \
            {key.cell_id for key in loaded.cells}
        for cell in final.cells:
            assert cell.complete and cell.done == cell.expected

    def test_k_independent_followers_converge_identically(self,
                                                          registry):
        request = RunRequest(**SMALL)
        result = execute_run(request, registry=registry)
        followers = [LedgerFollower(result.run_id, registry=registry)
                     for _ in range(self.READERS)]
        snapshots: list[dict] = [None] * self.READERS
        errors: list[BaseException] = []

        def follow(slot: int) -> None:
            try:
                snapshots[slot] = followers[slot].poll().to_dict()
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=follow, args=(slot,))
                   for slot in range(self.READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        stable = [self._stable(snapshot) for snapshot in snapshots]
        assert all(snapshot == stable[0] for snapshot in stable[1:])
        assert stable[0]["finished"] is True
        assert stable[0]["questions_done"] == result.evaluated


# ----------------------------------------------------------------------
# The follower reads through the registry's one cache
# ----------------------------------------------------------------------
#: ``RunProgress.to_dict``'s keys, in the order every JSON view of a
#: snapshot has always written them.
PROGRESS_KEYS = [
    "run_id", "status", "attempts", "finished", "cells_planned",
    "cells_started", "cells_done", "questions_done", "questions_planned",
    "correct", "accuracy", "retries", "faults", "spans", "elapsed_s",
    "throughput", "eta_s", "latency_p50_s", "latency_p99_s",
    "heartbeat_age_s", "progress_age_s", "stall_deadline_s",
    "prompt_tokens", "completion_tokens", "cost_nanos", "cost_usd",
    "budget", "cells"]
CELL_KEYS = ["cell", "expected", "done", "correct", "accuracy",
             "complete"]


def _totals(totals: SpanTotals) -> tuple:
    return (totals.latency.to_dict(), totals.retries, totals.faults,
            totals.spans)


def _append(path, data: bytes) -> None:
    with open(path, "ab") as stream:
        stream.write(data)


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> tuple[bytes, bytes, bytes]:
    """A finished two-cell run's manifest, ledger and span log, as
    bytes."""
    registry = RunRegistry(tmp_path_factory.mktemp("written"))
    run_id = execute_run(RunRequest(models=("GPT-4",),
                                    taxonomy_keys=("ebay", "ncbi"),
                                    sample_size=6, workers=2),
                         registry=registry).run_id
    return tuple(path.read_bytes() for path in (
        registry.manifest_path(run_id), registry.ledger_path(run_id),
        registry.spans_path(run_id)))


class TestFollowerReadsTheCache:
    @pytest.mark.parametrize("kind", ["live", "budget-stopped",
                                      "finished"])
    def test_snapshot_keys_keep_their_order(self, registry, kind):
        if kind == "live":
            run_id = create_run(RunRequest(**SMALL), registry=registry)
            with pytest.raises(RuntimeError):
                execute_run(RunRequest(**SMALL), registry=registry,
                            run_id=run_id,
                            resolve_model=crashing_resolver(5))
        else:
            request = BUDGETED if kind == "budget-stopped" else \
                RunRequest(**SMALL)
            run_id = execute_run(request, registry=registry).run_id
        progress = LedgerFollower(run_id, registry=registry).poll()
        assert progress.status == {"live": "running"}.get(kind, kind)
        payload = progress.to_dict()
        assert list(payload) == PROGRESS_KEYS
        assert payload["accuracy"] == progress.accuracy
        assert payload["cost_usd"] == progress.cost_usd
        assert payload["cells"] and all(
            list(cell) == CELL_KEYS for cell in payload["cells"])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_polls_over_torn_chunks_equal_one_shot_folds(self, written,
                                                         data):
        manifest, ledger, spans = written
        cuts = [sorted(data.draw(st.lists(
                    st.integers(0, len(log)), max_size=6)))
                for log in (ledger, spans)]
        steps = max(map(len, cuts)) + 1
        cuts = [cut + [len(log)] * (steps - len(cut))
                for cut, log in zip(cuts, (ledger, spans))]
        with TemporaryDirectory() as directory:
            registry = RunRegistry(Path(directory) / "runs")
            run_id = "0123456789ab-01"
            registry.run_dir(run_id).mkdir(parents=True)
            registry.manifest_path(run_id).write_bytes(manifest)
            paths = (registry.ledger_path(run_id),
                     registry.spans_path(run_id))
            for path in paths:
                path.write_bytes(b"")
            follower = LedgerFollower(run_id, registry=registry)
            held: list[tuple] = []
            written_so_far = [0, 0]
            for step in range(steps):
                for index, (path, log) in enumerate(zip(paths,
                                                        (ledger, spans))):
                    cut = cuts[index][step]
                    _append(path, log[written_so_far[index]:cut])
                    written_so_far[index] = cut
                follower.poll()
                # Fresh files: truncating one is slow on some mounts.
                scratch = [Path(directory) / f"{log}-{step}.jsonl"
                           for log in ("ledger", "spans")]
                cut = cuts[0][step]
                scratch[0].write_bytes(ledger[:ledger.rfind(b"\n", 0, cut)
                                              + 1])
                state = replay_ledger(scratch[0])
                assert follower.ledger.state == state
                cut = cuts[1][step]
                scratch[1].write_bytes(spans[:spans.rfind(b"\n", 0, cut)
                                             + 1])
                totals = _totals(fold_span_totals(scratch[1])[0])
                assert _totals(follower.spans.state) == totals
                held.append((follower.ledger.state, state,
                             follower.spans.state, totals))
                # No later poll changed a version an earlier one gave.
                for kept, replayed, kept_spans, folded in held:
                    assert kept == replayed
                    assert _totals(kept_spans) == folded

    def test_a_poll_folds_only_the_appended_lines(self, registry, folds):
        run_id = execute_run(RunRequest(**SMALL),
                             registry=registry).run_id
        ledger = registry.ledger_path(run_id)
        follower = LedgerFollower(run_id, registry=registry)
        follower.poll()
        assert [(name, start) for name, _, start, _, _ in folds] == [
            ("fold_run_ledger", 0), ("fold_span_totals", 0)]
        folds.clear()
        follower.poll()                    # nothing appended
        assert folds == []
        size = ledger.stat().st_size
        with RunLedger(ledger) as writer:
            writer.run_started(run_id, resumed=True, attempt=2)
        progress = follower.poll()
        assert [(name, path, start, end)
                for name, path, start, end, _ in folds] == [
            ("fold_run_ledger", ledger, size, ledger.stat().st_size)]
        assert follower.ledger.state == replay_ledger(ledger)
        assert progress.attempts == 2 and not progress.finished
        spans = registry.spans_path(run_id)
        size = spans.stat().st_size
        folds.clear()
        _append(spans, spans.read_bytes().splitlines(keepends=True)[0])
        assert follower.poll().spans == progress.spans + 1
        assert [(name, start) for name, _, start, _, _ in folds] == [
            ("fold_span_totals", size)]

    def test_an_over_budget_ledger_still_folds_only_the_tail(
            self, registry, folds, monkeypatch):
        run_id = execute_run(RunRequest(**SMALL),
                             registry=registry).run_id
        ledger = registry.ledger_path(run_id)
        monkeypatch.setattr("repro.runs.registry.STATE_CACHE_BYTES",
                            ledger.stat().st_size - 1)
        follower = LedgerFollower(run_id, registry=registry)
        follower.poll()
        assert registry.state_cache.current(ledger) is None  # not kept
        for attempt in (2, 3):
            size = ledger.stat().st_size
            folds.clear()
            with RunLedger(ledger) as writer:
                writer.run_started(run_id, resumed=True, attempt=attempt)
            assert follower.poll().attempts == attempt
            assert [(name, start) for name, _, start, _, _ in folds] == [
                ("fold_run_ledger", size)]
        assert follower.ledger.state == replay_ledger(ledger)

    def test_an_inode_swap_and_a_shrink_fold_from_byte_0(self, registry,
                                                         folds):
        from repro.dist import execute_run_sharded, merge_run
        from repro.dist.worker import ShardLedger
        run_id = execute_run_sharded(RunRequest(**SMALL), shards=2,
                                     registry=registry, procs=0).run_id
        ledger = registry.ledger_path(run_id)
        follower = LedgerFollower(run_id, registry=registry)
        assert follower.poll().attempts == 1
        with ShardLedger(registry.shard_ledger_path(run_id, 0)) as shard:
            shard.shard_started(run_id, 0, attempt=2)
            shard.shard_finished(0)
        merge_run(run_id, registry=registry, force=True)
        folds.clear()
        assert follower.poll().attempts == 2
        assert ("fold_run_ledger", 0) in [
            (name, start) for name, _, start, _, _ in folds]
        assert follower.ledger.state == replay_ledger(ledger)
        ledger.write_bytes(ledger.read_bytes()[:-17])    # same inode
        folds.clear()
        assert not follower.poll().finished
        assert [(name, start) for name, _, start, _, _ in folds] == [
            ("fold_run_ledger", 0)]
        assert follower.ledger.state == replay_ledger(ledger)

    def test_a_bad_tail_is_retried_then_refused_as_a_replay_refuses(
            self, registry, caplog, propagating_logs):
        run_id = execute_run(RunRequest(**SMALL),
                             registry=registry).run_id
        ledger = registry.ledger_path(run_id)
        follower = LedgerFollower(run_id, registry=registry)
        follower.poll()
        events = follower.ledger.state.events
        with caplog.at_level(logging.WARNING, logger="repro"):
            _append(ledger, b'{"event": "run-st')        # in flight
            follower.poll()
            _append(ledger, b'arted"}\n')            # decodes, no apply
            follower.poll()
        assert caplog.text == ""          # a poll logs nothing for them
        assert follower.ledger.state.events == events
        assert follower.ledger.state == replay_ledger(ledger)
        _append(ledger, b'{"event": "later"}\n')
        with pytest.raises(LedgerCorruptError) as replayed:
            replay_ledger(ledger)
        with pytest.raises(LedgerCorruptError) as polled:
            follower.poll()
        assert str(polled.value) == str(replayed.value)
        rejected = ledger.read_bytes().count(b"\n") - 1
        assert f"{ledger}:{rejected}:" in str(polled.value)

    def test_followers_and_readers_racing_an_appender(self, registry):
        """Private followers and cached readers share versions while a
        writer appends: no version anyone got ever changes after."""
        import sys
        run_id = execute_run(RunRequest(**SMALL),
                             registry=registry).run_id
        ledger = registry.ledger_path(run_id)
        stop = threading.Event()
        seen: list[list] = [[] for _ in range(6)]
        errors: list[BaseException] = []

        def follow(slot: int) -> None:
            follower = LedgerFollower(run_id, registry=registry)
            try:
                while not stop.is_set():
                    follower.poll()
                    state = follower.ledger.state
                    seen[slot].append((state, state.events,
                                       state.attempts))
                follower.poll()
                seen[slot].append((follower.ledger.state, None, None))
            except BaseException as exc:
                errors.append(exc)

        def read(slot: int) -> None:
            try:
                while not stop.is_set():
                    state = registry.state(run_id)
                    seen[slot].append((state, state.events,
                                       state.attempts))
            except BaseException as exc:
                errors.append(exc)

        threads = ([threading.Thread(target=follow, args=(slot,))
                    for slot in range(4)]
                   + [threading.Thread(target=read, args=(slot,))
                      for slot in (4, 5)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            with RunLedger(ledger) as writer:
                for attempt in range(2, 62):
                    writer.run_started(run_id, resumed=True,
                                       attempt=attempt)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        fresh = replay_ledger(ledger)
        assert fresh.attempts == 61
        for slot, records in enumerate(seen):
            events = [state.events for state, _, _ in records]
            assert events == sorted(events), slot   # never backwards
            for state, count, attempts in records[:-1]:
                assert (state.events, state.attempts) == (count, attempts)
        assert all(records[-1][0] == fresh for records in seen[:4])
