"""The crash contract of every file the harness writes.

Every whole document goes through one atomic replace and every
single-writer log through one appender and one fold
(``repro.obs.jsonl``).  These tests fail each atomic write point
mid-write and at its rename and check that the previous bytes survive
with no temp file left behind, holding every writer to the bytes it
has always written; tear the ledger and the span log at any byte and
check that a resume converges to an uninterrupted run's bytes; and
check that a torn append to the shared ``history.jsonl`` costs only
its own entry and that ``repro runs gc`` on a served root keeps every
tenant.
"""

from __future__ import annotations

import errno
import io
import json
import logging
import os
import stat
import time
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.metrics import Metrics
from repro.core.results import QuestionRecord
from repro.dist import execute_run_sharded, gc_runs, merge_run, plan_shards
from repro.dist import merge as merge_module
from repro.dist.planner import save_shard_plan
from repro.engine.cache import ResponseCache
from repro.errors import LedgerCorruptError, RunError
from repro.obs import jsonl
from repro.obs.export import JsonlSpanSink, read_spans_jsonl
from repro.obs.history import (HistoryEntry, append_entry, read_history,
                               write_entry)
from repro.obs.tracer import Span
from repro.questions.model import Answer
from repro.runs import RunRegistry, RunRequest, execute_run, load_run
from repro.runs.heartbeat import HeartbeatWriter
from repro.runs.ledger import RunLedger, replay_ledger
from repro.runs.registry import TENANTS_DIRNAME
from repro.store.artifacts import ArtifactStore

REQUEST = dict(dataset="mcq", models=("GPT-4", "LLMs4OL"),
               taxonomy_keys=("ebay",), settings=("zero-shot",),
               sample_size=4, seed="crash")


def _dumped(payload, **kwargs) -> bytes:
    """``payload`` as the document writers have always encoded it:
    ``json.dump`` into a UTF-8 text stream."""
    stream = io.StringIO()
    json.dump(payload, stream, **kwargs)
    return stream.getvalue().encode("utf-8")


def _entry(version: int) -> HistoryEntry:
    return HistoryEntry(
        run_id=f"run-{version:02d}", finished_at=1.5, dataset="mcq",
        attempts=1, cells=2, questions=8, accuracy=0.5 + version / 10,
        wall_time_s=0.25, throughput=32.0, latency_p50_s=0.001,
        latency_p99_s=0.002, cache_hit_rate=0.0,
        cell_accuracy={"a": 0.5, "bé": 0.75})


# ----------------------------------------------------------------------
# The atomic-replace writers
# ----------------------------------------------------------------------
class _Manifest:
    def __init__(self, root: Path):
        self.registry = RunRegistry(root / "runs")
        self.run_id = "0123456789ab-01"
        self.registry.run_dir(self.run_id).mkdir(parents=True)
        self.target = self.registry.manifest_path(self.run_id)

    def write(self, version: int) -> None:
        self.registry._write_manifest(self.run_id,
                                      RunRequest(**REQUEST), version)

    def expected(self, version: int) -> bytes:
        # created_at is the clock's: re-encode what was written.
        payload = json.loads(self.target.read_bytes())
        assert payload["cells"] == version
        return _dumped(payload, indent=1)


class _Heartbeat:
    def __init__(self, root: Path):
        self.target = root / "run" / "heartbeat.json"

    def write(self, version: int) -> None:
        with HeartbeatWriter(self.target, interval_s=3600.0,
                             clock=lambda: float(version)):
            pass

    def expected(self, version: int) -> bytes:
        return _dumped({"pid": os.getpid(),
                        "ts": float(version),
                        "started_ts": float(version),
                        "interval_s": 3600.0})


class _ShardPlan:
    def __init__(self, root: Path):
        self.registry = RunRegistry(root / "runs")
        self.plans = {version: plan_shards(RunRequest(**REQUEST), version)
                      for version in (1, 2)}
        self.target = self.registry.shard_plan_path("0123456789ab-01")

    def write(self, version: int) -> None:
        save_shard_plan(self.registry, "0123456789ab-01",
                        self.plans[version])

    def expected(self, version: int) -> bytes:
        return _dumped(self.plans[version].to_dict(), indent=1)


class _Cache:
    def __init__(self, root: Path):
        self.target = root / "cache" / "cache.json"

    def _cache(self, version: int) -> ResponseCache:
        cache = ResponseCache()
        for index in range(version):
            cache.put("GPT-4", f"prompt é {index}", f"yes {index}")
        return cache

    def write(self, version: int) -> None:
        self._cache(version).save(self.target)

    def expected(self, version: int) -> bytes:
        return _dumped(self._cache(version).to_dict(), indent=1)


class _StoreArtifact:
    def __init__(self, root: Path):
        self.store = ArtifactStore(root / "store")
        self.target = root / "store" / "ebay" / "f00d.json"

    def _payload(self, version: int) -> dict:
        return {"taxonomy_key": "ebay", "fingerprint": "f00d",
                "version": version, "names": ["A é", "B"]}

    def write(self, version: int) -> None:
        failures = self.store.stats.save_failures
        self.store.save_payload(self._payload(version))
        # The store logs and counts a failed write instead of raising.
        if self.store.stats.save_failures != failures:
            raise OSError("artifact-save-failed")

    def expected(self, version: int) -> bytes:
        return _dumped(self._payload(version), separators=(",", ":"))


class _Baseline:
    def __init__(self, root: Path):
        self.target = root / "baselines" / "baseline.json"

    def write(self, version: int) -> None:
        write_entry(_entry(version), self.target)

    def expected(self, version: int) -> bytes:
        return (json.dumps(_entry(version).to_dict(), indent=1)
                + "\n").encode("utf-8")


class _Merged:
    """A finished 2-shard run, re-merged on every write."""

    def __init__(self, root: Path, target: str):
        self.registry = RunRegistry(root / "runs")
        self.run_id = execute_run_sharded(
            RunRequest(**REQUEST), shards=2, registry=self.registry,
            procs=0).run_id
        self.target = self.registry.run_dir(self.run_id) / target
        self.reference = _without_clock(self.target.read_bytes())
        # Start unmerged: the first write is the run's first merge.
        for name in ("ledger.jsonl", "spans.jsonl"):
            (self.registry.run_dir(self.run_id) / name).unlink()

    def write(self, version: int) -> None:
        merge_run(self.run_id, registry=self.registry, force=True)

    def expected(self, version: int) -> bytes:
        return self.reference


def _without_clock(data: bytes) -> bytes:
    """A merged ledger or span log without the lines the clock
    writes (run-started, run-finished, the merged ``run`` span)."""
    return b"".join(
        line for line in data.splitlines(keepends=True)
        if b'"ts":' not in line and b'"name":"run"' not in line)


def _stable(name: str, data: bytes) -> bytes:
    return _without_clock(data) if name.startswith("merged") else data


WRITERS = {
    "manifest": _Manifest,
    "heartbeat": _Heartbeat,
    "shard-plan": _ShardPlan,
    "cache": _Cache,
    "store-artifact": _StoreArtifact,
    "baseline": _Baseline,
    "merged-ledger": lambda root: _Merged(root, "ledger.jsonl"),
    "merged-spans": lambda root: _Merged(root, "spans.jsonl"),
}


def _torn(path: str | Path) -> None:
    """Leave the first half of a written file, as a kill or a full
    disk mid-write does."""
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:len(data) // 2])


def _no_space() -> OSError:
    return OSError(errno.ENOSPC, "No space left on device")


def _fail_rename(monkeypatch) -> None:
    """The temp file tears and the swap fails."""
    real = os.replace

    def replace(src, dst):
        if str(src).endswith(".tmp"):
            _torn(src)
            raise _no_space()
        return real(src, dst)

    monkeypatch.setattr("os.replace", replace)


def _fail_write(monkeypatch) -> None:
    """The block writing the temp file dies after a torn write."""
    real = jsonl.replacing

    @contextmanager
    def replacing(target):
        with real(target) as tmp:
            yield tmp
            _torn(tmp)
            raise _no_space()

    for module in (jsonl, merge_module):
        monkeypatch.setattr(module, "replacing", replacing)


@pytest.mark.parametrize("existing", [False, True],
                         ids=["first-write", "overwrite"])
@pytest.mark.parametrize("fault", ["write", "rename"])
@pytest.mark.parametrize("name", list(WRITERS))
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch,
                                              name, fault, existing):
    writer = WRITERS[name](tmp_path)
    before = None
    if existing:
        writer.write(1)
        before = writer.target.read_bytes()
        assert _stable(name, before) == writer.expected(1)
    with monkeypatch.context() as patch:
        if fault == "rename":
            _fail_rename(patch)
        else:
            _fail_write(patch)
        with pytest.raises(OSError):
            writer.write(2)
    if existing:
        assert writer.target.read_bytes() == before
    else:
        assert not writer.target.exists()
    assert not list(tmp_path.rglob("*.tmp"))
    writer.write(2)
    assert _stable(name, writer.target.read_bytes()) == writer.expected(2)


def test_merge_killed_before_its_ledger_stays_mergeable(tmp_path,
                                                        monkeypatch):
    writer = _Merged(tmp_path, "spans.jsonl")

    def write_spans(spans, path, append=False):
        raise _no_space()

    with monkeypatch.context() as patch:
        patch.setattr(merge_module, "write_spans_jsonl", write_spans)
        with pytest.raises(OSError):
            writer.write(1)
    # The merged ledger is swapped in last, so the run is still
    # unmerged and a plain merge (no force) completes it.
    assert not writer.registry.state(writer.run_id).finished
    merge_run(writer.run_id, registry=writer.registry)
    assert _without_clock(writer.target.read_bytes()) == writer.reference
    assert load_run(writer.run_id, registry=writer.registry).cells


@pytest.mark.parametrize("umask", [0o022, 0o077],
                         ids=["umask-022", "umask-077"])
@pytest.mark.parametrize("name", list(WRITERS))
def test_replaced_file_gets_the_mode_an_appended_log_gets(tmp_path,
                                                          name, umask):
    """The umask, not the temp file's creator, sets a replaced
    document's mode, so a reader that can read a run's appended
    ledger can read every document beside it."""
    previous = os.umask(umask)
    try:
        writer = WRITERS[name](tmp_path)
        writer.write(1)
        appended = tmp_path / "appended" / "ledger.jsonl"
        with RunLedger(appended) as ledger:
            ledger.run_started("0123456789ab-01", attempt=1)
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(writer.target.stat().st_mode)
    assert mode == stat.S_IMODE(appended.stat().st_mode)
    assert mode == 0o666 & ~umask


# ----------------------------------------------------------------------
# The single-writer logs, torn at any byte
# ----------------------------------------------------------------------
def _records(cell: str, n: int) -> list[QuestionRecord]:
    return [QuestionRecord(
        question_uid=f"{cell}-q{index}", model="GPT-4",
        setting="zero-shot", response=f"Yes é \"{index}\"",
        parsed=Answer.YES, expected=(Answer.YES, Answer.NO)[index % 2],
        prompt_tokens=10 + index, completion_tokens=2)
        for index in range(n)]


#: One uninterrupted run's ledger events, none of which reads the clock.
LEDGER_EVENTS = [
    event
    for cell, n in (("GPT-4/ebay/zero-shot", 3), ("LLMs4OL/ebay", 4))
    for event in (
        ("cell_started", cell, n),
        *(("record", cell, index, record)
          for index, record in enumerate(_records(cell, n))),
        ("cell_finished", cell,
         Metrics(accuracy=0.5, miss_rate=0.0, n=n)))
]

SPANS = [Span(name=("question", "cell")[index % 5 == 4],
              span_id=index + 1, parent_id=None if index % 5 == 4 else 5,
              start_s=index * 0.25, end_s=index * 0.25 + 0.125,
              thread_id=7, attrs={"uid": f"q{index}", "note": "é"})
         for index in range(10)]


def _write_ledger(path: Path, events) -> None:
    with RunLedger(path) as ledger:
        for method, *args in events:
            getattr(ledger, method)(*args)


def _write_spans(path: Path, spans) -> None:
    with JsonlSpanSink(path) as sink:
        for span in spans:
            sink(span)


@cache
def _uninterrupted(kind: str) -> bytes:
    with TemporaryDirectory() as directory:
        path = Path(directory) / "log.jsonl"
        if kind == "ledger":
            _write_ledger(path, LEDGER_EVENTS)
        else:
            _write_spans(path, SPANS)
        return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ledger_killed_at_any_byte_resumes_to_the_same_bytes(data):
    full = _uninterrupted("ledger")
    cut = data.draw(st.integers(min_value=0, max_value=len(full)))
    complete = full[:full.rfind(b"\n", 0, cut) + 1]
    with TemporaryDirectory() as directory:
        path = Path(directory) / "ledger.jsonl"
        path.write_bytes(full[:cut])
        state = replay_ledger(path)
        # The reader sees exactly the complete lines ...
        assert state.events == complete.count(b"\n")
        with RunLedger(path):
            pass
        # ... reopening cuts the torn one ...
        assert path.read_bytes() == complete
        # ... and a resume from what the reader saw is the
        # uninterrupted run.
        _write_ledger(path, LEDGER_EVENTS[state.events:])
        assert path.read_bytes() == full
        assert replay_ledger(path).events == len(LEDGER_EVENTS)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_span_log_killed_at_any_byte_resumes_to_the_same_bytes(data):
    full = _uninterrupted("spans")
    cut = data.draw(st.integers(min_value=0, max_value=len(full)))
    complete = full[:full.rfind(b"\n", 0, cut) + 1]
    with TemporaryDirectory() as directory:
        path = Path(directory) / "spans.jsonl"
        path.write_bytes(full[:cut])
        seen = read_spans_jsonl(path)
        assert list(seen) == SPANS[:complete.count(b"\n")]
        with JsonlSpanSink(path):
            pass
        assert path.read_bytes() == complete
        _write_spans(path, SPANS[len(seen):])
        assert path.read_bytes() == full
        assert list(read_spans_jsonl(path)) == SPANS


READERS = {
    "ledger": (lambda path: replay_ledger(path).events,
               len(LEDGER_EVENTS), "ledger-torn-line dropped",
               LedgerCorruptError, "corrupt ledger {path}:{line}: "),
    "spans": (lambda path: len(read_spans_jsonl(path)), len(SPANS),
              "torn-span-line dropped", ValueError,
              "corrupt span log {path} at line {line}: "),
}


@pytest.mark.parametrize("log", list(READERS))
def test_unappliable_line_is_dropped_last_and_refused_earlier(
        tmp_path, caplog, propagating_logs, log):
    read, complete, warning, error, message = READERS[log]
    full = _uninterrupted(log)
    unappliable = b'{"event": "record"}\n'     # decodes, folds as neither
    path = tmp_path / f"{log}.jsonl"
    path.write_bytes(full + unappliable)
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert read(path) == complete
    assert warning in caplog.text
    for data, line in ((unappliable + full, 1),
                       (full + unappliable + b'{"torn',
                        full.count(b"\n") + 1)):
        path.write_bytes(data)
        with pytest.raises(error) as refused:
            read(path)
        assert str(refused.value).startswith(
            message.format(path=path, line=line))


def test_closed_writers_keep_their_contracts(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    ledger.close()
    with pytest.raises(RunError, match="ledger is closed"):
        ledger.record("c", 0, _records("c", 1)[0])
    sink = JsonlSpanSink(tmp_path / "spans.jsonl")
    sink.close()
    sink(SPANS[0])                  # dropped, not raised
    assert (tmp_path / "spans.jsonl").read_bytes() == b""


# ----------------------------------------------------------------------
# The shared history log
# ----------------------------------------------------------------------
def test_torn_history_append_costs_only_its_own_entry(
        tmp_path, capsys, caplog, propagating_logs):
    registry = RunRegistry(tmp_path / "runs")
    append_entry(_entry(1), registry)
    with open(registry.history_path(), "a", encoding="utf-8") as stream:
        stream.write('{"run_id": "torn-by-a-kill", "finish')
    append_entry(_entry(2), registry)
    append_entry(_entry(3), registry)
    assert read_history(registry) == [_entry(1), _entry(2), _entry(3)]
    assert "torn-history-line dropped" in caplog.text
    assert main(["obs", "history", "--json",
                 "--runs-dir", str(registry.root)]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert [entry["run_id"] for entry in listed] \
        == ["run-01", "run-02", "run-03"]


# ----------------------------------------------------------------------
# Garbage collection on a served root
# ----------------------------------------------------------------------
def test_gc_on_a_served_root_keeps_every_tenant(tmp_path):
    root = tmp_path / "served"
    default = execute_run(RunRequest(**REQUEST),
                          registry=RunRegistry(root))
    tenant = RunRegistry(root / TENANTS_DIRNAME / "t1")
    tenant_run = execute_run(RunRequest(**REQUEST), registry=tenant)
    crashed = root / "0123456789ab-01"
    crashed.mkdir()
    later = time.time() + 7200
    report = gc_runs(registry=RunRegistry(root), dry_run=True, now=later)
    assert [(Path(c.path), c.reason) for c in report.removed] \
        == [(crashed, "orphan-run")]
    gc_runs(registry=RunRegistry(root), now=later)
    assert not crashed.exists()
    assert load_run(tenant_run.run_id, registry=tenant).cells
    assert load_run(default.run_id, registry=RunRegistry(root)).cells
