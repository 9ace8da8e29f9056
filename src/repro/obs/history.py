"""Cross-run history and the CI regression gate.

Every completed run folds one line into an append-only
``history.jsonl`` in the runs registry root: accuracy per cell, wall
time, throughput, p50/p99 latency and cache hit rate.  The file is the
registry's metric *time series* — where ``runs diff`` answers "what
changed between these two runs?", history answers "how has this sweep
been trending?" and, gated by :func:`check_entries`, "did the latest
run regress past what we tolerate?".

``repro obs history`` lists the series; ``repro obs check --baseline
<run-id>`` compares the latest entry against a baseline with
configurable thresholds — accuracy drop in percentage points,
throughput drop in percent, p99 latency blowup in percent, run cost
blowup in percent — and exits
non-zero on violation, which is what ``scripts/check.sh`` and CI wire
in as an SLO gate against a committed baseline entry.
"""

from __future__ import annotations

import json
import logging
import time
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from repro.engine.telemetry import EngineStats
from repro.errors import RunError
from repro.obs.jsonl import (append_shared, dumps_line, fold_jsonl,
                             replace_text)
from repro.runs.registry import RunRegistry

_log = logging.getLogger("repro.obs.history")


@dataclass(frozen=True, slots=True, kw_only=True)
class HistoryEntry:
    """One completed run, folded to the metrics worth trending.

    Each default is what an entry written before its field existed
    decodes to (:meth:`from_dict`), so the schema stays
    backward-compatible.
    """

    run_id: str
    finished_at: float
    dataset: str = ""
    attempts: int = 1
    cells: int
    questions: int
    #: Question-weighted accuracy over every cell.
    accuracy: float
    wall_time_s: float = 0.0
    throughput: float = 0.0
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    cache_hit_rate: float = 0.0
    retries: int = 0
    faults: int = 0
    #: Batched-engine counters.
    batches: int = 0
    coalesced: int = 0
    hedged: int = 0
    #: Shard fan-out the run executed with (1 = single process), so
    #: check baselines recorded at different fan-outs stay
    #: distinguishable even though their metrics must be identical.
    shards: int = 1
    #: Token/cost accounting (the gate skips a cost check whose
    #: baseline is zero).
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_nanos: int = 0
    #: Per-cell accuracy (cell id -> accuracy), the unit the
    #: regression gate compares.
    cell_accuracy: dict[str, float] = field(default_factory=dict)

    @property
    def cost_usd(self) -> float:
        return self.cost_nanos / 1e9

    def to_dict(self) -> dict[str, object]:
        payload = {name: getattr(self, name) for name in _ENTRY_FIELDS}
        payload["cell_accuracy"] = dict(self.cell_accuracy)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HistoryEntry":
        """Decode one entry: an absent field takes its default, and
        every scalar is coerced to its declared type."""
        try:
            values = {name: kind(payload[name] if default is MISSING
                                 else payload.get(name, default))
                      for name, kind, default in _ENTRY_SCALARS}
            values["cell_accuracy"] = {
                str(cell): float(acc)
                for cell, acc in dict(
                    payload.get("cell_accuracy") or {}).items()}
            return cls(**values)
        except (KeyError, TypeError, ValueError) as exc:
            raise RunError(
                f"malformed history entry: {exc}") from exc

    def as_row(self) -> dict[str, object]:
        return {
            "run_id": self.run_id,
            "finished_at": time.strftime(
                "%Y-%m-%d %H:%M:%S",
                time.localtime(self.finished_at)),
            "dataset": self.dataset,
            "cells": self.cells,
            "questions": self.questions,
            "shards": self.shards,
            "accuracy": f"{self.accuracy:.3f}",
            "wall_s": f"{self.wall_time_s:.3f}",
            "q_per_s": f"{self.throughput:.1f}",
            "p50_ms": f"{self.latency_p50_s * 1e3:.2f}",
            "p99_ms": f"{self.latency_p99_s * 1e3:.2f}",
            "hit_rate": f"{self.cache_hit_rate:.3f}",
            "tokens": self.prompt_tokens + self.completion_tokens,
            "cost_usd": f"{self.cost_usd:.4f}",
            "batches": self.batches,
            "coalesced": self.coalesced,
            "hedged": self.hedged,
        }


#: Every :class:`HistoryEntry` field, in declaration order (the
#: ``history.jsonl`` key order).
_ENTRY_FIELDS = tuple(f.name for f in fields(HistoryEntry))
_ENTRY_TYPES = get_type_hints(HistoryEntry)
#: ``(name, declared type, default or MISSING)`` of every scalar field.
_ENTRY_SCALARS = tuple(
    (f.name, _ENTRY_TYPES[f.name], f.default)
    for f in fields(HistoryEntry) if f.name != "cell_accuracy")
#: The entry fields :class:`EngineStats` has as a field or a property.
_FROM_STATS = tuple(name for name in _ENTRY_FIELDS
                    if hasattr(EngineStats, name))


# ----------------------------------------------------------------------
# Building and persisting entries
# ----------------------------------------------------------------------
def entry_from_result(run_id: str, dataset: str,
                      cell_metrics: Mapping[str, object],
                      stats=None, attempts: int = 1,
                      finished_at: float | None = None,
                      shards: int = 1) -> HistoryEntry:
    """Fold a completed run into one history entry.

    ``cell_metrics`` maps cell id -> :class:`repro.core.metrics
    .Metrics`; ``stats`` is the run's :class:`EngineStats` snapshot,
    which supplies every entry field it has as a field or a property
    (``None`` leaves those at their zero defaults rather than failing
    — the accuracy series must survive stats-less ledgers).
    """
    questions = sum(metrics.n for metrics in cell_metrics.values())
    weighted = sum(metrics.accuracy * metrics.n
                   for metrics in cell_metrics.values())
    copied = ({} if stats is None
              else {name: getattr(stats, name)
                    for name in _FROM_STATS})
    return HistoryEntry(
        run_id=run_id,
        finished_at=(time.time() if finished_at is None
                     else finished_at),
        dataset=dataset,
        attempts=max(1, attempts),
        cells=len(cell_metrics),
        questions=questions,
        accuracy=(weighted / questions if questions else 0.0),
        shards=max(1, shards),
        cell_accuracy={cell_id: metrics.accuracy
                       for cell_id, metrics
                       in sorted(cell_metrics.items())},
        **copied,
    )


def append_entry(entry: HistoryEntry,
                 registry: RunRegistry | None = None) -> Path:
    """Append one entry to the registry's ``history.jsonl``.

    Other processes append to the same file, so a torn append is never
    cut: the entry starts on a fresh line instead
    (:func:`repro.obs.jsonl.append_shared`), and a torn append costs
    only its own entry.
    """
    registry = (registry if registry is not None
                else RunRegistry())
    path = registry.history_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    append_shared(path, dumps_line(entry.to_dict()))
    return path


def read_history(registry: RunRegistry | None = None
                 ) -> list[HistoryEntry]:
    """Every history entry, oldest first.

    A line that does not decode — torn, wherever it sits — is dropped
    with a warning; an entry of an unknown shape is skipped.
    """
    registry = (registry if registry is not None
                else RunRegistry())
    path = registry.history_path()
    if not path.exists():
        return []
    entries = []

    def add(payload: dict, _: str) -> None:
        try:
            entries.append(HistoryEntry.from_dict(payload))
        except RunError:
            pass        # forward-compatible skip of alien shapes

    fold_jsonl(path, add, _log, "torn-history-line")
    return entries


def load_entry(path: str | Path) -> HistoryEntry:
    """A single entry from a standalone JSON file (the committed
    CI baseline)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise RunError(f"cannot load baseline {path}: {exc}") from exc
    return HistoryEntry.from_dict(payload)


def write_entry(entry: HistoryEntry, path: str | Path) -> Path:
    """Atomically persist one entry as a standalone baseline file."""
    return replace_text(path,
                        json.dumps(entry.to_dict(), indent=1) + "\n")


def latest_for(entries: list[HistoryEntry],
               run_id: str | None = None) -> HistoryEntry | None:
    """Newest entry (optionally restricted to one run id)."""
    for entry in reversed(entries):
        if run_id is None or entry.run_id == run_id:
            return entry
    return None


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Thresholds:
    """What the gate tolerates between baseline and candidate."""

    #: Maximum accuracy drop, in percentage points (overall and
    #: per shared cell).
    accuracy_drop_pts: float = 1.0
    #: Maximum throughput drop, percent of the baseline.
    throughput_drop_pct: float = 50.0
    #: Maximum p99 latency increase, percent of the baseline.
    p99_blowup_pct: float = 200.0
    #: Maximum run-cost increase, percent of the baseline.
    cost_blowup_pct: float = 20.0
    #: Maximum cache-hit-rate drop, in percentage points.  A silent
    #: cache regression shows up as cost/latency later; gating the
    #: rate itself catches it at the source.
    cache_hit_drop_pts: float = 10.0


@dataclass(frozen=True, slots=True)
class CheckResult:
    """One gate comparison (a metric, possibly scoped to a cell)."""

    metric: str
    scope: str
    baseline: float
    candidate: float
    delta: float                       # in the threshold's unit
    limit: float
    ok: bool

    def as_row(self) -> dict[str, object]:
        return {
            "metric": self.metric,
            "scope": self.scope,
            "baseline": f"{self.baseline:.4f}",
            "candidate": f"{self.candidate:.4f}",
            "delta": f"{self.delta:+.2f}",
            "limit": f"{self.limit:.2f}",
            "verdict": "ok" if self.ok else "FAIL",
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "metric": self.metric, "scope": self.scope,
            "baseline": self.baseline, "candidate": self.candidate,
            "delta": self.delta, "limit": self.limit, "ok": self.ok,
        }


@dataclass(frozen=True, slots=True)
class RegressionReport:
    """The gate's full verdict for one baseline/candidate pair."""

    baseline_id: str
    candidate_id: str
    checks: tuple[CheckResult, ...]
    thresholds: Thresholds

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.ok)

    def rows(self) -> list[dict[str, object]]:
        return [check.as_row() for check in self.checks]

    def to_dict(self) -> dict[str, object]:
        return {
            "baseline": self.baseline_id,
            "candidate": self.candidate_id,
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
        }


def check_entries(baseline: HistoryEntry, candidate: HistoryEntry,
                  thresholds: Thresholds | None = None
                  ) -> RegressionReport:
    """Compare a candidate entry against a baseline.

    Accuracy is checked overall *and* per shared cell (a regression
    confined to one model x taxonomy cell must not hide inside a flat
    average); throughput and p99 latency are checked overall.  A
    perf check whose baseline is zero (stats-less ledger) is skipped
    rather than failed.
    """
    thresholds = thresholds if thresholds is not None else Thresholds()
    checks: list[CheckResult] = []

    def accuracy_check(scope: str, base: float, cand: float) -> None:
        drop_pts = (base - cand) * 100.0
        checks.append(CheckResult(
            metric="accuracy_drop_pts", scope=scope, baseline=base,
            candidate=cand, delta=drop_pts,
            limit=thresholds.accuracy_drop_pts,
            ok=drop_pts <= thresholds.accuracy_drop_pts))

    accuracy_check("overall", baseline.accuracy, candidate.accuracy)
    for cell_id, base_acc in baseline.cell_accuracy.items():
        cand_acc = candidate.cell_accuracy.get(cell_id)
        if cand_acc is None:
            continue
        accuracy_check(cell_id, base_acc, cand_acc)

    if baseline.throughput > 0:
        drop_pct = (1.0 - candidate.throughput
                    / baseline.throughput) * 100.0
        checks.append(CheckResult(
            metric="throughput_drop_pct", scope="overall",
            baseline=baseline.throughput,
            candidate=candidate.throughput, delta=drop_pct,
            limit=thresholds.throughput_drop_pct,
            ok=drop_pct <= thresholds.throughput_drop_pct))

    if baseline.latency_p99_s > 0:
        blowup_pct = (candidate.latency_p99_s
                      / baseline.latency_p99_s - 1.0) * 100.0
        checks.append(CheckResult(
            metric="p99_blowup_pct", scope="overall",
            baseline=baseline.latency_p99_s,
            candidate=candidate.latency_p99_s, delta=blowup_pct,
            limit=thresholds.p99_blowup_pct,
            ok=blowup_pct <= thresholds.p99_blowup_pct))

    if baseline.cost_nanos > 0:
        cost_pct = (candidate.cost_nanos
                    / baseline.cost_nanos - 1.0) * 100.0
        checks.append(CheckResult(
            metric="cost_blowup_pct", scope="overall",
            baseline=baseline.cost_usd,
            candidate=candidate.cost_usd, delta=cost_pct,
            limit=thresholds.cost_blowup_pct,
            ok=cost_pct <= thresholds.cost_blowup_pct))

    if baseline.cache_hit_rate > 0:
        drop_pts = (baseline.cache_hit_rate
                    - candidate.cache_hit_rate) * 100.0
        checks.append(CheckResult(
            metric="cache_hit_drop_pts", scope="overall",
            baseline=baseline.cache_hit_rate,
            candidate=candidate.cache_hit_rate, delta=drop_pts,
            limit=thresholds.cache_hit_drop_pts,
            ok=drop_pts <= thresholds.cache_hit_drop_pts))

    return RegressionReport(
        baseline_id=baseline.run_id, candidate_id=candidate.run_id,
        checks=tuple(checks), thresholds=thresholds)
