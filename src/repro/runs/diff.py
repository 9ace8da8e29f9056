"""Diffing two ledgered runs: metric deltas and answer flips.

``diff_runs(a, b)`` lines two runs up cell by cell (same model, pool
and setting) and reports, for every shared cell, the accuracy / miss
deltas plus the individual questions whose *parsed answer changed* —
the unit of regression a benchmark campaign actually debugs ("which
questions did the new endpoint start getting wrong?").  Cells present
in only one run are listed separately instead of silently dropped.

Both sides load from their ledgers alone, so diffing costs zero model
calls no matter how large the sweeps were.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.metrics import Metrics
from repro.engine.telemetry import EngineStats
from repro.questions.model import Answer
from repro.runs.driver import CellKey, RunResult, coerce_run
from repro.runs.registry import RunRegistry


class QuestionFlip(NamedTuple):
    """One question whose parsed answer differs between the runs.

    A named tuple, not a dataclass: a diff builds one per flipped
    question, and a frozen dataclass costs about twice as much to
    construct.  So a flip also equals a plain tuple of the same four
    values; copy one with ``_replace``, not ``dataclasses.replace``.
    """

    question_uid: str
    parsed_a: str
    parsed_b: str
    expected: str

    @property
    def regression(self) -> bool:
        """True when run A was correct and run B no longer is."""
        return (self.parsed_a == self.expected
                and self.parsed_b != self.expected)

    @property
    def improvement(self) -> bool:
        return (self.parsed_a != self.expected
                and self.parsed_b == self.expected)

    def to_dict(self) -> dict[str, str]:
        return {"question_uid": self.question_uid,
                "parsed_a": self.parsed_a, "parsed_b": self.parsed_b,
                "expected": self.expected}


@dataclass(frozen=True, slots=True)
class CellDiff:
    """One shared cell, compared."""

    key: CellKey
    metrics_a: Metrics
    metrics_b: Metrics
    flips: tuple[QuestionFlip, ...]

    @property
    def accuracy_delta(self) -> float:
        return self.metrics_b.accuracy - self.metrics_a.accuracy

    @property
    def miss_delta(self) -> float:
        return self.metrics_b.miss_rate - self.metrics_a.miss_rate

    @property
    def changed(self) -> bool:
        return bool(self.flips) or self.metrics_a != self.metrics_b

    def as_row(self) -> dict[str, object]:
        return {
            "cell": self.key.cell_id,
            "acc_a": f"{self.metrics_a.accuracy:.3f}",
            "acc_b": f"{self.metrics_b.accuracy:.3f}",
            "d_acc": f"{self.accuracy_delta:+.3f}",
            "miss_a": f"{self.metrics_a.miss_rate:.3f}",
            "miss_b": f"{self.metrics_b.miss_rate:.3f}",
            "d_miss": f"{self.miss_delta:+.3f}",
            "flips": len(self.flips),
            "regressions": sum(1 for flip in self.flips
                               if flip.regression),
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "cell": self.key.cell_id,
            "accuracy_a": self.metrics_a.accuracy,
            "accuracy_b": self.metrics_b.accuracy,
            "accuracy_delta": self.accuracy_delta,
            "miss_a": self.metrics_a.miss_rate,
            "miss_b": self.metrics_b.miss_rate,
            "miss_delta": self.miss_delta,
            "flips": [flip.to_dict() for flip in self.flips],
        }


@dataclass(frozen=True, slots=True)
class RunDiff:
    """Full comparison of two runs."""

    run_a: str
    run_b: str
    cells: tuple[CellDiff, ...]
    only_in_a: tuple[str, ...]
    only_in_b: tuple[str, ...]
    #: Persisted engine snapshots (``None`` for pre-stats ledgers).
    stats_a: EngineStats | None = None
    stats_b: EngineStats | None = None

    @property
    def changed_cells(self) -> tuple[CellDiff, ...]:
        return tuple(cell for cell in self.cells if cell.changed)

    @property
    def total_flips(self) -> int:
        return sum(len(cell.flips) for cell in self.cells)

    @property
    def identical(self) -> bool:
        return (not self.changed_cells and not self.only_in_a
                and not self.only_in_b)

    def perf_summary(self) -> dict[str, float] | None:
        """Wall-clock, throughput and cost deltas, when both runs
        have persisted stats (``None`` otherwise)."""
        if self.stats_a is None or self.stats_b is None:
            return None
        return {
            "wall_a_s": self.stats_a.wall_time_s,
            "wall_b_s": self.stats_b.wall_time_s,
            "wall_delta_s": (self.stats_b.wall_time_s
                             - self.stats_a.wall_time_s),
            "throughput_a": self.stats_a.throughput,
            "throughput_b": self.stats_b.throughput,
            "throughput_delta": (self.stats_b.throughput
                                 - self.stats_a.throughput),
            "cost_a_usd": self.stats_a.cost_usd,
            "cost_b_usd": self.stats_b.cost_usd,
            "cost_delta_usd": (self.stats_b.cost_usd
                               - self.stats_a.cost_usd),
        }

    def rows(self) -> list[dict[str, object]]:
        return [cell.as_row() for cell in self.cells]

    def to_dict(self) -> dict[str, object]:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "identical": self.identical,
            "total_flips": self.total_flips,
            "cells": [cell.to_dict() for cell in self.cells],
            "only_in_a": list(self.only_in_a),
            "only_in_b": list(self.only_in_b),
            "perf": self.perf_summary(),
        }


class _AnswerText(dict):
    """Answer -> its value as a plain string, for enum members and
    plain strings alike (a member hashes and compares as its value),
    without the ``Enum.value`` descriptor; a string that is no answer
    raises :class:`ValueError`, as ``Answer(text)`` does."""

    def __missing__(self, answer: object) -> str:
        return Answer(answer).value


_ANSWER_TEXT = _AnswerText((answer.value, answer.value)
                           for answer in Answer)


def _flips(result_a, result_b) -> tuple[QuestionFlip, ...]:
    by_uid = {record.question_uid: record
              for record in result_b.records}
    text = _ANSWER_TEXT
    flips = []
    for record in result_a.records:
        other = by_uid.get(record.question_uid)
        if other is None or record.parsed == other.parsed:
            continue
        flips.append(QuestionFlip(record.question_uid,
                                  text[record.parsed],
                                  text[other.parsed],
                                  text[record.expected]))
    return tuple(flips)


def diff_runs(a: "RunResult | str", b: "RunResult | str",
              registry: RunRegistry | None = None) -> RunDiff:
    """Compare two runs (results or registry ids), cell by cell."""
    result_a = coerce_run(a, registry=registry)
    result_b = coerce_run(b, registry=registry)
    cells_a = {key.cell_id: (key, result)
               for key, result in result_a.cells.items()}
    cells_b = {key.cell_id: (key, result)
               for key, result in result_b.cells.items()}
    shared = [cell_id for cell_id in cells_a if cell_id in cells_b]
    diffs = []
    for cell_id in shared:
        key, res_a = cells_a[cell_id]
        _, res_b = cells_b[cell_id]
        diffs.append(CellDiff(
            key=key,
            metrics_a=res_a.metrics,
            metrics_b=res_b.metrics,
            flips=_flips(res_a, res_b)))
    return RunDiff(
        run_a=result_a.run_id,
        run_b=result_b.run_id,
        cells=tuple(diffs),
        only_in_a=tuple(cell_id for cell_id in cells_a
                        if cell_id not in cells_b),
        only_in_b=tuple(cell_id for cell_id in cells_b
                        if cell_id not in cells_a),
        stats_a=result_a.stats,
        stats_b=result_b.stats,
    )
