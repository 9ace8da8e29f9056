"""The append-only run ledger: every sweep event, durably, as JSONL.

One ledger file per run.  The writer appends one JSON document per
line — run-started with the attempt's pid, cell-started, a ``record``
per scored question, cell-finished with the cell's :class:`Metrics`,
run-finished with the engine's telemetry snapshot — each as a
*single* ``write()`` call under one lock, so concurrent engine workers
can never interleave bytes within a line.  Durability is tiered:

* every append is flushed to the OS immediately (a crashed *process*
  loses nothing that was written);
* ``fsync`` runs at cell boundaries by default (``durability="cell"``)
  so a power loss costs at most one in-flight cell, or on every append
  with ``durability="record"`` when each question must survive the
  machine dying (~75us per append on ext4 on a virtio disk — about
  1.7 times the ~44us a whole question takes at p50 at one worker —
  which is why it is opt-in).

A ``record`` line is written straight from the record's fields
(:func:`repro.core.results.record_line`), byte-equal to ``json.dumps``
of its dict form; every other event goes through the shared compact
encoder, :func:`repro.obs.jsonl.dumps_line`.

The replayer is the inverse: it folds a ledger back into per-cell
state, keying records by question index so out-of-order streaming
(engine workers finish in any order) and resumed attempts (later
events win) both converge to the same state.  A torn final line is the
expected crash signature and is dropped; corruption anywhere else
raises :class:`repro.errors.LedgerCorruptError`.  The writer cuts a
torn tail off before it appends, so a resumed attempt never buries
one mid-file.  :func:`fold_run_ledger` also folds only the lines
appended since an earlier fold, onto a copy that leaves the earlier
state as it was.
"""

from __future__ import annotations

import logging
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TypeVar

from repro.core.metrics import Metrics
from repro.core.results import (QuestionRecord, metrics_from_dict,
                                metrics_to_dict, record_from_dict,
                                record_line)
from repro.errors import LedgerCorruptError, RunError
from repro.obs.jsonl import JsonlAppender, dumps_line, fold_jsonl

#: File name of the event log inside a run directory.
LEDGER_FILENAME = "ledger.jsonl"

_log = logging.getLogger("repro.runs.ledger")

_DURABILITY_MODES = ("record", "cell", "close")


class RunLedger(JsonlAppender):
    """Thread-safe append-only JSONL event writer for one run.

    The runner calls :meth:`cell_started` / :meth:`record` /
    :meth:`cell_finished`; the driver brackets them with
    :meth:`run_started` / :meth:`run_finished`.  Any object with these
    five methods can stand in as a ledger sink (the runner is
    duck-typed), but this one is the durable implementation.
    """

    def __init__(self, path: str | Path, durability: str = "cell"):
        if durability not in _DURABILITY_MODES:
            raise RunError(f"durability must be one of "
                           f"{_DURABILITY_MODES}, got {durability!r}")
        self.durability = durability
        super().__init__(path)

    # ------------------------------------------------------------------
    def _append(self, payload: dict, sync: bool = False) -> None:
        self._write(dumps_line(payload), sync=sync)

    def _write(self, text: str, sync: bool = False) -> None:
        if not self._put(text, sync or self.durability == "record"):
            raise RunError("ledger is closed")

    def _sync_boundary(self) -> bool:
        return self.durability in ("record", "cell")

    # ------------------------------------------------------------------
    def run_started(self, run_id: str, resumed: bool = False,
                    attempt: int = 1) -> None:
        self._append({"event": "run-started", "run_id": run_id,
                      "resumed": resumed, "attempt": attempt,
                      "pid": os.getpid(), "ts": time.time()},
                     sync=self._sync_boundary())

    def cell_started(self, cell_id: str, n: int) -> None:
        self._append({"event": "cell-started", "cell": cell_id,
                      "n": n})

    def record(self, cell_id: str, index: int,
               record: QuestionRecord) -> str:
        """Append ``record``'s event; returns its line without the
        newline, as :meth:`record_lines` takes it back."""
        line = record_line(cell_id, index, record)
        if not self._put(line, self.durability == "record"):
            raise RunError("ledger is closed")
        return line[:-1]

    def record_lines(self, lines: Iterable[str]) -> None:
        """Append ``record`` events already encoded by :meth:`record`
        (each line without its newline) in one write — the shard
        merge copies shard lines verbatim instead of re-encoding."""
        self._write("".join(line + "\n" for line in lines))

    def cell_finished(self, cell_id: str, metrics: Metrics) -> None:
        self._append({"event": "cell-finished", "cell": cell_id,
                      **metrics_to_dict(metrics)},
                     sync=self._sync_boundary())

    def run_finished(self, cells: int,
                     stats: dict | None = None) -> None:
        self._append({"event": "run-finished", "cells": cells,
                      "stats": stats, "ts": time.time()},
                     sync=self._sync_boundary())

    def budget_exhausted(self, budget: dict,
                         stats: dict | None = None) -> None:
        """The run stopped at a cell boundary on a spend ceiling.

        Deliberately *not* ``run-finished``: the run stays unfinished
        so ``resume_run`` completes the remaining cells (unbudgeted by
        default) to bytes identical to an uninterrupted run.  Old
        readers skip the event (forward-compatible unknown kind).
        """
        self._append({"event": "budget-exhausted", "budget": budget,
                      "stats": stats, "ts": time.time()},
                     sync=self._sync_boundary())

    # ------------------------------------------------------------------
    def close(self) -> None:
        super().close(sync=True)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class CellState:
    """One cell folded out of the event stream."""

    cell_id: str
    expected_n: int = 0
    records: dict[int, QuestionRecord] = field(default_factory=dict)
    metrics: Metrics | None = None
    #: :attr:`sums` once read; :func:`_apply` drops it with each record
    #: it folds in, and a copy starts without it.
    _sums: tuple[int, int, int] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def complete(self) -> bool:
        return self.metrics is not None

    @property
    def sums(self) -> tuple[int, int, int]:
        """``(correct, prompt tokens, completion tokens)`` over the
        records, summed on first use: a version of a run state shares
        every cell a later append does not touch, and with it the sums,
        so repeat readers (the live follower, ``obs cost``) sum each
        cell once per version."""
        if self._sums is None:
            correct = prompt = completion = 0
            for record in self.records.values():
                correct += record.correct
                prompt += record.prompt_tokens
                completion += record.completion_tokens
            self._sums = (correct, prompt, completion)
        return self._sums

    @property
    def partial(self) -> bool:
        return self.metrics is None and bool(self.records)

    def ordered_records(self) -> tuple[QuestionRecord, ...]:
        """Records in question order (raises on holes)."""
        try:
            return tuple(map(self.records.__getitem__,
                             range(self.expected_n)))
        except KeyError:
            missing = [i for i in range(self.expected_n)
                       if i not in self.records]
            raise RunError(
                f"cell {self.cell_id} is missing record indices "
                f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
            ) from None


@dataclass
class RunState:
    """Everything a ledger says about a run, after replay."""

    run_id: str | None = None
    cells: dict[str, CellState] = field(default_factory=dict)
    attempts: int = 0
    finished: bool = False
    stats: dict | None = None
    events: int = 0
    #: The budget-exhausted payload of the latest attempt (None = not
    #: stopped; a run-started or run-finished event clears it).
    budget: dict | None = None
    #: ``ts`` of the first run-started (or shard-started) event.
    started_ts: float | None = None
    #: ``ts`` of the latest run-finished (or shard-finished) or
    #: budget-exhausted event.
    ended_ts: float | None = None
    #: The pid in the latest attempt's bracket event (None for one
    #: written before bracket events carried it).
    pid: int | None = None

    @property
    def budget_stopped(self) -> bool:
        """A spend ceiling stopped the latest attempt; a resume
        finishes the run."""
        return bool(self.budget) and not self.finished

    @property
    def sealed(self) -> bool:
        """The ledger says the run finished or was budget-stopped: no
        attempt is live, so no view of it reads a heartbeat, a pid or
        the clock."""
        return self.finished or self.budget_stopped

    @property
    def completed_cells(self) -> int:
        return sum(1 for cell in self.cells.values() if cell.complete)

    @property
    def recorded_questions(self) -> int:
        return sum(len(cell.records) for cell in self.cells.values())


def replay_ledger(path: str | Path) -> RunState:
    """Fold a ledger file into a :class:`RunState`.

    Tolerates a torn final line (the crash signature the ledger is
    built to survive); any earlier undecodable line raises
    :class:`LedgerCorruptError`.  Unknown event types are skipped so
    old readers survive new writers.
    """
    return fold_run_ledger(path)[0]


def fold_run_ledger(path: str | Path, base: RunState | None = None,
                    offset: int = 0, start_line: int = 1,
                    follow: bool = False) -> tuple[RunState, int, int]:
    """The run ledger at ``path`` folded from byte 0, or with ``base``
    the lines from byte ``offset`` (line ``start_line``) on folded onto
    a copy of it; returns the state and where the next fold resumes.

    The copy shares every cell the new lines do not touch and copies a
    touched one once, so ``base`` never changes.  ``follow`` is
    :func:`repro.obs.jsonl.fold_jsonl`'s.
    """
    if base is None:
        return fold_ledger(path, RunState(), _apply, offset, start_line,
                           follow)
    return fold_ledger(path, replace(base, cells=dict(base.cells)),
                       partial(_apply_copying, base.cells), offset,
                       start_line, follow)


_State = TypeVar("_State", bound=RunState)


def fold_ledger(path: str | Path, state: _State,
                apply: Callable[[_State, dict, str], None],
                offset: int = 0, start_line: int = 1,
                follow: bool = False) -> tuple[_State, int, int]:
    """The one fold over a ledger file, shared by
    :func:`fold_run_ledger` and the shard replayer.

    ``apply(state, event, text)`` folds one decoded event; ``text`` is
    the event's line as written, without its newline.  The offsets,
    the torn-line and corruption rules are
    :func:`repro.obs.jsonl.fold_jsonl`'s; corruption raises
    :class:`LedgerCorruptError`.  Returns ``state`` and where the next
    fold resumes.
    """
    taken, offset, line = fold_jsonl(
        path, partial(apply, state), _log, "ledger-torn-line",
        LedgerCorruptError, offset, start_line, follow)
    state.events += taken
    return state, offset, line


def _apply_copying(shared: dict[str, CellState], state: RunState,
                   event: dict, text: str = "") -> None:
    """:func:`_apply` onto a state whose cells start out as
    ``shared``'s: a shared cell is copied before an event touches it."""
    cell_id = event.get("cell")
    if cell_id in shared and state.cells[cell_id] is shared[cell_id]:
        cell = shared[cell_id]
        state.cells[cell_id] = replace(cell, records=dict(cell.records))
    _apply(state, event, text)


def _apply(state: RunState, event: dict, text: str = "") -> None:
    """Fold one run-ledger event (``text``, its line, is unused: a
    run state keeps decoded records only).  A shard ledger's attempt
    brackets, ``shard-started`` and ``shard-finished``, fold as the
    run brackets they stand for."""
    kind = event["event"]
    if kind in ("run-started", "shard-started"):
        state.run_id = event["run_id"]
        state.attempts = max(state.attempts, int(event["attempt"]))
        state.finished = False      # a new attempt reopens the run
        state.budget = None
        state.pid = event.get("pid")
        if state.started_ts is None:
            state.started_ts = float(event.get("ts") or 0.0)
    elif kind == "cell-started":
        cell = state.cells.setdefault(
            event["cell"], CellState(cell_id=event["cell"]))
        cell.expected_n = int(event["n"])
    elif kind == "record":
        cell = state.cells.setdefault(
            event["cell"], CellState(cell_id=event["cell"]))
        cell.records[int(event["i"])] = record_from_dict(event)
        cell._sums = None
    elif kind == "cell-finished":
        cell = state.cells.setdefault(
            event["cell"], CellState(cell_id=event["cell"]))
        cell.metrics = metrics_from_dict(event)
    elif kind in ("run-finished", "shard-finished"):
        state.finished = True
        state.stats = event.get("stats")
        state.budget = None        # a completed run clears the stop
        state.ended_ts = float(event.get("ts") or 0.0)
    elif kind == "budget-exhausted":
        state.ended_ts = float(event.get("ts") or 0.0)
        budget = event.get("budget")
        state.budget = budget if isinstance(budget, dict) else {}
        if state.stats is None:
            stats = event.get("stats")
            state.stats = stats if isinstance(stats, dict) else None
    # unknown events: forward-compatible skip
