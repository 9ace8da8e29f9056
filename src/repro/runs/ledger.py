"""The append-only run ledger: every sweep event, durably, as JSONL.

One ledger file per run.  The writer appends one JSON document per
line — run-started, cell-started, one ``record`` per scored question,
cell-finished with the cell's :class:`Metrics`, run-finished with the
engine's telemetry snapshot — each as a *single* ``write()`` call
under one lock, so concurrent engine workers can never interleave
bytes within a line.  Durability is tiered:

* every append is flushed to the OS immediately (a crashed *process*
  loses nothing that was written);
* ``fsync`` runs at cell boundaries by default (``durability="cell"``)
  so a power loss costs at most one in-flight cell, or on every append
  with ``durability="record"`` when each question must survive the
  machine dying (~190us per append on ext4 — two-thirds of a simulated
  model call — which is why it is opt-in).

The replayer is the inverse: it folds a ledger back into per-cell
state, keying records by question index so out-of-order streaming
(engine workers finish in any order) and resumed attempts (later
events win) both converge to the same state.  A torn final line is the
expected crash signature and is dropped; corruption anywhere else
raises :class:`repro.errors.LedgerCorruptError`.  The writer cuts a
torn tail off before it appends, so a resumed attempt never buries
one mid-file.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from repro.core.metrics import Metrics
from repro.core.results import (QuestionRecord, metrics_from_dict,
                                metrics_to_dict, record_from_dict,
                                record_to_dict)
from repro.errors import LedgerCorruptError, RunError
from repro.obs.jsonl import JsonlCorruptError, cut_torn_tail, iter_jsonl

#: File name of the event log inside a run directory.
LEDGER_FILENAME = "ledger.jsonl"

_log = logging.getLogger("repro.runs.ledger")

_DURABILITY_MODES = ("record", "cell", "close")


class RunLedger:
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
        self.path = Path(path)
        self.durability = durability
        self.path.parent.mkdir(parents=True, exist_ok=True)
        cut_torn_tail(self.path)
        self._file = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def _append(self, payload: dict, sync: bool = False) -> None:
        self._write(json.dumps(payload, separators=(",", ":")) + "\n",
                    sync=sync)

    def _write(self, text: str, sync: bool = False) -> None:
        with self._lock:
            if self._closed:
                raise RunError("ledger is closed")
            self._file.write(text)
            self._file.flush()
            if sync or self.durability == "record":
                os.fsync(self._file.fileno())

    def _sync_boundary(self) -> bool:
        return self.durability in ("record", "cell")

    # ------------------------------------------------------------------
    def run_started(self, run_id: str, resumed: bool = False,
                    attempt: int = 1) -> None:
        self._append({"event": "run-started", "run_id": run_id,
                      "resumed": resumed, "attempt": attempt,
                      "ts": time.time()}, sync=self._sync_boundary())

    def cell_started(self, cell_id: str, n: int) -> None:
        self._append({"event": "cell-started", "cell": cell_id,
                      "n": n})

    def record(self, cell_id: str, index: int,
               record: QuestionRecord) -> None:
        self._append({"event": "record", "cell": cell_id, "i": index,
                      **record_to_dict(record)})

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
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._closed = True

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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

    @property
    def complete(self) -> bool:
        return self.metrics is not None

    @property
    def partial(self) -> bool:
        return self.metrics is None and bool(self.records)

    def ordered_records(self) -> tuple[QuestionRecord, ...]:
        """Records in question order (raises on holes)."""
        missing = [i for i in range(self.expected_n)
                   if i not in self.records]
        if missing:
            raise RunError(
                f"cell {self.cell_id} is missing record indices "
                f"{missing[:5]}{'...' if len(missing) > 5 else ''}")
        return tuple(self.records[i] for i in range(self.expected_n))


@dataclass
class RunState:
    """Everything a ledger says about a run, after replay."""

    run_id: str | None = None
    cells: dict[str, CellState] = field(default_factory=dict)
    attempts: int = 0
    finished: bool = False
    stats: dict | None = None
    events: int = 0
    #: Last budget-exhausted event's payload (None = never stopped).
    budget: dict | None = None

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
    return fold_ledger(path, RunState(), _apply)


_State = TypeVar("_State", bound=RunState)


def fold_ledger(path: str | Path, state: _State,
                apply: Callable[[_State, dict, str], None]) -> _State:
    """The one fold loop over a ledger file, shared by
    :func:`replay_ledger` and the shard replayer.

    ``apply(state, event, text)`` folds one decoded event; ``text`` is
    the event's line as written, without its newline.  A torn final
    line is dropped with a warning, and so is a decoded final event
    ``apply`` rejects; any earlier failure raises
    :class:`LedgerCorruptError`.
    """
    try:
        batch = iter_jsonl(path)
    except JsonlCorruptError as exc:
        raise LedgerCorruptError(exc.path, exc.line_number,
                                 exc.reason) from exc
    if batch.torn:
        _log.warning("ledger-torn-line dropped path=%s line=%d",
                     path, batch.torn_line)
    last = len(batch.records) - 1
    for index, (number, event) in enumerate(batch.records):
        try:
            apply(state, event, batch.lines[index])
        except (ValueError, KeyError, TypeError) as exc:
            if index == last and not batch.torn:
                # Decoded but unappliable tail: same crash signature.
                _log.warning("ledger-torn-line dropped path=%s "
                             "line=%d", path, number)
                break
            raise LedgerCorruptError(str(path), number,
                                     repr(exc)) from exc
        state.events += 1
    return state


def _apply(state: RunState, event: dict, text: str = "") -> None:
    """Fold one run-ledger event (``text``, its line, is unused: a
    run state keeps decoded records only)."""
    kind = event["event"]
    if kind == "run-started":
        state.run_id = event["run_id"]
        state.attempts = max(state.attempts, int(event["attempt"]))
        state.finished = False      # a new attempt reopens the run
    elif kind == "cell-started":
        cell = state.cells.setdefault(
            event["cell"], CellState(cell_id=event["cell"]))
        cell.expected_n = int(event["n"])
    elif kind == "record":
        cell = state.cells.setdefault(
            event["cell"], CellState(cell_id=event["cell"]))
        cell.records[int(event["i"])] = record_from_dict(event)
    elif kind == "cell-finished":
        cell = state.cells.setdefault(
            event["cell"], CellState(cell_id=event["cell"]))
        cell.metrics = metrics_from_dict(event)
    elif kind == "run-finished":
        state.finished = True
        state.stats = event.get("stats")
        state.budget = None        # a completed run clears the stop
    elif kind == "budget-exhausted":
        budget = event.get("budget")
        state.budget = budget if isinstance(budget, dict) else {}
        if state.stats is None:
            stats = event.get("stats")
            state.stats = stats if isinstance(stats, dict) else None
    # unknown events: forward-compatible skip
