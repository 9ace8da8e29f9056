"""Canonical JSON payloads shared by the CLI and the HTTP API.

The acceptance contract of the serving layer is that a remote caller
hitting ``GET /runs``, ``GET /runs/<id>`` or ``GET /runs/<id>/diff/<b>``
receives *exactly* the JSON the CLI's ``runs list/show/diff --json``
prints.  Rather than asserting that equality after the fact, both
surfaces call the builders in this module — there is one codepath, so
the payloads cannot drift.  ``run_result_payload`` is the machine
form of a finished :class:`repro.runs.RunResult` (the ``repro run
--json`` summary and the server's ``GET /runs/<id>/result``).

Both surfaces also share one encoder, :func:`dumps_view`: the bytes
of ``json.dumps(payload, indent=1)``, written mostly in C.  The
``*_body`` functions return those bytes for the views of one run; a
sealed run's are built and encoded once per ledger version and then
reused (:meth:`repro.runs.registry.RunRegistry.view`).
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from collections.abc import Iterator
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _quote

from repro.core.results import QuestionRecord, metrics_to_dict
from repro.dist.status import shard_statuses
from repro.errors import RunError
from repro.obs.trail import trail_summary, trail_to_dict
from repro.runs.diff import diff_runs
from repro.runs.driver import RunResult, load_run
from repro.runs.ledger import RunState
from repro.runs.registry import RunRegistry, watch


#: Container levels the fast path of :func:`dumps_view` encodes.  A
#: deeper payload, or a reference cycle (which never ends), goes to
#: ``json.dumps`` whole.
_DEPTHS = 32

_CONTAINERS = (dict, list, tuple)

#: Value types a flat container may hold for one C encoder call.
_SCALARS = frozenset((str, int, float, bool, type(None)))


class _Fallback(Exception):
    """The fast path cannot encode the payload; ``json.dumps`` must."""


def _refuse(obj: object) -> object:
    raise _Fallback


def _flat_encoder(level: int):
    """The C encoder for a flat container at ``level``: no ``indent``
    (so it runs in C), and the item separator ``indent=1`` writes
    inside such a container."""
    return c_make_encoder(None, _refuse, _quote, None, ": ",
                          ",\n" + " " * (level + 1), False, False, True)


#: One C encoder per level, built once and never changed, so handler
#: threads share them safely.  Empty where ``json.dumps`` writes
#: ``indent`` in C itself (CPython 3.13+) or ``_json`` is missing.
_FLAT_ENCODERS = (
    () if sys.version_info >= (3, 13) or c_make_encoder is None
    else tuple(_flat_encoder(level) for level in range(_DEPTHS)))

#: A newline plus the indentation of each level.
_NEWLINES = tuple("\n" + " " * level for level in range(_DEPTHS + 1))


def dumps_view(payload: object) -> str:
    """``json.dumps(payload, indent=1)``, byte for byte: the encoding
    of every CLI ``--json`` view and every REST body.

    Before CPython 3.13, ``indent`` forces json's pure-Python encoder.
    Here every flat container (a dict, list or tuple holding no dict,
    list or tuple) is written by one C encoder call instead, and only
    the containers around them are walked in Python.  Anything the
    fast path does not handle — a non-``str`` key in a nested dict, a
    container subclass, a type json does not know, a payload deeper
    than the encoder table, a cycle — goes to ``json.dumps`` whole,
    which coerces or raises as it always did.  From 3.13 on, json
    writes ``indent`` in C itself, and this is ``json.dumps``.
    """
    if not _FLAT_ENCODERS or not isinstance(payload, _CONTAINERS):
        return json.dumps(payload, indent=1)
    parts: list[str] = []
    try:
        _encode_container(payload, 0, parts)
    except (_Fallback, TypeError, ValueError):
        return json.dumps(payload, indent=1)
    return "".join(parts)


def _encode_container(obj: object, level: int, parts: list[str]) -> None:
    """Append the ``indent=1`` text of the container ``obj`` at
    ``level`` to ``parts``."""
    kind = type(obj)
    if kind is dict:
        values = obj.values()
    elif kind is list or kind is tuple:
        values = obj
    else:
        raise _Fallback     # json sizes and walks a subclass its own way
    if not obj:
        parts.append("{}" if kind is dict else "[]")
        return
    if _SCALARS.issuperset(map(type, values)):
        # One C call writes the items and their separators; only the
        # outer brackets get the newlines ``indent`` puts inside them.
        text = _FLAT_ENCODERS[level](obj, 0)[0]
        parts += (text[0], _NEWLINES[level + 1], text[1:-1],
                  _NEWLINES[level], text[-1])
        return
    if level + 1 >= _DEPTHS:
        raise _Fallback
    scalar = _FLAT_ENCODERS[0]
    lead = _NEWLINES[level + 1]
    separator = "," + lead
    append = parts.append
    if kind is dict:
        append("{")
        for key, value in obj.items():
            if not isinstance(key, str):
                raise _Fallback         # json.dumps coerces keys itself
            append(lead)
            lead = separator
            append(_quote(key))
            append(": ")
            if isinstance(value, _CONTAINERS):
                _encode_container(value, level + 1, parts)
            else:
                append(scalar(value, 0)[0])
        append(_NEWLINES[level])
        append("}")
    else:
        append("[")
        for value in obj:
            append(lead)
            lead = separator
            if isinstance(value, _CONTAINERS):
                _encode_container(value, level + 1, parts)
            else:
                append(scalar(value, 0)[0])
        append(_NEWLINES[level])
        append("]")


def run_cell_rows(state: RunState) -> list[dict[str, object]]:
    """Per-cell rows of ``runs show`` (shared by text and JSON)."""
    rows = []
    for cell_id, cell in state.cells.items():
        rows.append({
            "cell": cell_id,
            "n": cell.expected_n,
            "recorded": len(cell.records),
            "accuracy": (f"{cell.metrics.accuracy:.3f}"
                         if cell.complete else "-"),
            "miss_rate": (f"{cell.metrics.miss_rate:.3f}"
                          if cell.complete else "-"),
            "status": "done" if cell.complete else "partial",
        })
    return rows


def _encode(payload: object) -> bytes:
    return dumps_view(payload).encode("utf-8")


def runs_list_payload(registry: RunRegistry) -> list[dict[str, object]]:
    """The ``runs list --json`` document: one entry per run."""
    return [summary.to_dict() for summary in registry.list_runs()]


def run_show_payload(registry: RunRegistry, run_id: str,
                     state: RunState | None = None) -> dict[str, object]:
    """The ``runs show <id> --json`` document.

    Raises :class:`repro.errors.UnknownRunError` for a bad id — the
    CLI prints it, the server maps it to a 404.  ``state`` is the
    run's replayed ledger when the caller already holds it.
    """
    manifest = registry.manifest(run_id)
    if state is None:
        state = registry.state(run_id)
    shards = registry.shard_count(run_id)
    shard_rows = (shard_statuses(run_id, registry=registry, merged=state)
                  if shards else [])
    return {
        "manifest": manifest,
        "finished": state.finished,
        "attempts": state.attempts,
        "stats": state.stats,
        "budget": state.budget,
        "cells": run_cell_rows(state),
        "shards": [status.to_dict() for status in shard_rows],
    }


def run_show_body(registry: RunRegistry, run_id: str) -> bytes:
    """:func:`run_show_payload`, encoded (``GET /runs/<id>``).

    Kept while the run is sealed and every shard row reads
    ``finished``; a shard row that does not reads a heartbeat and the
    clock.
    """
    def build(state: RunState, files: list) -> tuple[bytes, bool]:
        watch(files, registry.shard_plan_path(run_id))
        for shard in range(registry.shard_count(run_id)):
            watch(files, registry.shard_ledger_path(run_id, shard))
        payload = run_show_payload(registry, run_id, state)
        return _encode(payload), state.sealed and all(
            row["status"] == "finished" for row in payload["shards"])

    return registry.view(run_id, "show", build)


def run_diff_payload(registry: RunRegistry, run_a: str,
                     run_b: str) -> dict[str, object]:
    """The ``runs diff <a> <b> --json`` document."""
    return diff_runs(load_run(run_a, registry=registry),
                     load_run(run_b, registry=registry)).to_dict()


def run_diff_body(registry: RunRegistry, run_a: str, run_b: str) -> bytes:
    """:func:`run_diff_payload`, encoded (``GET /runs/<a>/diff/<b>``).

    Kept with ``run_a``'s ledger version, under ``run_b``'s ledger
    path, while both runs are sealed; ``run_b``'s manifest and ledger
    versions are among the files it was built from.
    """
    def build(state: RunState, files: list) -> tuple[bytes, bool]:
        watch(files, registry.manifest_path(run_b))
        other = registry.ledger_version(run_b)
        files.append((other.path, other.version))
        diff = diff_runs(load_run(run_a, registry=registry, state=state),
                         load_run(run_b, registry=registry,
                                  state=other.state))
        return _encode(diff.to_dict()), state.sealed and other.state.sealed

    return registry.view(run_a, ("diff", registry.ledger_path(run_b)),
                         build)


def iter_question_records(state: RunState) -> Iterator[
        tuple[int, str, int, QuestionRecord]]:
    """Every recorded question as ``(global index, cell id, index in
    cell, record)``.

    The global ordinal is deterministic — cells in ledger (= plan)
    order, question indices ascending — and is the index ``obs why``,
    ``obs grep`` and ``GET /runs/<id>/trail/<index>`` all share.
    """
    ordinal = 0
    for cell_id, cell in state.cells.items():
        for local in sorted(cell.records):
            yield ordinal, cell_id, local, cell.records[local]
            ordinal += 1


def _question_index(state: RunState, files: list) -> tuple[tuple, bool]:
    """The global question ordinals of :func:`iter_question_records`,
    as ``(total, starts, cells)``: ``cells[k]`` is ``(cell id, sorted
    indices in cell, records)`` of the k-th cell with records, and
    ``starts[k]`` the ordinal of its first question."""
    starts: list[int] = []
    cells: list[tuple[str, list[int], dict]] = []
    total = 0
    for cell_id, cell in state.cells.items():
        if cell.records:
            starts.append(total)
            cells.append((cell_id, sorted(cell.records), cell.records))
            total += len(cell.records)
    return (total, starts, cells), state.sealed


def _question_index_bytes(index: tuple) -> int:
    """A pointer per question, and a few lists and tuples per cell."""
    total, _, cells = index
    return 8 * total + 128 * len(cells)


def run_trail_payload(registry: RunRegistry, run_id: str,
                      index: int) -> dict[str, object]:
    """One question's provenance (``obs why --json`` and
    ``GET /runs/<id>/trail/<index>``)."""
    total, starts, cells = registry.view(run_id, "questions",
                                         _question_index,
                                         size=_question_index_bytes)
    if not 0 <= index < total:
        raise RunError(f"run {run_id} has {total} recorded questions; "
                       f"no question index {index}")
    k = bisect_right(starts, index) - 1
    cell_id, locals_, records = cells[k]
    local = locals_[index - starts[k]]
    record = records[local]
    return {
        "run_id": run_id,
        "index": index,
        "cell": cell_id,
        "cell_index": local,
        "uid": record.question_uid,
        "model": record.model,
        "setting": record.setting,
        "parsed": record.parsed.value,
        "expected": record.expected.value,
        "correct": record.correct,
        "missed": record.missed,
        "prompt_tokens": record.prompt_tokens,
        "completion_tokens": record.completion_tokens,
        "trail": (trail_to_dict(record.trail)
                  if record.trail is not None else None),
    }


def run_trails_payload(registry: RunRegistry, run_id: str,
                       state: RunState | None = None) -> dict[str, object]:
    """Per-cell trail analytics (``obs trails --json`` and
    ``GET /runs/<id>/trails``); ``state`` as for
    :func:`run_show_payload`."""
    if state is None:
        state = registry.state(run_id)
    everything: list[QuestionRecord] = []
    cells: dict[str, object] = {}
    for cell_id, cell in state.cells.items():
        records = [cell.records[i] for i in sorted(cell.records)]
        everything.extend(records)
        cells[cell_id] = trail_summary(records)
    return {
        "run_id": run_id,
        "cells": cells,
        "totals": trail_summary(everything),
    }


def run_trails_body(registry: RunRegistry, run_id: str) -> bytes:
    """:func:`run_trails_payload`, encoded; kept while the run is
    sealed."""
    return registry.view(run_id, "trails", lambda state, files: (
        _encode(run_trails_payload(registry, run_id, state)),
        state.sealed))


def run_result_body(registry: RunRegistry, run_id: str) -> bytes:
    """:func:`run_result_payload` of the run as its ledger has it
    (``GET /runs/<id>/result``), encoded; kept while the run is
    sealed."""
    return registry.view(run_id, "result", lambda state, files: (
        _encode(run_result_payload(load_run(run_id, registry=registry,
                                            state=state))),
        state.sealed))


def run_result_payload(result: RunResult) -> dict[str, object]:
    """Machine form of a run's final summary (``repro run --json``).

    Cells appear in the deterministic plan order the run executed
    them in, each with the canonical :class:`Metrics` codec, so
    scripted callers never scrape the human tables.
    """
    return {
        "run_id": result.run_id,
        "request": result.request.to_dict(),
        "cells": [{"cell": key.cell_id,
                   **metrics_to_dict(cell_result.metrics)}
                  for key, cell_result in result.cells.items()],
        "evaluated": result.evaluated,
        "replayed": result.replayed,
        "resumed_cells": list(result.resumed_cells),
        "stats": (result.stats.to_dict()
                  if result.stats is not None else None),
        "budget": result.budget,
    }
