"""Correctness checks: ledger record lines against references.

A ledger's ``record`` events are the scored output of a sweep.  The
checks compare them, as exact lines, with a reference:

* ``paper_grid``: the lines a plain sequential ``EvaluationRunner``
  produces for the same request (no engine, no ledger);
* ``sharded_grid``: the same sequential lines, byte for byte and in
  order — the lines ``paper_grid``'s ledger is held to;
* ``endpoint_grid``: the sequential lines, after dropping the
  ``trail`` key (the engine appends in completion order, so the lines
  are compared as a sorted multiset).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

_RECORD_PREFIX = '{"event":"record",'


def _dump(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def record_lines(path: str | Path, drop_trail: bool = False) -> list[str]:
    """The ``record`` event lines of one ledger file, in file order."""
    lines = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if not line.startswith(_RECORD_PREFIX):
                continue
            if drop_trail:
                payload = json.loads(line)
                payload.pop("trail", None)
                line = _dump(payload)
            lines.append(line)
    return lines


def digest(lines: list[str], ordered: bool = True) -> str:
    """sha256 over the lines (sorted first when order is free)."""
    hasher = hashlib.sha256()
    for line in (lines if ordered else sorted(lines)):
        hasher.update(line.encode("utf-8"))
    return f"{len(lines)}:{hasher.hexdigest()}"


def reference_lines(request) -> list[str]:
    """Record lines of ``request`` from a plain sequential runner, in
    the order a sequential ledger writes them."""
    from repro.core.results import record_to_dict
    from repro.core.runner import EvaluationRunner
    from repro.llm.prompting import PromptSetting
    from repro.llm.registry import get_model
    from repro.runs.driver import build_request_pools, plan_cells
    pools = build_request_pools(request)
    runner = EvaluationRunner(variant=request.variant, keep_records=True)
    lines = []
    for cell in plan_cells(request, pools):
        pool = pools[cell.taxonomy_key].total_pool(request.dataset_kind)
        result = runner.evaluate(get_model(cell.model), pool,
                                 PromptSetting(cell.setting))
        for index, record in enumerate(result.records):
            lines.append(_dump({"event": "record", "cell": cell.cell_id,
                                "i": index, **record_to_dict(record)}))
    return lines


def jsonl_events(path: str | Path, names: set[str]) -> list[dict]:
    """Decoded lines of a JSONL file whose ``event``/``name`` is in
    ``names`` (ledger brackets, spans); a torn tail line is skipped."""
    found = []
    try:
        stream = open(path, encoding="utf-8")
    except FileNotFoundError:
        return found
    with stream:
        for line in stream:
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if payload.get("event", payload.get("name")) in names:
                found.append(payload)
    return found


def question_spans(spans_path: str | Path
                   ) -> list[tuple[float, float, str]]:
    """``(start, seconds, uid)`` of each finished ``question`` span in a
    span log, in start order."""
    return sorted((span["start_s"], span["end_s"] - span["start_s"],
                   span["attrs"].get("uid", ""))
                  for span in jsonl_events(spans_path, {"question"})
                  if span.get("end_s") is not None)


def question_ms(spans_path: str | Path, prefix: str = ""
                ) -> dict[str, float]:
    """Milliseconds of each question of a span log, keyed by its uid and
    occurrence (a request asks one question once per model), so that
    repeated sweeps of one request can be matched question by question.
    """
    seen: dict[str, int] = {}
    timings = {}
    for _, seconds, uid in question_spans(spans_path):
        occurrence = seen.get(uid, 0)
        seen[uid] = occurrence + 1
        timings[f"{prefix}{uid}#{occurrence}"] = seconds * 1000.0
    return timings


def cell_seconds(spans_path: str | Path, lane: int = 0
                 ) -> dict[str, float]:
    """Seconds of each finished ``cell`` span of a span log, keyed by
    ``<lane>:<model>|<label>|<setting>``.  A lane is a run of cells
    one after another: a shard, or the whole sequential run."""
    return {f"{lane}:{attrs.get('model')}|{attrs.get('label')}|"
            f"{attrs.get('setting')}": span["end_s"] - span["start_s"]
            for span in jsonl_events(spans_path, {"cell"})
            if span.get("end_s") is not None
            for attrs in [span.get("attrs") or {}]}


def keep_fastest(best: dict[str, float], timings: dict[str, float]) -> None:
    """Fold ``timings`` into ``best``, keeping each key's lowest value."""
    for key, value in timings.items():
        if value < best.get(key, float("inf")):
            best[key] = value


def _longest_lane(cells: dict[str, float]) -> float:
    lanes: dict[str, float] = {}
    for key, seconds in cells.items():
        lane = key.split(":", 1)[0]
        lanes[lane] = lanes.get(lane, 0.0) + seconds
    return max(lanes.values(), default=0.0)


def fastest_wall(sweeps: list[dict]) -> float:
    """Wall time of one sweep put together from the fastest parts of
    ``sweeps`` (repeats of one request): each cell's fastest time, plus
    the fastest time outside the cells.

    Lanes run side by side, so the cells count through the longest lane.
    A shared host slows a process for a second or two at a time; a cell
    lasts a fraction of that, so every cell is likely to have one repeat
    that ran at the host's full speed."""
    fastest: dict[str, float] = {}
    for sweep in sweeps:
        keep_fastest(fastest, sweep["cells"])
    outside = min(sweep["wall"] - _longest_lane(sweep["cells"])
                  for sweep in sweeps)
    return max(0.0, outside) + _longest_lane(fastest)
