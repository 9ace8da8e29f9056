"""Shard planning: split one run request into K disjoint shards.

A shard is a list of :class:`ShardTask`s — ``(cell, start, stop)``
question ranges — that one worker process executes end to end.  The
planner starts from the exact cell list :func:`repro.runs.driver
.plan_cells` produces (so the shard union *is* the single-process
plan), splits any cell larger than the per-shard question target into
ranges, and packs the resulting tasks onto shards with a
longest-processing-time greedy keyed on question count, the best
available cost estimate for simulated and real backends alike.

Two invariants make the downstream merge deterministic and the plan a
durable artifact:

* **Disjoint exact cover** — for every cell, the union of its task
  ranges across all shards is exactly ``[0, n)`` with no overlap
  (property-tested for arbitrary K);
* **Pure function of the request** — the plan depends only on cell
  sizes, which are pure functions of the request, so replanning the
  same request yields the same shards.  The plan is still persisted
  (``shards.json`` next to the manifest, written atomically) because
  workers, merge, status and gc must agree on it even across a
  generator change that would alter pool sizes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import RunError
from repro.obs.jsonl import replace_text
from repro.runs.driver import (CellKey, _pool_for, build_request_pools,
                               plan_cells)
from repro.runs.registry import RunRegistry
from repro.runs.request import RunRequest

#: Bump when the ``shards.json`` layout changes shape.
SHARD_PLAN_VERSION = 1


@dataclass(frozen=True, slots=True)
class ShardTask:
    """One unit of shard work: questions ``[start, stop)`` of a cell.

    ``n`` is the cell's *full* pool size — carried so workers and the
    merge can validate coverage without rebuilding pools, and so a
    generator change that resizes pools is detected instead of
    silently producing a different sweep.
    """

    cell: CellKey
    start: int
    stop: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop <= self.n:
            raise RunError(
                f"bad shard task range [{self.start}, {self.stop}) "
                f"for cell of {self.n} questions")

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)

    def to_dict(self) -> dict[str, object]:
        return {"cell": self.cell.cell_id, "start": self.start,
                "stop": self.stop, "n": self.n}

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardTask":
        cell = CellKey.parse(str(payload["cell"]))
        if cell is None:
            raise RunError(
                f"unparseable cell id in shard plan: "
                f"{payload['cell']!r}")
        return cls(cell=cell, start=int(payload["start"]),
                   stop=int(payload["stop"]), n=int(payload["n"]))


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """K shards plus the original cell order they were cut from.

    ``cells`` is the single-process plan — ``(cell_id, n)`` in
    execution order — which is what the merge walks to reproduce the
    sequential event stream without rebuilding any pool.
    """

    cells: tuple[tuple[str, int], ...]
    shards: tuple[tuple[ShardTask, ...], ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_questions(self) -> int:
        return sum(n for _, n in self.cells)

    def tasks(self) -> tuple[ShardTask, ...]:
        """Every task across every shard, shard-major order."""
        return tuple(task for shard in self.shards for task in shard)

    def shard_questions(self, shard: int) -> int:
        """Questions assigned to one shard (its cost estimate)."""
        return sum(task.size for task in self.shards[shard])

    def to_dict(self) -> dict[str, object]:
        return {
            "format_version": SHARD_PLAN_VERSION,
            "shards": self.num_shards,
            "cells": [{"cell": cell_id, "n": n}
                      for cell_id, n in self.cells],
            "tasks": [[task.to_dict() for task in shard]
                      for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardPlan":
        try:
            cells = tuple((str(entry["cell"]), int(entry["n"]))
                          for entry in payload["cells"])
            shards = tuple(
                tuple(ShardTask.from_dict(task) for task in shard)
                for shard in payload["tasks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RunError(
                f"malformed shard plan payload: {exc}") from exc
        return cls(cells=cells, shards=shards)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _split_task(task: ShardTask, pieces: int) -> list[ShardTask]:
    """Cut one task into ``pieces`` contiguous near-equal ranges."""
    pieces = max(1, min(pieces, task.size))
    base, extra = divmod(task.size, pieces)
    out: list[ShardTask] = []
    start = task.start
    for piece in range(pieces):
        stop = start + base + (1 if piece < extra else 0)
        out.append(ShardTask(cell=task.cell, start=start, stop=stop,
                             n=task.n))
        start = stop
    return out


def partition_tasks(tasks: list[ShardTask],
                    shards: int) -> tuple[tuple[ShardTask, ...], ...]:
    """Pack tasks onto ``shards`` balanced-by-question-count shards.

    Deterministic: ties break on the tasks' original (cell plan,
    range start) order and on the lowest shard index.  Oversized
    tasks are pre-split to the per-shard target, and the largest
    remaining tasks keep halving until every shard can get work (so
    no shard idles while another owns two cells).
    """
    if shards < 1:
        raise RunError(f"shards must be >= 1, got {shards}")
    order = {id(task): index for index, task in enumerate(tasks)}

    def key(task: ShardTask) -> tuple[int, int]:
        return (order[id(task)], task.start)

    total = sum(task.size for task in tasks)
    target = max(1, math.ceil(total / shards)) if total else 1
    chunks: list[tuple[tuple[int, int], ShardTask]] = []
    for index, task in enumerate(tasks):
        for piece in _split_task(task, math.ceil(task.size / target)):
            chunks.append(((index, piece.start), piece))
    # Guarantee >= shards chunks whenever there are enough questions.
    while (len(chunks) < shards
           and any(piece.size > 1 for _, piece in chunks)):
        at = max(range(len(chunks)),
                 key=lambda i: (chunks[i][1].size, -i))
        key_at, piece = chunks.pop(at)
        for half in _split_task(piece, 2):
            chunks.append(((key_at[0], half.start), half))
    # LPT greedy: largest chunk first onto the least-loaded shard.
    chunks.sort(key=lambda pair: (-pair[1].size, pair[0]))
    loads = [0] * shards
    buckets: list[list[tuple[tuple[int, int], ShardTask]]] = \
        [[] for _ in range(shards)]
    for chunk_key, piece in chunks:
        shard = min(range(shards), key=lambda s: (loads[s], s))
        loads[shard] += piece.size
        buckets[shard].append((chunk_key, piece))
    return tuple(
        tuple(piece for _, piece in sorted(bucket,
                                           key=lambda pair: pair[0]))
        for bucket in buckets)


def plan_shards(request: RunRequest, shards: int,
                pools: dict[str, object] | None = None) -> ShardPlan:
    """Split the request's cell plan into ``shards`` disjoint shards."""
    if shards < 1:
        raise RunError(f"shards must be >= 1, got {shards}")
    if pools is None:
        pools = build_request_pools(request)
    cells = plan_cells(request, pools)
    tasks = []
    ordered: list[tuple[str, int]] = []
    for cell in cells:
        n = len(_pool_for(cell, pools))
        ordered.append((cell.cell_id, n))
        if n > 0:
            tasks.append(ShardTask(cell=cell, start=0, stop=n, n=n))
    return ShardPlan(cells=tuple(ordered),
                     shards=partition_tasks(tasks, shards))


# ----------------------------------------------------------------------
# Persistence (``shards.json`` next to the manifest)
# ----------------------------------------------------------------------
def save_shard_plan(registry: RunRegistry, run_id: str,
                    plan: ShardPlan) -> Path:
    """Atomically persist the plan inside the run directory."""
    return replace_text(registry.shard_plan_path(run_id),
                        json.dumps(plan.to_dict(), indent=1))


def load_shard_plan(registry: RunRegistry, run_id: str) -> ShardPlan:
    """The persisted plan of a sharded run.

    Raises :class:`RunError` when the run was never sharded (or the
    plan file is corrupt) — callers branch on
    :meth:`RunRegistry.shard_count` first when "unsharded" is an
    expected state rather than an error.
    """
    path = registry.shard_plan_path(run_id)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RunError(f"run {run_id} has no shard plan ({path}); "
                       f"it was not executed with --shards") from None
    except (OSError, ValueError) as exc:
        raise RunError(
            f"corrupt shard plan for run {run_id}: {exc}") from exc
    return ShardPlan.from_dict(payload)
