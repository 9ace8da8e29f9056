"""Shard workers: execute one shard of a run in its own process.

Each shard owns a *shard directory* (``<run>/shards/shard-NN/``) with
the same artifact shapes as a whole run — ``ledger.jsonl``,
``spans.jsonl``, ``heartbeat.json``, optionally ``cache.json`` — so
every durability property proven for single-process runs carries over
file for file: appends are single locked writes, a torn final line is
the crash signature, and the pid in each attempt's ``shard-started``
event plus the heartbeat separate "slow" from "gone".

A shard ledger speaks the run ledger's event language with two
additions, ``shard-started`` / ``shard-finished``, bracketing each
attempt the way ``run-started`` / ``run-finished`` bracket a run.
Cells are *never* sealed here: a shard may own only a range of a
cell's questions, so ``cell-finished`` is the merge's exclusive right
— which is also what lets the merge detect coverage holes instead of
trusting K workers' self-reports.

Crash-safe resume is per shard: :func:`run_shard` replays its own
ledger first and re-asks only the question indices of its tasks that
have no record yet, exactly the ``resume_run`` contract scoped down to
one shard.  Because pools, prompts and the simulated backends are pure
functions of the request, a shard's records are bit-identical whether
it ran clean, crashed and resumed, or ran inline in the driver.
:func:`run_shard` hands back the state it ends with (its replayed
ledger plus every record it wrote, with the line written for it), so
the sharded driver merges without reading a shard ledger back.

Span ids are partitioned so the merge can concatenate shard span logs
without remapping them: shard ``k``'s tracer hands out ids from
``(k + 1) << 32`` up (:func:`shard_first_span_id`), and its ``shard``
span names :data:`MERGED_RUN_SPAN_ID`, the id of the merged run's
``run`` span, as its parent.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.results import QuestionRecord
from repro.engine.cache import ResponseCache
from repro.engine.telemetry import EngineStats
from repro.errors import RunError
from repro.llm.prompting import PromptSetting
from repro.llm.registry import get_model
from repro.obs.tracer import Tracer
from repro.runs.driver import (ModelResolver, _pool_for,
                               build_request_pools)
from repro.runs.ledger import (CellState, RunLedger, RunState, _apply,
                               fold_ledger)
from repro.runs.session import RunSession, engine_for
from repro.dist.planner import ShardPlan, load_shard_plan
from repro.runs.registry import RunRegistry

#: Span id of a merged run's ``run`` span, below every shard's range.
MERGED_RUN_SPAN_ID = 1


def shard_first_span_id(shard: int) -> int:
    """First span id of shard ``shard``'s id range (2**32 ids wide)."""
    return (shard + 1) << 32


class ShardLedger(RunLedger):
    """A run ledger plus the shard attempt bracket events.

    :attr:`lines` keeps the line of every record it writes, for the
    state :func:`run_shard` hands back.
    """

    def __init__(self, path: str | Path):
        super().__init__(path)
        #: cell id -> question index -> record line (no newline).
        self.lines: dict[str, dict[int, str]] = {}

    def record(self, cell_id: str, index: int,
               record: QuestionRecord) -> str:
        line = super().record(cell_id, index, record)
        self.lines.setdefault(cell_id, {})[index] = line
        return line

    def shard_started(self, run_id: str, shard: int,
                      attempt: int = 1) -> None:
        self._append({"event": "shard-started", "run_id": run_id,
                      "shard": shard, "attempt": attempt,
                      "pid": os.getpid(), "ts": time.time()},
                     sync=self._sync_boundary())

    def shard_finished(self, shard: int,
                       stats: dict | None = None) -> None:
        self._append({"event": "shard-finished", "shard": shard,
                      "stats": stats, "ts": time.time()},
                     sync=self._sync_boundary())


@dataclass
class ShardState(RunState):
    """What one shard ledger says: folded out of it by
    :func:`replay_shard`, or kept by :func:`run_shard` as it writes.

    The shard brackets fold as run brackets do (``attempts``,
    ``finished``, ``pid``, ``stats``).  :attr:`lines` keeps, for each
    record, the text of its line, so the merge copies record lines
    instead of re-encoding them.
    """

    shard: int = 0
    #: cell id -> question index -> record line (no newline).
    lines: dict[str, dict[int, str]] = field(default_factory=dict)

    def done_for(self, cell_id: str,
                 indices) -> dict[int, QuestionRecord]:
        """Already-persisted records of one task's index range."""
        cell = self.cells.get(cell_id)
        if cell is None:
            return {}
        return {index: cell.records[index] for index in indices
                if index in cell.records}


def _apply_shard(state: ShardState, event: dict, text: str) -> None:
    """:func:`~repro.runs.ledger._apply`, keeping each record's line."""
    _apply(state, event)
    if event["event"] == "record":
        state.lines.setdefault(event["cell"], {})[int(event["i"])] = text


def replay_shard(path, shard: int) -> ShardState:
    """Fold a shard ledger into :class:`ShardState` in one pass.

    Every event folds through the run ledger's own
    :func:`~repro.runs.ledger.fold_ledger` loop and ``_apply``, so the
    torn-tail and corruption rules are the run ledger's.  A missing
    file is simply a shard that never started.
    """
    state = ShardState(shard=shard)
    try:
        return fold_ledger(path, state, _apply_shard)[0]
    except FileNotFoundError:
        return state


@dataclass(frozen=True, slots=True)
class ShardResult:
    """Outcome of one :func:`run_shard` invocation.

    :attr:`state` is what the shard's ledger says once the invocation
    ends, so the merge reads no shard ledger back.
    """

    run_id: str
    shard: int
    evaluated: int
    replayed: int
    state: ShardState
    stats: EngineStats | None = None


def run_shard(run_id: str, shard: int,
              registry: RunRegistry | None = None,
              resolve_model: ModelResolver | None = None,
              plan: ShardPlan | None = None,
              warm_cache: str | None = None) -> ShardResult:
    """Execute (or resume) one shard of a sharded run.

    Idempotent: a shard whose ledger already carries a
    ``shard-finished`` event returns a pure replay summary with zero
    model calls.  A partially recorded shard re-asks only its holes.

    The result's state is the replayed ledger plus every record this
    attempt wrote, with its line: equal to :func:`replay_shard` of the
    ledger afterwards in its cells, lines, ``attempts``, ``finished``
    and ``stats``.

    ``warm_cache`` names a pre-existing shared cache file to seed the
    shard's response cache from (read-only — concurrent shards may
    all load it); the shard's final cache (seed + its own responses)
    is persisted to the shard directory, never to the shared path.

    The shard's tracer hands out ids from :func:`shard_first_span_id`
    up, so the merge copies its span log as it is.
    """
    registry = registry if registry is not None else RunRegistry()
    resolve = resolve_model if resolve_model is not None else get_model
    request = registry.request(run_id)
    if plan is None:
        plan = load_shard_plan(registry, run_id)
    if not 0 <= shard < plan.num_shards:
        raise RunError(f"run {run_id} has {plan.num_shards} shards; "
                       f"no shard {shard}")
    tasks = plan.shards[shard]
    ledger_path = registry.shard_ledger_path(run_id, shard)
    state = replay_shard(ledger_path, shard)
    if state.finished:
        return ShardResult(
            run_id=run_id, shard=shard, evaluated=0,
            replayed=state.recorded_questions, state=state,
            stats=(EngineStats.from_dict(state.stats)
                   if state.stats else None))
    pools = build_request_pools(request)
    cache = (ResponseCache.load(warm_cache)
             if warm_cache is not None else None)
    attempt = state.attempts + 1
    evaluated = 0
    replayed = 0
    with RunSession(request, registry.shard_dir(run_id, shard),
                    engine=engine_for(request, cache),
                    tracer=Tracer(first_id=shard_first_span_id(shard)),
                    keep_records=False,
                    ledger_type=ShardLedger) as session:
        session.ledger.shard_started(run_id, shard, attempt=attempt)
        with session.span("shard", parent=MERGED_RUN_SPAN_ID,
                          run_id=run_id, shard=shard,
                          tasks=len(tasks), attempt=attempt):
            for task in tasks:
                pool = _pool_for(task.cell, pools)
                if len(pool) != task.n:
                    raise RunError(
                        f"shard plan sized cell {task.cell.cell_id} "
                        f"at {task.n} questions but the request now "
                        f"builds {len(pool)} — the plan predates a "
                        f"generator change")
                done = state.done_for(task.cell.cell_id, task.indices)
                replayed += len(done)
                evaluated += task.size - len(done)
                cell = state.cells.setdefault(
                    task.cell.cell_id, CellState(task.cell.cell_id))
                cell.expected_n = len(pool)
                cell.records.update(session.runner.evaluate_slice(
                    resolve(task.cell.model), pool,
                    PromptSetting(task.cell.setting), task.indices,
                    done=done))
        stats = session.stats()
        session.ledger.shard_finished(shard, stats.to_dict())
    for cell_id, lines in session.ledger.lines.items():
        state.lines.setdefault(cell_id, {}).update(lines)
    state.attempts = attempt
    state.finished = True
    state.stats = stats.to_dict()
    if cache is not None:
        cache.save(registry.shard_cache_path(run_id, shard))
    return ShardResult(run_id=run_id, shard=shard,
                       evaluated=evaluated, replayed=replayed,
                       state=state, stats=stats)


def shard_entry(root: str, run_id: str, shard: int,
                warm_cache: str | None = None,
                resolve_model: ModelResolver | None = None
                ) -> ShardResult:
    """Process-pool entry point (module-level, so it pickles).

    ``resolve_model`` must itself be picklable when crossing a
    process boundary — a module-level function, or ``None`` for the
    model registry's resolver.
    """
    return run_shard(run_id, shard, registry=RunRegistry(root),
                     resolve_model=resolve_model,
                     warm_cache=warm_cache)
