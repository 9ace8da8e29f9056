"""Deterministic merge: K shard ledgers -> one run, bit-identical.

The merge is the counterpart of the planner's disjoint-exact-cover
invariant: it folds every shard's ``record`` events back together,
proves the union covers every planned cell exactly (no holes, no
conflicting duplicates), and then writes the *sequential event
stream* — walking the plan's cell order, writing ``cell-started``,
the cell's record lines in index order, and ``cell-finished`` with
metrics computed from the merged records — into the run's top-level
``ledger.jsonl``.  Records carry no timestamps, so a shard's record
line is already the line a single-process run writes: the merge
copies it verbatim, and metrics are pure functions of records.  The
merged ledger's cell and record events are therefore byte-identical
to a single-process run of the same request, which is the contract
the scaling benchmark gates.

Order-insensitivity falls out of the shape: shard ledgers are folded
into an index-keyed map, so the merge result cannot depend on which
worker finished first, how a shard's engine interleaved questions, or
how many times a shard crashed and resumed.

Crash safety: the merged ledger and span log are written to temp
files in the run directory and ``os.replace``d into place, so a merge
that dies mid-write leaves the run in the mergeable "all shards
finished" state it started in (stale ``*.tmp`` files are ``repro
runs gc`` food).  A re-merge of an already merged run is a no-op
load unless forced.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from pathlib import Path

from repro.core.results import (PoolResult, QuestionRecord,
                                metrics_from_records)
from repro.engine.cache import ResponseCache, merge_caches
from repro.engine.telemetry import EngineStats
from repro.errors import RunError
from repro.obs.export import write_spans_jsonl
from repro.obs.history import append_entry, entry_from_result
from repro.obs.tracer import Tracer
from repro.runs.driver import CellKey, RunResult, load_run
from repro.runs.ledger import RunLedger
from repro.runs.registry import RunRegistry
from repro.dist.planner import ShardPlan, load_shard_plan
from repro.dist.worker import (MERGED_RUN_SPAN_ID, ShardState,
                               replay_shard)

#: A cell's merged ``(record, ledger line)`` pairs, in index order.
_MergedCell = list[tuple[QuestionRecord, str]]


def merge_stats(stats_list: list[EngineStats]) -> EngineStats | None:
    """Aggregate per-shard engine stats into one run-level snapshot.

    Counters sum; wall time is the max (shards ran concurrently) and
    busy time the sum; workers sum across processes.  The latency
    quantiles are record-weighted means of the shard quantiles — an
    approximation (exact quantiles would need the raw histograms),
    which is fine because stats are observability, explicitly outside
    the bit-identical determinism contract.
    """
    stats_list = [stats for stats in stats_list if stats is not None]
    if not stats_list:
        return None
    records = sum(stats.records for stats in stats_list)

    def weighted(attr: str) -> float:
        if records == 0:
            return 0.0
        return sum(getattr(stats, attr) * stats.records
                   for stats in stats_list) / records

    with_latency = [stats for stats in stats_list if stats.records]
    return EngineStats(
        records=records,
        calls=sum(stats.calls for stats in stats_list),
        retries=sum(stats.retries for stats in stats_list),
        faults=sum(stats.faults for stats in stats_list),
        timeouts=sum(stats.timeouts for stats in stats_list),
        cache_hits=sum(stats.cache_hits for stats in stats_list),
        cache_misses=sum(stats.cache_misses for stats in stats_list),
        wall_time_s=max(stats.wall_time_s for stats in stats_list),
        busy_time_s=sum(stats.busy_time_s for stats in stats_list),
        workers=sum(stats.workers for stats in stats_list),
        # Integer nano-dollar sums are associative, so the merged
        # totals are bit-identical to the single-process run's —
        # unlike the latency quantiles, cost is *inside* the
        # determinism contract.
        prompt_tokens=sum(stats.prompt_tokens
                          for stats in stats_list),
        completion_tokens=sum(stats.completion_tokens
                              for stats in stats_list),
        cost_nanos=sum(stats.cost_nanos for stats in stats_list),
        latency_p50_s=weighted("latency_p50_s"),
        latency_p90_s=weighted("latency_p90_s"),
        latency_p99_s=weighted("latency_p99_s"),
        latency_min_s=(min(stats.latency_min_s
                           for stats in with_latency)
                       if with_latency else 0.0),
        latency_max_s=(max(stats.latency_max_s
                           for stats in with_latency)
                       if with_latency else 0.0),
    )


def _fold_records(run_id: str, plan: ShardPlan,
                  states: list[ShardState]) -> dict[str, _MergedCell]:
    """Union every shard's records, proving exact disjoint coverage.

    An index recorded by several shards keeps the last one's line.
    """
    expected = dict(plan.cells)
    merged: dict[str, dict[int, tuple[QuestionRecord, str]]] = {
        cell_id: {} for cell_id, _ in plan.cells}
    for state in states:
        for cell_id, cell in state.cells.items():
            if cell_id not in merged:
                raise RunError(
                    f"shard {state.shard} of run {run_id} recorded "
                    f"cell {cell_id} which is not in the shard plan")
            if cell.expected_n and cell.expected_n != expected[cell_id]:
                raise RunError(
                    f"shard {state.shard} of run {run_id} sized cell "
                    f"{cell_id} at {cell.expected_n} questions but "
                    f"the plan says {expected[cell_id]}")
            bucket = merged[cell_id]
            lines = state.lines.get(cell_id, {})
            for index, record in cell.records.items():
                previous = bucket.get(index)
                if previous is not None and previous[0] != record:
                    raise RunError(
                        f"run {run_id} cell {cell_id} question "
                        f"{index} has conflicting records across "
                        f"shards — the shard plan overlapped or a "
                        f"backend is non-deterministic")
                bucket[index] = record, lines[index]
    incomplete = []
    for cell_id, n in plan.cells:
        missing = [i for i in range(n) if i not in merged[cell_id]]
        if missing:
            incomplete.append(f"{cell_id} (missing {len(missing)} of "
                              f"{n})")
    if incomplete:
        preview = "; ".join(incomplete[:4])
        more = (f" and {len(incomplete) - 4} more cells"
                if len(incomplete) > 4 else "")
        raise RunError(
            f"run {run_id} cannot be merged yet: {preview}{more}. "
            f"Resume the unfinished shards first "
            f"(repro runs resume {run_id}).")
    return {cell_id: [merged[cell_id][i] for i in range(n)]
            for cell_id, n in plan.cells}


@contextmanager
def _swapped_in(target: Path, suffix: str) -> Iterator[str]:
    """A temp file beside ``target`` that replaces it when the block
    succeeds and is removed when it fails."""
    handle, tmp = tempfile.mkstemp(dir=target.parent, suffix=suffix)
    os.close(handle)
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _write_merged_ledger(registry: RunRegistry, run_id: str,
                         merged: dict[str, _MergedCell], attempt: int,
                         stats: EngineStats | None) -> dict:
    """Emit the sequential event stream.  Returns cell id -> metrics."""
    cell_metrics: dict[str, object] = {}
    with _swapped_in(registry.ledger_path(run_id), ".ledger.tmp") \
            as tmp, RunLedger(tmp, durability="close") as ledger:
        ledger.run_started(run_id, attempt=attempt)
        for cell_id, pairs in merged.items():
            ledger.cell_started(cell_id, len(pairs))
            ledger.record_lines(line for _, line in pairs)
            metrics = metrics_from_records(
                [record for record, _ in pairs])
            cell_metrics[cell_id] = metrics
            ledger.cell_finished(cell_id, metrics)
        ledger.run_finished(
            len(merged), stats.to_dict() if stats is not None else None)
    return cell_metrics


def _merge_spans(registry: RunRegistry, run_id: str,
                 plan: ShardPlan, dataset: str) -> None:
    """Concatenate the shard span logs under one ``run`` span.

    Shards hand out span ids from disjoint ranges and hang their
    ``shard`` spans under :data:`MERGED_RUN_SPAN_ID`, so each shard
    log's complete lines are copied as they are (a missing log is a
    shard that ran untraced; bytes after the last newline are a torn
    append).  Nothing is decoded: a damaged span line reaches the
    merged log for ``repro obs trace`` to report.
    """
    tracer = Tracer(first_id=MERGED_RUN_SPAN_ID)
    with _swapped_in(registry.spans_path(run_id), ".spans.tmp") as tmp:
        with tracer.span("run", run_id=run_id, dataset=dataset,
                         shards=plan.num_shards, merged=True), \
                open(tmp, "wb") as stream:
            for shard in range(plan.num_shards):
                try:
                    data = registry.shard_spans_path(
                        run_id, shard).read_bytes()
                except OSError:
                    continue
                stream.write(data[:data.rfind(b"\n") + 1])
        write_spans_jsonl(tracer.spans(), tmp, append=True)


def merge_run(run_id: str,
              registry: RunRegistry | None = None,
              keep_records: bool = True,
              force: bool = False) -> RunResult:
    """Fold a sharded run's K shard ledgers into its run ledger.

    Refuses (with the unfinished cells named) while any planned
    question lacks a record; idempotent once merged — a second call
    is a pure :func:`load_run` unless ``force`` re-merges from the
    shard ledgers (e.g. after restoring a shard from backup).
    """
    registry = registry if registry is not None else RunRegistry()
    request = registry.request(run_id)
    if not force and registry.state(run_id).finished:
        return load_run(run_id, registry=registry,
                        keep_records=keep_records)
    plan = load_shard_plan(registry, run_id)
    states = [replay_shard(registry.shard_ledger_path(run_id, shard),
                           shard)
              for shard in range(plan.num_shards)]
    merged = _fold_records(run_id, plan, states)
    attempt = max([state.attempts for state in states] + [1])
    stats = merge_stats([
        EngineStats.from_dict(state.stats)
        for state in states if state.stats])
    cell_metrics = _write_merged_ledger(registry, run_id, merged,
                                        attempt, stats)
    _merge_spans(registry, run_id, plan, request.dataset)
    append_entry(entry_from_result(
        run_id, request.dataset, cell_metrics, stats=stats,
        attempts=attempt, shards=plan.num_shards), registry)

    cells: dict[CellKey, PoolResult] = {}
    replayed = 0
    for cell_id, pairs in merged.items():
        key = CellKey.parse(cell_id)
        if key is None:  # pragma: no cover - planner emits only keys
            continue
        replayed += len(pairs)
        cells[key] = PoolResult(
            pool_label=key.pool_label, model=key.model,
            setting=key.setting, metrics=cell_metrics[cell_id],
            records=(tuple(record for record, _ in pairs)
                     if keep_records else ()))
    return RunResult(run_id=run_id, request=request, cells=cells,
                     stats=stats, replayed=replayed)


def merge_shard_caches(run_id: str,
                       registry: RunRegistry | None = None,
                       target: str | Path | None = None,
                       capacity: int | None = None) -> ResponseCache:
    """Fold per-shard cache files into one shared cache.

    The pre-existing ``target`` content is merged first (its entries
    win, keeping warm-cache behaviour stable across re-runs), then
    the shard caches in ascending shard order — a deterministic
    first-writer-wins fold with no concurrent writes anywhere.  When
    ``target`` is given the merged cache is also saved there.
    """
    registry = registry if registry is not None else RunRegistry()
    plan = load_shard_plan(registry, run_id)
    caches: list[ResponseCache] = []
    if target is not None and Path(target).exists():
        caches.append(ResponseCache.load(target))
    for shard in range(plan.num_shards):
        path = registry.shard_cache_path(run_id, shard)
        if path.exists():
            caches.append(ResponseCache.load(path))
    merged = merge_caches(caches, capacity=capacity)
    if target is not None:
        merged.save(target)
    return merged
