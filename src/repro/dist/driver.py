"""Sharded execution: fan a run's shards across worker processes.

``execute_run_sharded`` is ``execute_run``'s fleet-shaped sibling: it
creates the run, persists the shard plan, executes every shard (in a
:class:`~concurrent.futures.ProcessPoolExecutor`, mirroring
``repro.store.parallel`` — or inline with ``procs=0`` for
deterministic single-process tests and non-picklable model
resolvers), and merges the states the shards hand back — what each
shard's ledger says — into the top-level run with
:func:`repro.dist.merge.merge_run`, so the parent reads no shard
ledger back.

Failure semantics are deliberately partial-progress-friendly: a shard
that dies does not abort its siblings — the driver lets every shard
finish, then raises one error naming the casualties, because all the
completed work is already durable in the shard ledgers and
``resume_run_sharded`` re-enters only the holes.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.errors import RunError
from repro.runs.driver import (ModelResolver, RunResult,
                               build_request_pools, load_run,
                               plan_cells)
from repro.runs.registry import RunRegistry
from repro.runs.request import RunRequest
from repro.dist.merge import merge_run, merge_shard_caches
from repro.dist.planner import (ShardPlan, load_shard_plan,
                                plan_shards, save_shard_plan)
from repro.dist.worker import ShardResult, run_shard, shard_entry


def _run_shards(registry: RunRegistry, run_id: str, plan: ShardPlan,
                procs: int | None,
                resolve_model: ModelResolver | None,
                cache_path: str | None
                ) -> tuple[list[ShardResult], list[str]]:
    """Execute every shard.

    Returns the results of the shards that finished, in shard order,
    and a description of each failure.

    ``procs=0`` runs the shards inline in this process, one after
    another — the path for tests, debuggers and model resolvers that
    cannot cross a pickle boundary.  Any other value fans out over a
    process pool (``None`` = one process per shard, capped at the
    machine's cores), forked from a frozen heap (:func:`gc.freeze`):
    a worker's collections then skip every object it inherited.
    """
    results: dict[int, ShardResult] = {}
    failures: list[str] = []
    if procs == 0:
        for shard in range(plan.num_shards):
            try:
                results[shard] = run_shard(
                    run_id, shard, registry=registry,
                    resolve_model=resolve_model, plan=plan,
                    warm_cache=cache_path)
            except Exception as exc:
                failures.append(f"shard {shard}: {exc}")
    else:
        if procs is None:
            procs = min(plan.num_shards, os.cpu_count() or 1)
        gc.freeze()
        try:
            with ProcessPoolExecutor(max_workers=max(1, procs)) as pool:
                futures = {
                    pool.submit(shard_entry, str(registry.root), run_id,
                                shard, cache_path, resolve_model): shard
                    for shard in range(plan.num_shards)}
                for future in as_completed(futures):
                    shard = futures[future]
                    try:
                        results[shard] = future.result()
                    except Exception as exc:
                        failures.append(f"shard {shard}: {exc}")
        finally:
            gc.unfreeze()
    return [results[shard] for shard in sorted(results)], failures


def _finish(registry: RunRegistry, run_id: str,
            results: list[ShardResult], failures: list[str],
            keep_records: bool, cache_path: str | None) -> RunResult:
    """Merge the states the shards handed back (or report the
    casualties of the sweep)."""
    if failures:
        raise RunError(
            f"run {run_id}: {len(failures)} shard(s) failed — "
            + "; ".join(sorted(failures))
            + ". Completed work is durable in the shard ledgers; "
            f"`repro runs resume {run_id}` re-enters only the holes.")
    result = merge_run(run_id, registry=registry,
                       keep_records=keep_records,
                       _states=[shard.state for shard in results])
    result.evaluated = sum(shard.evaluated for shard in results)
    result.replayed = max(0, result.replayed - result.evaluated)
    if cache_path is not None:
        merge_shard_caches(run_id, registry=registry,
                           target=cache_path)
    return result


def execute_run_sharded(request: RunRequest, shards: int,
                        registry: RunRegistry | None = None,
                        run_id: str | None = None,
                        procs: int | None = None,
                        resolve_model: ModelResolver | None = None,
                        keep_records: bool = True,
                        cache_path: str | None = None) -> RunResult:
    """Run the full sweep as ``shards`` independent workers + merge.

    The returned :class:`RunResult` — metrics, per-question records,
    regenerated tables — is bit-identical to ``execute_run`` of the
    same request (the scaling benchmark gates this).  On worker
    failure the surviving shards' work stays on disk and a single
    :class:`RunError` names the failed shards.

    ``resolve_model`` must be picklable (a module-level function)
    when ``procs != 0``; ``cache_path`` names a shared warm cache
    each worker seeds from and the merged shard caches fold back
    into.
    """
    if shards < 1:
        raise RunError(f"shards must be >= 1, got {shards}")
    registry = registry if registry is not None else RunRegistry()
    # Build pools up front: persists the artifacts, so forked workers
    # load them warm instead of regenerating taxonomies K times.
    pools = build_request_pools(request)
    cells = plan_cells(request, pools)
    if run_id is None:
        run_id = registry.create(request, cells=len(cells))
    plan = plan_shards(request, shards, pools)
    save_shard_plan(registry, run_id, plan)
    results, failures = _run_shards(registry, run_id, plan, procs,
                                    resolve_model, cache_path)
    return _finish(registry, run_id, results, failures, keep_records,
                   cache_path)


def resume_run_sharded(run_id: str,
                       registry: RunRegistry | None = None,
                       procs: int | None = None,
                       resolve_model: ModelResolver | None = None,
                       keep_records: bool = True,
                       cache_path: str | None = None) -> RunResult:
    """Finish an interrupted sharded run, reusing all durable work.

    Every shard is re-entered through :func:`run_shard`, which is
    idempotent — finished shards replay for free, crashed shards
    re-ask only their missing question indices — and the merge runs
    (or re-loads) at the end, so the call converges to the same
    bit-identical result from any crash point, including a crash
    *during a previous merge*.
    """
    registry = registry if registry is not None else RunRegistry()
    if registry.state(run_id).finished:
        return load_run(run_id, registry=registry,
                        keep_records=keep_records)
    plan = load_shard_plan(registry, run_id)
    results, failures = _run_shards(registry, run_id, plan, procs,
                                    resolve_model, cache_path)
    return _finish(registry, run_id, results, failures, keep_records,
                   cache_path)
