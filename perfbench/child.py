"""One repetition of a workload, in a fresh process.

    python3 perfbench/child.py '<json spec>'

``run.py`` launches this once per repetition, so every repetition pays
what a user's ``repro run`` pays.  The spec names the mode
(``paper_grid``, ``endpoint_grid``, ``sharded_grid`` or
``served_prep``), the seed, the runs directory and whether to install
the per-layer wrappers.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from endpoint import Endpoint, Renamed  # noqa: E402


def _resolver(workload: str):
    """Model resolution as the workload's user has it."""
    from repro.llm.registry import get_model
    if workload != "endpoint_grid":
        return get_model
    endpoints: dict[str, Endpoint] = {}

    def resolve(name: str) -> Endpoint:
        if name not in endpoints:
            endpoints[name] = Endpoint(get_model(name))
        return endpoints[name]

    resolve.endpoints = endpoints
    return resolve


def run_grid(spec: dict, fold: layers.Fold | None) -> dict:
    """``paper_grid`` / ``endpoint_grid``: set up, warm up, then
    ``spec["sweeps"]`` timed sweeps of the request."""
    from repro.runs import driver
    from repro.runs.registry import RunRegistry
    workload = spec["mode"]
    request = workloads.grid_request(workload, spec["seed"],
                                     spec.get("sample"))
    registry = RunRegistry(spec["runs_dir"])
    out = {"excluded_s": 0.0}
    if workload == "endpoint_grid":
        # Start the stand-in endpoint: one sequential pass builds its
        # simulated model's lazy oracle, as a running endpoint already
        # has.  Not the program's set-up, so excluded from it.
        started = time.monotonic()
        checks.reference_lines(workloads.warmup_request(request))
        out["excluded_s"] = time.monotonic() - started
        out["window"] = time.monotonic()
        if fold is not None:
            fold.reset()
    driver.build_request_pools(request)
    resolve = _resolver(workload)
    for name in request.models:
        resolve(name)
    driver.execute_run(workloads.warmup_request(request),
                       registry=registry, resolve_model=resolve)
    endpoint_grid = workload == "endpoint_grid"
    out.update({"ready": time.monotonic(), "sweeps": [], "op_ms": {}})
    for _ in range(spec.get("sweeps", 1)):
        started = time.monotonic()
        result = driver.execute_run(request, registry=registry,
                                    resolve_model=resolve)
        out["end"] = time.monotonic()
        ledger = registry.ledger_path(result.run_id)
        lines = checks.record_lines(ledger, drop_trail=endpoint_grid)
        spans_path = registry.spans_path(result.run_id)
        out["sweeps"].append({
            "wall": out["end"] - started, "questions": result.evaluated,
            "cells": checks.cell_seconds(spans_path),
            "digest": checks.digest(lines, ordered=not endpoint_grid)})
        checks.keep_fastest(out["op_ms"], checks.question_ms(spans_path))
        out["stats"] = result.stats.to_dict() if result.stats else {}
        out["ledger_bytes"] = ledger.stat().st_size
        # Peak RSS is one sweep's: no result outlives its sweep.
        del result, lines
    endpoints = list(getattr(resolve, "endpoints", {}).values())
    out["round_trips"] = sum(e.round_trips for e in endpoints)
    out["round_trip_prompts"] = sum(e.prompts for e in endpoints)
    out["in_flight_s"] = sum(e.in_flight_s for e in endpoints)
    _finish(out, spec, fold, request, ordered=not endpoint_grid)
    return out


def _finish(out: dict, spec: dict, fold: layers.Fold | None, request,
            ordered: bool = True) -> None:
    """Read the program's peak RSS and fold, then (on repetition 0)
    compute the sequential reference, which neither may include."""
    out["rss_mb"] = layers.peak_rss_mb()
    if fold is not None:
        out["fold"] = fold.snapshot()
        fold.uninstall()
    if spec.get("reference"):
        out["reference_digest"] = checks.digest(
            checks.reference_lines(request), ordered=ordered)


def run_sharded(spec: dict, fold: layers.Fold | None) -> dict:
    """``sharded_grid``: plan, then ``spec["sweeps"]`` sharded sweeps,
    each with its own shard worker processes and merge."""
    from repro.dist import driver as dist_driver
    from repro.dist import planner
    from repro.runs.driver import build_request_pools
    from repro.runs.registry import RunRegistry
    request = workloads.grid_request("sharded_grid", spec["seed"],
                                     spec.get("sample"))
    registry = RunRegistry(spec["runs_dir"])
    planner.plan_shards(request, workloads.SHARDS,
                        build_request_pools(request))
    if fold is not None:
        _ship_worker_folds(fold, registry.root)
    out = {"ready": time.monotonic(), "sweeps": [], "op_ms": {}}
    for _ in range(spec.get("sweeps", 1)):
        started = time.monotonic()
        result = dist_driver.execute_run_sharded(
            request, workloads.SHARDS, registry=registry,
            procs=workloads.SHARDS)
        out["end"] = time.monotonic()
        lines = checks.record_lines(registry.ledger_path(result.run_id))
        cells: dict[str, float] = {}
        shards = []
        for shard in range(workloads.SHARDS):
            spans_path = registry.shard_spans_path(result.run_id, shard)
            spans = checks.question_spans(spans_path)
            checks.keep_fastest(out["op_ms"], checks.question_ms(
                spans_path, prefix=f"{shard}:"))
            cells.update(checks.cell_seconds(spans_path, lane=shard))
            brackets = {event["event"]: event["ts"] for event in
                        checks.jsonl_events(
                            registry.shard_ledger_path(result.run_id,
                                                       shard),
                            {"shard-started", "shard-finished"})}
            shards.append({
                "busy_s": (brackets["shard-finished"]
                           - brackets["shard-started"]),
                "first_question_s": spans[0][1] if spans else 0.0})
        out["sweeps"].append({"wall": out["end"] - started,
                              "questions": result.evaluated,
                              "cells": cells,
                              "digest": checks.digest(lines)})
        out["shards"] = shards
        out["stats"] = result.stats.to_dict() if result.stats else {}
        out["ledger_bytes"] = sum(
            path.stat().st_size for path in
            registry.run_dir(result.run_id).rglob("ledger.jsonl"))
        del result, lines
    if fold is not None:
        out["worker_folds"] = [
            json.loads(path.read_text())
            for path in sorted(Path(registry.root).glob("fold-*.json"))]
    _finish(out, spec, fold, request)
    return out


def _ship_worker_folds(fold: layers.Fold, root) -> None:
    """Make each shard worker (a forked copy of this process, wrappers
    included) write its own fold next to the runs."""
    from repro.dist import worker
    original = worker.shard_entry

    def shard_entry(root_dir, run_id, shard, *args, **kwargs):
        fold.reset()
        started = time.perf_counter()
        try:
            return original(root_dir, run_id, shard, *args, **kwargs)
        finally:
            snapshot = fold.snapshot()
            snapshot["wall_s"] = time.perf_counter() - started
            Path(root, f"fold-{shard}.json").write_text(
                json.dumps(snapshot))

    # Same qualified name, so the pool pickles it by reference.
    shard_entry.__module__ = original.__module__
    shard_entry.__qualname__ = original.__qualname__
    fold.patch(worker, "shard_entry", shard_entry)


def run_served_prep(spec: dict) -> dict:
    """Two finished, trail-on runs of one request: the original and a
    rebuilt endpoint answering under the same model name."""
    from repro.llm.registry import get_model
    from repro.runs import driver
    from repro.runs.registry import RunRegistry
    request = workloads.served_request(spec["seed"], spec.get("sample"))
    registry = RunRegistry(spec["runs_dir"])
    first = driver.execute_run(request, registry=registry,
                               keep_records=False)
    rebuilt = Renamed(get_model(workloads.SERVED_REBUILD), "GPT-4")
    second = driver.execute_run(request, registry=registry,
                                keep_records=False,
                                resolve_model=lambda name: rebuilt)
    return {"runs": [first.run_id, second.run_id],
            "questions": first.evaluated}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    try:
        import repro.cli  # noqa: F401  (what `repro run` imports)
        window = time.monotonic()
        fold = layers.Fold().install() if spec.get("trace") else None
        mode = spec["mode"]
        if mode in ("paper_grid", "endpoint_grid"):
            out = run_grid(spec, fold)
        elif mode == "sharded_grid":
            out = run_sharded(spec, fold)
        elif mode == "served_prep":
            out = run_served_prep(spec)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        out.setdefault("window", window)
    except Exception as exc:  # reported to the parent, which fails the run
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
