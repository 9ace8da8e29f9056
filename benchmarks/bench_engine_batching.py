"""Bench BATCH — batched+coalesced engine vs. the threaded baseline.

Drives a duplicate-heavy workload (10 000 prompts, 2 000 unique) against
a synthetic endpoint that models a real batch API: a server-side
concurrency cap of eight, one network round trip per *call* (so a
32-prompt batch costs one latency plus a small per-item increment, not
32 latencies).  The baseline is the engine at its pre-batching best —
eight workers over a warm-capable cache — and the contender adds
``batch_size=32`` + coalescing + the AIMD limiter.

Three gates, wired into ``scripts/check.sh`` and CI:

* the batched configuration is **>= 2x** faster than the threaded
  baseline;
* coalescing + caching issue **exactly one** backend call per unique
  prompt — not one extra, which the coalesce-outside-cache ordering
  makes deterministic rather than probabilistic;
* records and metrics are **bit-identical** to the sequential runner at
  every probed (workers, batch_size, coalesce, hedged-pool) combination.

The run's engine stats land as JSON in ``REPRO_BATCH_STATS_ARTIFACT``
(default ``benchmarks/.artifacts/engine_batching_stats.json``) — CI
uploads it so a throughput regression comes with the batch/coalesce
counters that explain it.

Run standalone for a sub-second smoke (used by ``scripts/check.sh``)::

    PYTHONPATH=src python benchmarks/bench_engine_batching.py
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Sequence
from pathlib import Path

from conftest import once

from repro.core.report import format_rows
from repro.core.runner import EvaluationRunner
from repro.engine.config import EngineConfig
from repro.engine.pool import BackendPool
from repro.engine.scheduler import EvaluationEngine
from repro.llm.base import BaseChatModel
from repro.llm.registry import get_model
from repro.questions.model import DatasetKind
from repro.questions.pools import build_pools

#: Where the batched pass's engine stats land (CI artifact).
STATS_ARTIFACT_ENV = "REPRO_BATCH_STATS_ARTIFACT"
DEFAULT_STATS_ARTIFACT = (Path(__file__).resolve().parent
                          / ".artifacts"
                          / "engine_batching_stats.json")

#: (workers, batch_size, coalesce, hedged pool) bit-identity probes.
IDENTITY_COMBOS = ((1, 4, True, False), (2, 2, False, False),
                   (8, 8, True, False), (4, 4, True, True))


class SyntheticBatchEndpoint(BaseChatModel):
    """A batch-capable endpoint with a server-side concurrency cap.

    One *call* costs one round trip: ``latency_s`` for the request
    plus ``per_item_s`` for each prompt in it.  That is the economics
    that make batching win — 32 prompts in one call cost ~one latency,
    not 32.  The semaphore models the provider-side concurrency cap
    that no amount of client threads can push past, which is why the
    threaded baseline plateaus.
    """

    def __init__(self, latency_s: float = 0.006,
                 per_item_s: float = 0.0001, server_cap: int = 8):
        super().__init__("synthetic-batch")
        self.latency_s = latency_s
        self.per_item_s = per_item_s
        self._server = threading.Semaphore(server_cap)

    def _respond(self, prompt: str) -> str:
        with self._server:
            time.sleep(self.latency_s + self.per_item_s)
        return f"ans:{prompt}"

    def _respond_batch(self, prompts: Sequence[str]) -> list[str]:
        with self._server:
            time.sleep(self.latency_s
                       + self.per_item_s * len(prompts))
        return [f"ans:{prompt}" for prompt in prompts]


def _workload(n_prompts: int, n_unique: int) -> list[str]:
    """Duplicate-heavy but shuffled: 7919 is coprime to any
    ``n_unique`` that divides a power of 10, so the first ``n_unique``
    items cover every distinct prompt before repeats begin."""
    return [f"q{(i * 7919) % n_unique:05d}" for i in range(n_prompts)]


def _ask(model, prompt: str) -> str:
    return model.generate(prompt)


def _measure(n_prompts: int = 10_000, n_unique: int = 2_000,
             latency_s: float = 0.006) -> list[dict[str, object]]:
    """Threaded baseline vs. batched+coalesced, plus identity sweep."""
    work = _workload(n_prompts, n_unique)
    expected = [f"ans:{prompt}" for prompt in work]
    rows: list[dict[str, object]] = []

    baseline_engine = EvaluationEngine(
        EngineConfig(max_workers=8, retry=None))
    model = SyntheticBatchEndpoint(latency_s)
    started = time.perf_counter()
    results = baseline_engine.run(model, work, _ask)
    baseline_s = time.perf_counter() - started
    assert results == expected
    rows.append({"mode": "8 workers (baseline)", "n": n_prompts,
                 "unique": n_unique, "wall_s": f"{baseline_s:.3f}",
                 "speedup": "1.0x",
                 "calls": baseline_engine.stats().calls,
                 "batches": 0, "coalesced": 0})

    batched_engine = EvaluationEngine(
        EngineConfig(max_workers=8, max_in_flight=128, batch_size=32,
                     coalesce=True, adaptive=True, retry=None))
    model = SyntheticBatchEndpoint(latency_s)
    seen = [0] * n_prompts

    def on_result(index: int, result: str) -> None:
        seen[index] += 1

    started = time.perf_counter()
    results = batched_engine.run(model, work, _ask,
                                 on_result=on_result)
    batched_s = time.perf_counter() - started
    assert results == expected
    assert seen == [1] * n_prompts
    stats = batched_engine.stats()
    rows.append({"mode": "batch=32 +coalesce", "n": n_prompts,
                 "unique": n_unique, "wall_s": f"{batched_s:.3f}",
                 "speedup": f"{baseline_s / batched_s:.1f}x",
                 "calls": stats.calls, "batches": stats.batches,
                 "coalesced": stats.coalesced})

    identity = _identity_sweep()
    _write_stats_artifact(n_prompts, n_unique, baseline_s, batched_s,
                          stats, identity)
    return rows


def _identity_sweep() -> list[dict[str, object]]:
    """Prove records+metrics bit-identity against the sequential
    runner at every probed engine configuration, hedged pool
    included."""
    pool = build_pools("ebay", sample_size=6).total_pool(
        DatasetKind.HARD)
    sequential = EvaluationRunner(keep_records=True).evaluate(
        get_model("GPT-4"), pool)
    probes: list[dict[str, object]] = []
    for workers, batch_size, coalesce, hedged in IDENTITY_COMBOS:
        engine = EvaluationEngine(
            EngineConfig(max_workers=workers, batch_size=batch_size,
                         coalesce=coalesce, cache=False, retry=None))
        backend = get_model("GPT-4")
        if hedged:
            backend = BackendPool(
                [get_model("GPT-4"), get_model("GPT-4")],
                hedge_delay_s=0.005)
        try:
            result = EvaluationRunner(
                engine=engine, keep_records=True).evaluate(
                    backend, pool)
        finally:
            if hedged:
                backend.close()
        probes.append({
            "workers": workers, "batch_size": batch_size,
            "coalesce": coalesce, "hedged": hedged,
            "identical": (result.records == sequential.records
                          and result.metrics == sequential.metrics),
        })
    return probes


def _write_stats_artifact(n_prompts: int, n_unique: int,
                          baseline_s: float, batched_s: float,
                          stats, identity: list[dict[str, object]]
                          ) -> Path:
    target = Path(os.environ.get(STATS_ARTIFACT_ENV,
                                 DEFAULT_STATS_ARTIFACT))
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps({
        "n_prompts": n_prompts,
        "n_unique": n_unique,
        "baseline_wall_s": round(baseline_s, 4),
        "batched_wall_s": round(batched_s, 4),
        "speedup": round(baseline_s / batched_s, 2),
        "engine_stats": stats.to_dict(),
        "identity": identity,
    }, indent=1) + "\n", encoding="utf-8")
    return target


def _gate(rows: list[dict[str, object]]) -> None:
    """The three hard gates shared by pytest and the smoke entry."""
    batched = next(row for row in rows
                   if row["mode"] == "batch=32 +coalesce")
    # Gate 1: batching+coalescing beat the threaded baseline >= 2x.
    assert float(str(batched["speedup"]).rstrip("x")) >= 2.0, batched
    # Gate 2: exactly one backend call per unique prompt — duplicates
    # ride the coalescer or the cache, never the wire.
    assert batched["calls"] == batched["unique"], batched
    assert batched["batches"] >= 2
    # Gate 3: every probed configuration is bit-identical to the
    # sequential runner (recorded in the stats artifact).
    artifact = Path(os.environ.get(STATS_ARTIFACT_ENV,
                                   DEFAULT_STATS_ARTIFACT))
    payload = json.loads(artifact.read_text(encoding="utf-8"))
    assert payload["identity"], "identity sweep ran no probes"
    for probe in payload["identity"]:
        assert probe["identical"], probe


def test_engine_batching(benchmark, report):
    rows = once(benchmark, _measure)
    _gate(rows)
    report(format_rows(
        rows,
        title="Engine batching (10k prompts, 2k unique, 6 ms/call)"))


if __name__ == "__main__":  # pragma: no cover - smoke entry point
    smoke_rows = _measure(n_prompts=3_000, n_unique=600,
                          latency_s=0.008)
    _gate(smoke_rows)
    print(format_rows(smoke_rows, title="Engine batching smoke"))
