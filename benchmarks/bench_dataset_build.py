"""Bench DS — dataset pipeline: cold builds vs. artifact-store loads.

Builds every taxonomy's question pools three ways against a scratch
store — cold in parallel worker processes, cold sequentially in-process
and warm from the on-disk columnar artifacts — then verifies the three
results are equal question for question.  Taxonomy caches are cleared
before each cold phase so neither measurement is flattered by the
other's warm ``lru_cache``.

The warm-load speedup is asserted unconditionally (deserialization
must beat regeneration by >= 10x).  The parallel speedup (>= 2x) is
only asserted when the machine actually has ``PARALLEL_JOBS`` cores:
on a single-core container process fan-out can only add overhead, and
the row is reported without judgement.

A second phase does the same for the simulated models' taxonomy
artifacts: all ten are built cold, then loaded warm from a fresh store
handle.  The warm columns, product titles and decoded taxonomies must
equal the generated ones, and the warm phase must make zero
``build_taxonomy`` calls; the cold/warm ratio is reported, not gated.

Run standalone for a reduced-scale smoke (used by ``scripts/check.sh``
and CI)::

    PYTHONPATH=src python benchmarks/bench_dataset_build.py --smoke
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

from conftest import once

from repro.core.report import format_rows
from repro.generators.products import product_titles
from repro.generators.registry import TAXONOMY_KEYS, build_taxonomy
from repro.questions.model import DatasetKind
from repro.questions.pools import generate_pools
from repro.store import ArtifactStore, build_all_datasets, decode_taxonomy

PARALLEL_JOBS = 4


def _assert_equal(expected, actual, label: str) -> None:
    for key in TAXONOMY_KEYS:
        for kind in DatasetKind:
            assert (expected[key].total_pool(kind).questions ==
                    actual[key].total_pool(kind).questions), \
                f"{label}: {key}/{kind.value} pools differ"


def _measure(sample_size: int | None = None,
             jobs: int = PARALLEL_JOBS) -> list[dict[str, object]]:
    """Time parallel-cold, sequential-cold and warm-load builds."""
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        # Parallel first: workers fork from this process, so its
        # taxonomy caches must be cold for an honest measurement.
        build_taxonomy.cache_clear()
        store = ArtifactStore(root)
        started = time.perf_counter()
        parallel = build_all_datasets(sample_size=sample_size,
                                      jobs=jobs, store=store, force=True)
        parallel_s = time.perf_counter() - started

        build_taxonomy.cache_clear()
        started = time.perf_counter()
        sequential = {key: generate_pools(key, sample_size=sample_size)
                      for key in TAXONOMY_KEYS}
        sequential_s = time.perf_counter() - started

        warm_store = ArtifactStore(root)
        started = time.perf_counter()
        warm = build_all_datasets(sample_size=sample_size,
                                  store=warm_store)
        warm_s = time.perf_counter() - started
        assert warm_store.stats.hits == len(TAXONOMY_KEYS)
        assert warm_store.stats.builds == 0, \
            "warm load must do zero generation work"

        _assert_equal(sequential, parallel, "parallel vs sequential")
        _assert_equal(sequential, warm, "warm vs sequential")

        questions = sum(len(sequential[key].total_pool(kind))
                        for key in TAXONOMY_KEYS for kind in DatasetKind)
        rows = []
        for mode, elapsed in (("cold sequential", sequential_s),
                              (f"cold parallel x{jobs}", parallel_s),
                              ("warm load", warm_s)):
            rows.append({
                "mode": mode, "questions": questions,
                "wall_s": f"{elapsed:.3f}",
                "speedup": f"{sequential_s / max(elapsed, 1e-9):.1f}x",
            })
        return rows
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _build_calls() -> int:
    info = build_taxonomy.cache_info()
    return info.hits + info.misses


def _assert_taxonomy_matches(key: str, payload: dict) -> None:
    """Warm columns, titles and decoded graph equal the generated ones."""
    taxonomy = build_taxonomy(key)
    column = payload["taxonomy"]
    ids = column["ids"]
    assert ids == [node.node_id for node in taxonomy], key
    assert column["names"] == [node.name for node in taxonomy], key
    assert [ids[row] if row >= 0 else None for row in column["parents"]] \
        == [node.parent_id for node in taxonomy], key
    assert list(zip(column.get("titles", ()),
                    (ids[row] for row in column.get("anchors", ())))) \
        == product_titles(key, taxonomy), f"{key}: product titles differ"
    assert [(node.node_id, node.name, node.level, node.parent_id)
            for node in decode_taxonomy(column)] == \
        [(node.node_id, node.name, node.level, node.parent_id)
         for node in taxonomy], f"{key}: decoded taxonomy differs"


def _measure_taxonomies() -> list[dict[str, object]]:
    """Time cold builds and warm loads of the ten taxonomy artifacts."""
    root = tempfile.mkdtemp(prefix="repro-bench-taxonomies-")
    try:
        build_taxonomy.cache_clear()
        store = ArtifactStore(root)
        started = time.perf_counter()
        for key in TAXONOMY_KEYS:
            store.get_or_build_taxonomy(key)
        cold_s = time.perf_counter() - started
        assert store.stats.builds == len(TAXONOMY_KEYS)

        warm_store = ArtifactStore(root)
        calls = _build_calls()
        started = time.perf_counter()
        warm = {key: warm_store.get_or_build_taxonomy(key)
                for key in TAXONOMY_KEYS}
        warm_s = time.perf_counter() - started
        assert _build_calls() == calls, \
            "warm taxonomy loads must make zero build_taxonomy calls"
        assert warm_store.stats.hits == len(TAXONOMY_KEYS)
        assert warm["amazon"]["taxonomy"]["titles"], "amazon lost titles"
        for key, payload in warm.items():
            _assert_taxonomy_matches(key, payload)
        return [{"mode": mode, "taxonomies": len(TAXONOMY_KEYS),
                 "wall_s": f"{elapsed:.3f}",
                 "speedup": f"{cold_s / max(elapsed, 1e-9):.1f}x"}
                for mode, elapsed in (("cold build", cold_s),
                                      ("warm load", warm_s))]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _speedup(rows: list[dict[str, object]], mode: str) -> float:
    row = next(row for row in rows if row["mode"] == mode)
    return float(str(row["speedup"]).rstrip("x"))


def test_dataset_build(benchmark, config, report):
    rows = once(benchmark, _measure, sample_size=config.sample_size)
    assert _speedup(rows, "warm load") >= 10.0
    if (os.cpu_count() or 1) >= PARALLEL_JOBS:
        assert _speedup(rows, f"cold parallel x{PARALLEL_JOBS}") >= 2.0
    report(format_rows(
        rows, title="Dataset pipeline: cold builds vs store loads"))
    report(format_rows(_measure_taxonomies(),
                       title="Taxonomy artifacts: cold builds vs loads"))


if __name__ == "__main__":  # pragma: no cover - smoke entry point
    smoke = "--smoke" in sys.argv
    table = _measure(sample_size=20 if smoke else None,
                     jobs=2 if smoke else PARALLEL_JOBS)
    print(format_rows(table, title="Dataset pipeline smoke" if smoke
                      else "Dataset pipeline"))
    print(format_rows(_measure_taxonomies(), title="Taxonomy artifacts"))
