"""Parallel dataset builds: fan taxonomy + pool generation across
processes.

Generation is CPU-bound pure Python (name forging, Pareto parent
assignment, per-level Cochran sampling), so threads gain nothing — the
driver uses :class:`concurrent.futures.ProcessPoolExecutor`.  Work is
chunked at two granularities: small taxonomies are one chunk each,
while large ones (NCBI, Amazon, Glottolog) are split into a
deepest-level chunk and a remaining-levels chunk, because the deepest
level dominates their generation time and would otherwise cap the
whole build at one taxonomy's critical path.  Each worker process
caches built taxonomies (``build_taxonomy`` is ``lru_cache``d), so the
two chunks of a split taxonomy cost at most one duplicate taxonomy
build.

Per-level question generation is a deterministic pure function of
``(key, level, sample_size, seed)``, so the parallel result is
bit-identical to a sequential build regardless of chunking — the test
suite and the dataset-build benchmark verify this question for
question.

Workers return *encoded payload chunks* rather than writing artifacts
themselves, so a crashed worker can never leave a torn file, and the
driver also works with persistence disabled (``store=False``).
:func:`build_taxonomy_artifacts` fans the simulated models' taxonomy
artifacts out the same way, one whole taxonomy per task.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

from repro.generators.registry import (TAXONOMY_KEYS, build_taxonomy,
                                       get_spec)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.questions.generation import generate_level_questions
from repro.questions.pools import TaxonomyPools, generate_pools
from repro.store.artifacts import (ArtifactStore, build_taxonomy_artifact,
                                   default_store)
from repro.store.codec import (_encode_taxonomy, decode_pools,
                               encode_level, encode_pools,
                               taxonomy_index)
from repro.store.fingerprint import SCHEMA_VERSION, spec_fingerprint

#: Taxonomies at or above this entity count are split into two chunks
#: (deepest level / remaining levels) when building with multiple jobs.
SPLIT_ENTITY_THRESHOLD = 10_000


@lru_cache(maxsize=16)
def _worker_columns(key: str):
    """Taxonomy plus its encoded column and lookups, cached per worker."""
    taxonomy = build_taxonomy(key)
    column = _encode_taxonomy(taxonomy)
    index, by_name = taxonomy_index(column)
    return taxonomy, column, index, by_name


def _chunk_build(task: tuple) -> dict:
    """Worker entry point: generate and encode one chunk of levels.

    ``levels is None`` means every level (a whole-taxonomy chunk);
    ``with_taxonomy`` marks the one chunk per taxonomy that also
    carries the encoded taxonomy column back to the driver.  When
    ``trace`` is set the worker records ``taxonomy``/``encode`` spans
    on a process-local :class:`Tracer` and ships them home serialized
    (``chunk["spans"]``) for the driver to adopt — spans use wall-clock
    time, so worker timestamps line up with the driver's.
    """
    key, levels, with_taxonomy, sample_size, seed, trace = task
    tracer = Tracer() if trace else NULL_TRACER
    with tracer.span("taxonomy", taxonomy=key):
        taxonomy, column, index, by_name = _worker_columns(key)
    if levels is None:
        levels = tuple(range(1, taxonomy.num_levels))
    with tracer.span("encode", taxonomy=key, levels=len(levels)):
        entries = [
            encode_level(
                generate_level_questions(key, taxonomy, level,
                                         sample_size=sample_size,
                                         seed=seed),
                index, by_name, column["names"])
            for level in levels if 1 <= level < taxonomy.num_levels
        ]
    return {"taxonomy_key": key, "levels": entries,
            "taxonomy": column if with_taxonomy else None,
            "spans": [span.to_dict() for span in tracer.spans()]}


def _plan_chunks(missing: list[str], sample_size: int | None,
                 seed: str, trace: bool = False) -> list[tuple]:
    """Chunk ``missing`` into worker tasks, costliest first.

    Ordering matters: the executor hands tasks out one at a time, so
    putting the dominant chunks (NCBI's deepest level, then Amazon's)
    first lets the small taxonomies pack around them.
    """
    tasks: list[tuple[int, tuple]] = []
    for key in missing:
        spec = get_spec(key)
        deepest = spec.num_levels - 1
        if spec.num_entities >= SPLIT_ENTITY_THRESHOLD and deepest > 1:
            # The deepest level holds most of the entities; everything
            # above it (plus the taxonomy column) is the cheaper chunk.
            tasks.append((spec.num_entities,
                          (key, (deepest,), False, sample_size, seed,
                           trace)))
            tasks.append((spec.num_entities // 2,
                          (key, tuple(range(1, deepest)), True,
                           sample_size, seed, trace)))
        else:
            tasks.append((spec.num_entities,
                          (key, None, True, sample_size, seed, trace)))
    tasks.sort(key=lambda pair: pair[0], reverse=True)
    return [task for _, task in tasks]


def _assemble(missing: list[str], chunks: list[dict],
              sample_size: int | None, seed: str) -> list[dict]:
    """Merge worker chunks back into whole artifact payloads."""
    levels: dict[str, list[dict]] = {key: [] for key in missing}
    columns: dict[str, dict] = {}
    for chunk in chunks:
        key = chunk["taxonomy_key"]
        levels[key].extend(chunk["levels"])
        if chunk["taxonomy"] is not None:
            columns[key] = chunk["taxonomy"]
    payloads = []
    for key in missing:
        payloads.append({
            "schema": SCHEMA_VERSION,
            "fingerprint": spec_fingerprint(get_spec(key), sample_size,
                                            seed),
            "taxonomy_key": key,
            "sample_size": sample_size,
            "seed": seed,
            "taxonomy": columns[key],
            "levels": sorted(levels[key],
                             key=lambda entry: entry["level"]),
        })
    return payloads


def build_all_datasets(keys: tuple[str, ...] | list[str] | None = None,
                       sample_size: int | None = None,
                       seed: str = "",
                       jobs: int | None = None,
                       store: ArtifactStore | bool | None = True,
                       force: bool = False,
                       tracer: "Tracer | NullTracer | None" = None
                       ) -> dict[str, TaxonomyPools]:
    """Build (or load) every taxonomy's pools, fanning out over processes.

    Args:
        keys: Registry keys to build; defaults to all ten, and the
            result dict always follows the paper's registry order.
        sample_size: Per-level sample override (``None`` = Cochran).
        seed: Sampling seed, forwarded to every generator.
        jobs: Worker processes; ``None`` uses ``os.cpu_count()``,
            ``1`` builds inline with no pool.
        store: ``True`` = default on-disk store, ``False``/``None`` =
            no persistence, or an explicit :class:`ArtifactStore`.
        force: Rebuild even when a warm artifact exists.
        tracer: Span recorder; the build emits ``build -> taxonomy ->
            encode/write`` spans (worker-process spans are adopted
            into the driver's tracer).  ``None`` records nothing.

    Returns:
        ``{key: TaxonomyPools}`` with warm loads served from disk and
        only the missing (or forced) taxonomies generated.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if keys is None:
        keys = TAXONOMY_KEYS
    keys = [get_spec(key).key for key in keys]
    if store is True:
        store = default_store()
    elif store is False:
        store = None

    with tracer.span("build", taxonomies=len(keys)) as build_span:
        results: dict[str, TaxonomyPools] = {}
        missing: list[str] = []
        for key in keys:
            cached = None
            if store is not None and not force:
                with tracer.span("load", taxonomy=key) as load_span:
                    cached = store.load(key, sample_size, seed)
                    load_span.set(hit=cached is not None)
            if cached is not None:
                results[key] = cached
            else:
                missing.append(key)

        if missing:
            if jobs is None:
                jobs = os.cpu_count() or 1
            jobs = max(1, min(jobs, len(missing)))
            if jobs == 1:
                payloads = []
                for key in missing:
                    with tracer.span("taxonomy", taxonomy=key):
                        pools = generate_pools(key,
                                               sample_size=sample_size,
                                               seed=seed)
                    with tracer.span("encode", taxonomy=key):
                        payloads.append(encode_pools(
                            pools,
                            spec_fingerprint(get_spec(key),
                                             sample_size, seed),
                            sample_size, seed))
            else:
                tasks = _plan_chunks(missing, sample_size, seed,
                                     trace=tracer.enabled)
                with ProcessPoolExecutor(max_workers=jobs) as executor:
                    chunks = list(executor.map(_chunk_build, tasks))
                for chunk in chunks:
                    tracer.adopt(chunk.pop("spans", []),
                                 parent=build_span.span_id)
                payloads = _assemble(missing, chunks, sample_size,
                                     seed)
            for payload in payloads:
                if store is not None:
                    store.stats.builds += 1
                    with tracer.span(
                            "write",
                            taxonomy=payload["taxonomy_key"]):
                        store.save_payload(payload)
                results[payload["taxonomy_key"]] = \
                    decode_pools(payload)

    return {key: results[key] for key in keys}


def build_taxonomy_artifacts(store: ArtifactStore,
                             jobs: int | None = None,
                             force: bool = False) -> dict[str, dict]:
    """Load (or build) the ten taxonomy artifacts in ``store``.

    Only the missing (or, under ``force``, all) artifacts are
    generated, across ``jobs`` processes as in
    :func:`build_all_datasets`; returns ``{key: payload}`` (see
    :func:`~repro.store.artifacts.build_taxonomy_artifact`) in registry
    order.
    """
    payloads: dict[str, dict] = {}
    if not force:
        for key in TAXONOMY_KEYS:
            payload = store.load_taxonomy(key)
            if payload is not None:
                payloads[key] = payload
    # Costliest first, so the small taxonomies pack around the large.
    missing = sorted((key for key in TAXONOMY_KEYS if key not in payloads),
                     key=lambda key: get_spec(key).num_entities,
                     reverse=True)
    if missing:
        if jobs is None:
            jobs = os.cpu_count() or 1
        jobs = max(1, min(jobs, len(missing)))
        if jobs == 1:
            built = [build_taxonomy_artifact(key) for key in missing]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as executor:
                built = list(executor.map(build_taxonomy_artifact,
                                          missing))
        for payload in built:
            store.stats.builds += 1
            store.save_taxonomy(payload)
            payloads[payload["taxonomy_key"]] = payload
    return {key: payloads[key] for key in TAXONOMY_KEYS}
