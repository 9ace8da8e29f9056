"""Artifact store: round-trip fidelity, invalidation, recovery.

The store's contract is that a warm load is indistinguishable from
regeneration: same question uids, same order, same MCQ options and
answer indices.  These tests pin that contract for every build path
(sequential, parallel workers, disk round-trip), plus the
cache-invalidation rules, the corrupted-artifact recovery path, the
taxonomy artifacts the oracle reads, and failed writes (which must
never fail the caller).
"""

from __future__ import annotations

import json
import logging
import random

import pytest

from repro.cli import main
from repro.dist.planner import plan_shards
from repro.generators.products import products_for_node
from repro.generators.registry import (TAXONOMY_KEYS, build_taxonomy,
                                       get_spec)
from repro.llm.oracle import TaxonomyOracle
from repro.llm.prompt_parsing import parse_prompt
from repro.questions.generation import _sample_easy_negative
from repro.questions.instance_typing import collect_instances
from repro.questions.model import DatasetKind
from repro.questions.pools import build_pools, generate_pools
from repro.questions.templates import render_question
from repro.runs.driver import build_request_pools
from repro.runs.request import RunRequest
from repro.store import (STORE_ENV, ArtifactStore, build_all_datasets,
                         build_taxonomy_artifact, build_taxonomy_artifacts,
                         decode_pools, decode_taxonomy, encode_pools,
                         spec_fingerprint, taxonomy_fingerprint)
from repro.store import codec
from repro.store.codec import ArtifactDecodeError
from repro.store.fingerprint import SCHEMA_VERSION, code_fingerprint

SMALL_KEYS = ("ebay", "geonames", "schema")


def _assert_pools_equal(expected, actual):
    assert expected.taxonomy_key == actual.taxonomy_key
    assert expected.question_levels == actual.question_levels
    for kind in DatasetKind:
        left = expected.total_pool(kind).questions
        right = actual.total_pool(kind).questions
        assert left == right, kind


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


# ----------------------------------------------------------------------
# Round-trip fidelity
# ----------------------------------------------------------------------
def test_codec_round_trip_is_lossless(store):
    pools = generate_pools("ebay", sample_size=20)
    fingerprint = store.fingerprint("ebay", 20)
    decoded = decode_pools(encode_pools(pools, fingerprint, 20, ""))
    _assert_pools_equal(pools, decoded)


def test_round_trip_preserves_mcq_options_and_answers(store):
    pools = generate_pools("schema", sample_size=15)
    decoded = decode_pools(
        encode_pools(pools, store.fingerprint("schema", 15), 15, ""))
    original = pools.total_pool(DatasetKind.MCQ).questions
    restored = decoded.total_pool(DatasetKind.MCQ).questions
    assert len(original) > 0
    for left, right in zip(original, restored):
        assert left.options == right.options
        assert left.answer_index == right.answer_index
        assert left.options[left.answer_index] == left.true_parent_name


def test_decoded_taxonomy_materializes_lazily(store):
    pools = generate_pools("ebay", sample_size=10)
    decoded = decode_pools(
        encode_pools(pools, store.fingerprint("ebay", 10), 10, ""))
    # Questions decode without touching the node graph...
    assert decoded._taxonomy is None
    # ...and forcing it reproduces the original structure.
    taxonomy = decoded.taxonomy
    assert decoded._taxonomy is taxonomy
    assert [node.node_id for node in taxonomy] == \
        [node.node_id for node in pools.taxonomy]
    assert taxonomy.num_levels == pools.taxonomy.num_levels
    for node in pools.taxonomy:
        twin = taxonomy.node(node.node_id)
        assert (twin.name, twin.level, twin.parent_id) == \
            (node.name, node.level, node.parent_id)


def test_store_round_trip_through_disk(store):
    direct = generate_pools("ebay", sample_size=20)
    built = store.get_or_build("ebay", sample_size=20)
    _assert_pools_equal(direct, built)
    assert store.stats.builds == 1
    warm = store.load("ebay", sample_size=20)
    _assert_pools_equal(direct, warm)
    assert store.stats.hits == 1


def test_parallel_sequential_and_store_loads_agree(store):
    sequential = {key: generate_pools(key, sample_size=12)
                  for key in SMALL_KEYS}
    parallel = build_all_datasets(SMALL_KEYS, sample_size=12, jobs=2,
                                  store=store, force=True)
    warm = build_all_datasets(SMALL_KEYS, sample_size=12, store=store)
    assert list(parallel) == list(SMALL_KEYS)
    for key in SMALL_KEYS:
        _assert_pools_equal(sequential[key], parallel[key])
        _assert_pools_equal(sequential[key], warm[key])
    assert store.stats.hits == len(SMALL_KEYS)


def test_build_pools_uses_explicit_store(store):
    built = build_pools("geonames", sample_size=10, store=store)
    assert store.stats.builds == 1
    again = build_pools("geonames", sample_size=10, store=store)
    _assert_pools_equal(built, again)
    assert store.stats.hits == 1


# ----------------------------------------------------------------------
# Fingerprints and invalidation
# ----------------------------------------------------------------------
def test_fingerprint_changes_with_request_and_schema():
    spec = get_spec("ebay")
    base = spec_fingerprint(spec, 20, "")
    assert spec_fingerprint(spec, 21, "") != base
    assert spec_fingerprint(spec, None, "") != base
    assert spec_fingerprint(spec, 20, "resample-1") != base
    assert spec_fingerprint(spec, 20, "",
                            schema_version=SCHEMA_VERSION + 1) != base
    assert spec_fingerprint(spec, 20, "", code="0" * 16) != base
    assert spec_fingerprint(get_spec("geonames"), 20, "") != base
    # Same request, same everything: stable across calls.
    assert spec_fingerprint(spec, 20, "") == base


def test_code_fingerprint_is_stable_and_hex():
    first = code_fingerprint()
    assert first == code_fingerprint()
    assert len(first) == 16
    int(first, 16)


def test_seed_change_lands_on_a_different_artifact(store):
    store.get_or_build("ebay", sample_size=10, seed="a")
    store.get_or_build("ebay", sample_size=10, seed="b")
    assert store.stats.builds == 2
    paths = {store.path_for("ebay", 10, seed) for seed in ("a", "b")}
    assert len(paths) == 2
    assert all(path.exists() for path in paths)


def test_schema_bump_invalidates_saved_artifact(store):
    store.get_or_build("ebay", sample_size=10)
    path = store.path_for("ebay", 10)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["schema"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ArtifactDecodeError):
        decode_pools(payload)
    assert store.load("ebay", sample_size=10) is None
    assert store.stats.invalid == 1
    assert not path.exists()


def test_corrupted_artifact_is_rebuilt_not_fatal(store):
    direct = store.get_or_build("ebay", sample_size=10)
    path = store.path_for("ebay", 10)
    path.write_text("{truncated", encoding="utf-8")
    rebuilt = store.get_or_build("ebay", sample_size=10)
    _assert_pools_equal(direct, rebuilt)
    assert store.stats.invalid == 1
    assert store.stats.builds == 2
    # The rewrite healed the artifact: next read is a clean hit.
    assert store.load("ebay", sample_size=10) is not None


def test_missing_question_column_is_a_decode_error(store):
    pools = generate_pools("geonames", sample_size=8)
    payload = encode_pools(pools, store.fingerprint("geonames", 8), 8, "")
    del payload["levels"][0]["positive"]
    with pytest.raises(ArtifactDecodeError):
        decode_pools(payload)


def _corrupt_index(payload: dict, column: str) -> None:
    rows = len(payload["taxonomy"]["ids"])
    level = payload["levels"][0]
    if column == "asked":
        level["negative_hard"]["asked"][0] = rows
    elif column == "negative":
        level["positive"]["child"][0] = -1
    elif column == "option":
        level["mcq"]["options"][1] = rows
    elif column == "answer":
        level["mcq"]["answer"][0] = 4
    elif column == "float":
        level["negative_easy"]["child"][0] = 1.0
    else:                           # the lengths disagree
        level["negative_easy"]["asked"].pop()


@pytest.mark.parametrize("column", ["asked", "negative", "option",
                                    "answer", "float", "lengths"])
def test_out_of_range_row_index_is_a_decode_error(store, column):
    pools = generate_pools("geonames", sample_size=8)
    payload = encode_pools(pools, store.fingerprint("geonames", 8), 8, "")
    _corrupt_index(payload, column)
    with pytest.raises(ArtifactDecodeError):
        decode_pools(payload)


@pytest.fixture()
def decoded(monkeypatch) -> list[str]:
    """The question kind of every column the codec decodes."""
    kinds: list[str] = []
    real_tf, real_mcq = codec._decode_tf, codec._decode_mcq

    def decode_tf(key, cols, kind, column):
        kinds.append(kind.value)
        return real_tf(key, cols, kind, column)

    def decode_mcq(key, cols, column):
        kinds.append("mcq")
        return real_mcq(key, cols, column)

    monkeypatch.setattr(codec, "_decode_tf", decode_tf)
    monkeypatch.setattr(codec, "_decode_mcq", decode_mcq)
    return kinds


def test_a_kind_is_decoded_on_first_use_only(store, decoded):
    pools = generate_pools("ebay", sample_size=10)
    payload = encode_pools(pools, store.fingerprint("ebay", 10), 10, "")
    loaded = decode_pools(payload)
    assert decoded == []
    levels = len(loaded.question_levels)
    hard = loaded.total_pool(DatasetKind.HARD)
    assert sorted(decoded) == (["negative-hard"] * levels
                               + ["positive"] * levels)
    assert hard.questions == pools.total_pool(DatasetKind.HARD).questions
    decoded.clear()
    loaded.total_pool(DatasetKind.EASY)
    assert decoded == ["negative-easy"] * levels
    decoded.clear()
    loaded.total_pool(DatasetKind.MCQ)
    assert decoded == ["mcq"] * levels
    _assert_pools_equal(pools, loaded)


def test_a_hard_request_decodes_no_easy_negative_or_mcq(decoded):
    request = RunRequest(dataset="hard", models=("GPT-4",),
                         taxonomy_keys=("ebay", "geonames"),
                         sample_size=9, seed="hard-only")
    build_request_pools(request)         # builds the artifacts
    decoded.clear()
    plan_shards(request, 2, build_request_pools(request))
    assert set(decoded) == {"positive", "negative-hard"}


# ----------------------------------------------------------------------
# Pools and sampling fast paths
# ----------------------------------------------------------------------
def test_total_pool_is_cached_per_kind():
    pools = generate_pools("ebay", sample_size=10)
    assert pools.total_pool(DatasetKind.EASY) is \
        pools.total_pool(DatasetKind.EASY)
    assert pools.total_pool(DatasetKind.EASY) is not \
        pools.total_pool(DatasetKind.HARD)


def test_easy_negative_draw_is_uniform_and_excludes_parent(
        ebay_taxonomy):
    child = ebay_taxonomy.nodes_at_level(2)[0]
    candidates = ebay_taxonomy.nodes_at_level(1)
    rng = random.Random(7)
    counts = {node.node_id: 0 for node in candidates}
    draws = 200 * len(candidates)
    for _ in range(draws):
        picked = _sample_easy_negative(ebay_taxonomy, child, rng)
        counts[picked.node_id] += 1
    assert counts[child.parent_id] == 0
    others = [count for node_id, count in counts.items()
              if node_id != child.parent_id]
    assert min(others) > 0
    expected = draws / (len(candidates) - 1)
    assert max(others) < 2 * expected


def test_easy_negative_needs_two_parent_level_nodes(toy_taxonomy):
    # Level 1 has 3 nodes but level 0 has exactly 2 roots, so a level-1
    # child always has one alternative; a 1-root taxonomy would not.
    child = toy_taxonomy.nodes_at_level(1)[0]
    picked = _sample_easy_negative(toy_taxonomy, child,
                                   random.Random(0))
    assert picked is not None
    assert picked.node_id != child.parent_id
    assert picked.level == 0


# ----------------------------------------------------------------------
# Taxonomy artifacts (read by the simulated models' oracle)
# ----------------------------------------------------------------------
def _build_calls() -> int:
    info = build_taxonomy.cache_info()
    return info.hits + info.misses


def _graph(taxonomy) -> list[tuple]:
    return [(node.node_id, node.name, node.level, node.parent_id)
            for node in taxonomy]


def test_taxonomy_artifact_layout_and_warm_round_trip(store):
    built = store.get_or_build_taxonomy("ebay")
    path = store.root / "ebay" / \
        f"taxonomy-{taxonomy_fingerprint(get_spec('ebay'))}.json"
    assert store.taxonomy_path("ebay") == path
    assert path.exists() and store.stats.builds == 1

    warm_store = ArtifactStore(store.root)
    calls = _build_calls()
    warm = warm_store.get_or_build_taxonomy("ebay")
    assert _build_calls() == calls, "a warm load generates nothing"
    assert (warm_store.stats.hits, warm_store.stats.builds) == (1, 0)
    assert warm == built
    assert _graph(decode_taxonomy(warm["taxonomy"])) == \
        _graph(build_taxonomy("ebay"))


def test_taxonomy_artifact_carries_product_titles(store):
    # Three titles per deepest-level category, as instance typing uses.
    column = store.get_or_build_taxonomy("google")["taxonomy"]
    taxonomy = build_taxonomy("google")
    deepest = taxonomy.nodes_at_level(taxonomy.num_levels - 1)
    expected = [(title, node.node_id) for node in deepest
                for title in products_for_node(taxonomy, node.node_id, 3)]
    assert list(zip(column["titles"],
                    [column["ids"][row] for row in column["anchors"]])) \
        == expected
    assert [(instance.name, instance.anchor_id) for instance in
            collect_instances("google", taxonomy, random.Random(0))] \
        == expected
    assert "titles" not in store.get_or_build_taxonomy("ebay")["taxonomy"]


def test_taxonomy_fingerprint_inputs():
    spec = get_spec("amazon")
    base = taxonomy_fingerprint(spec)
    assert taxonomy_fingerprint(spec) == base
    assert taxonomy_fingerprint(spec,
                                schema_version=SCHEMA_VERSION + 1) != base
    assert taxonomy_fingerprint(spec, code="0" * 16) != base
    assert taxonomy_fingerprint(get_spec("google")) != base
    # Pools and taxonomy artifacts never share an address.
    assert base not in {spec_fingerprint(spec, None, ""),
                        spec_fingerprint(spec, 3, "")}


@pytest.mark.parametrize("damage", ["truncate", "short-column",
                                    "schema"])
def test_corrupt_taxonomy_artifact_is_rebuilt_with_warning(
        store, caplog, propagating_logs, damage):
    built = store.get_or_build_taxonomy("geonames")
    path = store.taxonomy_path("geonames")
    if damage == "truncate":
        path.write_text(path.read_text(encoding="utf-8")[:100],
                        encoding="utf-8")
    else:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if damage == "schema":
            payload["schema"] = SCHEMA_VERSION + 1
        else:
            payload["taxonomy"]["names"].pop()
        path.write_text(json.dumps(payload), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="repro.store.artifacts"):
        rebuilt = store.get_or_build_taxonomy("geonames")
    assert "artifact-corrupt" in caplog.text
    assert rebuilt == built
    assert (store.stats.invalid, store.stats.builds) == (1, 2)
    assert ArtifactStore(store.root).get_or_build_taxonomy("geonames") \
        == built


def test_parallel_taxonomy_artifacts_equal_sequential(store):
    built = build_taxonomy_artifacts(store, jobs=2)
    assert list(built) == list(TAXONOMY_KEYS)
    assert built == {key: build_taxonomy_artifact(key)
                     for key in TAXONOMY_KEYS}
    assert store.stats.builds == len(TAXONOMY_KEYS)
    warm_store = ArtifactStore(store.root)
    assert build_taxonomy_artifacts(warm_store, jobs=2) == built
    assert (warm_store.stats.hits, warm_store.stats.builds) == \
        (len(TAXONOMY_KEYS), 0)


# ----------------------------------------------------------------------
# Failed writes: the store is a cache, never a reason to fail
# ----------------------------------------------------------------------
@pytest.fixture()
def blocked_root(tmp_path):
    """A store root under a regular file: every write fails."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    return blocker / "store"


def test_failed_pools_write_returns_the_built_pools(
        blocked_root, monkeypatch, caplog, propagating_logs):
    store = ArtifactStore(blocked_root)
    with caplog.at_level(logging.WARNING, logger="repro.store.artifacts"):
        built = store.get_or_build("ebay", sample_size=5)
    _assert_pools_equal(generate_pools("ebay", sample_size=5), built)
    assert "artifact-save-failed" in caplog.text
    assert (store.stats.builds, store.stats.save_failures) == (1, 1)
    # The default store under REPRO_STORE_DIR behaves the same.
    monkeypatch.setenv(STORE_ENV, str(blocked_root))
    _assert_pools_equal(built, build_pools("ebay", sample_size=5))


def test_failed_taxonomy_write_returns_the_payload(
        blocked_root, monkeypatch, caplog, propagating_logs):
    store = ArtifactStore(blocked_root)
    with caplog.at_level(logging.WARNING, logger="repro.store.artifacts"):
        payload = store.get_or_build_taxonomy("ebay")
    assert "artifact-save-failed" in caplog.text
    assert store.stats.save_failures == 1
    assert payload["taxonomy"]["ids"] == \
        [node.node_id for node in build_taxonomy("ebay")]
    # ...so a simulated model on such a store still answers.
    monkeypatch.setenv(STORE_ENV, str(blocked_root))
    question = generate_pools("ebay", sample_size=5).total_pool(
        DatasetKind.HARD).questions[0]
    resolution = TaxonomyOracle().resolve(
        parse_prompt(render_question(question)))
    assert resolution is not None and resolution.taxonomy_key == "ebay"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_build_datasets_also_builds_the_taxonomy_artifacts(tmp_path,
                                                           capsys):
    argv = ["build-datasets", "--store", str(tmp_path / "store"),
            "--taxonomies", "ebay", "--sample", "5", "--jobs", "1"]

    def run(*extra: str) -> str:
        assert main(argv + list(extra)) == 0
        return capsys.readouterr().out

    cold = run()
    assert "1 pool and 10 taxonomy artifacts" in cold
    assert "loads=0, builds=11," in cold
    for key in TAXONOMY_KEYS:
        assert ArtifactStore(tmp_path / "store").taxonomy_path(
            key).name in cold
    assert "loads=11, builds=0," in run()
    assert "loads=0, builds=11," in run("--force")
