"""Tests for the taxonomy oracle, profiles and simulated models."""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from repro.data.paper_tables import MODEL_ORDER
from repro.errors import UnknownModelError
from repro.generators.products import products_for_node
from repro.generators.registry import (TAXONOMY_KEYS, build_taxonomy,
                                       get_spec)
from repro.llm import oracle as oracle_module
from repro.llm.oracle import TaxonomyOracle, default_oracle
from repro.llm.parsing import parse_answer
from repro.llm.prompt_parsing import parse_prompt
from repro.llm.prompting import PromptSetting, build_prompt
from repro.llm.registry import (MODEL_NAMES, SERIES, all_models,
                                get_model, get_profile, make_model)
from repro.llm.rng import stable_choice, stable_index, unit_float
from repro.questions.instance_typing import build_instance_typing_pools
from repro.questions.model import (DatasetKind, QuestionKind,
                                   QuestionType)
from repro.questions.pools import build_pools, default_pools
from repro.questions.templates import render_question, true_false_prompt
from repro.runs import RunRegistry, RunRequest, execute_run
from repro.runs.driver import build_request_pools
from repro.store import STORE_ENV, default_store
from repro.taxonomy.io import taxonomy_from_dict, taxonomy_to_dict


class TestHashRng:
    def test_unit_float_in_range(self):
        for i in range(200):
            value = unit_float("a", i)
            assert 0.0 <= value < 1.0

    def test_unit_float_deterministic(self):
        assert unit_float("x", 1, "y") == unit_float("x", 1, "y")

    def test_unit_float_sensitive_to_parts(self):
        assert unit_float("x", 1) != unit_float("x", 2)

    def test_unit_float_roughly_uniform(self):
        values = [unit_float("u", i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.47 < mean < 0.53

    def test_stable_index_bounds(self):
        for i in range(100):
            assert 0 <= stable_index(7, "k", i) < 7

    def test_stable_choice(self):
        items = ["a", "b", "c"]
        assert stable_choice(items, "s") in items
        assert stable_choice(items, "s") == stable_choice(items, "s")

    def test_stable_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            stable_choice([], "s")


class TestOracle:
    @pytest.fixture(scope="class")
    def oracle(self):
        return default_oracle()

    def _questions(self, kind, key="ebay"):
        pool = default_pools(key, sample_size=20).total_pool(
            DatasetKind.HARD if kind is QuestionKind.NEGATIVE_HARD
            else DatasetKind.EASY)
        return [q for q in pool.questions if q.kind is kind]

    def test_positive_resolution(self, oracle):
        for question in self._questions(QuestionKind.POSITIVE)[:10]:
            resolution = oracle.resolve(
                parse_prompt(render_question(question)))
            assert resolution is not None
            assert resolution.kind is QuestionKind.POSITIVE
            assert resolution.truth

    def test_hard_negative_resolution(self, oracle):
        for question in self._questions(
                QuestionKind.NEGATIVE_HARD)[:10]:
            resolution = oracle.resolve(
                parse_prompt(render_question(question)))
            assert resolution is not None
            assert resolution.kind is QuestionKind.NEGATIVE_HARD
            assert not resolution.truth

    def test_easy_negative_resolution(self, oracle):
        # Level-2 questions: at level 1 every easy negative is also an
        # uncle (parents are roots), so deeper levels are needed to see
        # the easy classification.
        questions = [q for q in self._questions(
            QuestionKind.NEGATIVE_EASY) if q.level == 2][:10]
        resolved_kinds = set()
        for question in questions:
            resolution = oracle.resolve(
                parse_prompt(render_question(question)))
            assert resolution is not None
            assert not resolution.truth
            resolved_kinds.add(resolution.kind)
        # A random non-parent can coincidentally be an uncle; most are
        # classified easy.
        assert QuestionKind.NEGATIVE_EASY in resolved_kinds

    def test_mcq_resolution(self, oracle):
        pool = default_pools("ebay", sample_size=20).total_pool(
            DatasetKind.MCQ)
        for question in pool.questions[:10]:
            resolution = oracle.resolve(
                parse_prompt(render_question(question)))
            assert resolution is not None
            assert resolution.qtype is QuestionType.MCQ
            assert resolution.correct_option == question.answer_index

    def test_unknown_concepts_resolve_to_none(self, oracle):
        parsed = parse_prompt(
            "Is Flibbertigibbet a type of Whatchamacallit? answer "
            "with (Yes/No/I don't know)")
        assert oracle.resolve(parsed) is None

    def test_shape_level_tracks_child_level(self, oracle):
        pool = default_pools("glottolog", sample_size=12)
        for level in pool.question_levels:
            question = pool.level_pool(
                level, DatasetKind.HARD).questions[0]
            resolution = oracle.resolve(
                parse_prompt(render_question(question)))
            assert resolution.shape_level == level - 1

    def test_custom_oracle_restricts_universe(self, toy_taxonomy):
        oracle = TaxonomyOracle({"toy": toy_taxonomy})
        parsed = parse_prompt(
            "Are Headphones products a type of Audio products? "
            "answer with (Yes/No/I don't know)")
        resolution = oracle.resolve(parsed)
        assert resolution is not None
        assert resolution.taxonomy_key == "toy"
        assert resolution.truth

    def test_custom_oracle_accepts_children_listed_first(
            self, toy_taxonomy):
        # A loaded dump may list a child before its parent.
        payload = taxonomy_to_dict(toy_taxonomy)
        payload["nodes"].reverse()
        oracle = TaxonomyOracle({"toy": taxonomy_from_dict(payload)})
        resolution = oracle.resolve(parse_prompt(
            "Are Headphones products a type of Audio products? "
            "answer with (Yes/No/I don't know)"))
        assert resolution is not None and resolution.truth


def _build_calls() -> int:
    info = build_taxonomy.cache_info()
    return info.hits + info.misses


def _pool_prompts(sample_size: int = 4) -> list[str]:
    """Hard, easy and MCQ prompts of every taxonomy, plus Amazon and
    Google instance-typing prompts."""
    prompts = []
    for key in TAXONOMY_KEYS:
        pools = build_pools(key, sample_size=sample_size)
        for kind in DatasetKind:
            prompts += [render_question(question) for question
                        in pools.total_pool(kind).questions]
    for key in ("amazon", "google"):
        typing = build_instance_typing_pools(key, sample_size=sample_size)
        for kind in (DatasetKind.HARD, DatasetKind.EASY):
            prompts += [render_question(question)
                        for question in typing.total(kind)]
    return prompts


def _shared_name_prompts() -> list[str]:
    """A positive prompt for every node whose name also occurs in
    another taxonomy of its group: the shopping taxonomies share
    thousands of names, and NCBI shares a few with Glottolog."""
    prompts = []
    for group in (("ebay", "amazon", "google"), ("ncbi", "glottolog")):
        names = {key: {node.name for node in build_taxonomy(key)}
                 for key in group}
        for key in group:
            others = set().union(*(names[other] for other in group
                                   if other != key))
            taxonomy = build_taxonomy(key)
            prompts += [
                true_false_prompt(taxonomy.domain, node.name,
                                  taxonomy.parent(node.node_id).name)
                for node in taxonomy
                if node.parent_id is not None and node.name in others]
    return prompts


def _fill_store() -> None:
    store = default_store()
    for key in TAXONOMY_KEYS:
        store.get_or_build_taxonomy(key)


class TestStoreBackedOracle:
    """The oracle reads taxonomy artifacts from the store and decodes
    only the taxonomies a prompt's names occur in; every answer must
    equal that of an oracle over the generated taxonomies."""

    @pytest.fixture(scope="class")
    def generated(self):
        return TaxonomyOracle({key: build_taxonomy(key)
                               for key in TAXONOMY_KEYS})

    @pytest.fixture(scope="class")
    def stored(self):
        _fill_store()                   # on disk before the oracle reads
        return TaxonomyOracle()

    @pytest.mark.parametrize("prompts", [_pool_prompts,
                                         _shared_name_prompts])
    def test_parity_with_generated_taxonomies(self, generated, stored,
                                              prompts):
        parsed = [parse_prompt(prompt) for prompt in prompts()]
        calls = _build_calls()
        answers = [stored.resolve(prompt) for prompt in parsed]
        assert _build_calls() == calls, "the store serves every key"
        assert answers == [generated.resolve(prompt) for prompt in parsed]
        assert len(parsed) > 500 and all(answers)

    def test_indexes_equal_the_generated_ones(self, stored):
        for key in ("ebay", "amazon", "google", "ncbi"):
            taxonomy = build_taxonomy(key)
            assert stored._names(key) == {
                node.name: node.node_id for node in taxonomy}
        amazon = build_taxonomy("amazon")
        assert stored._instances("amazon") == {
            title: node.node_id
            for node in amazon.nodes_at_level(amazon.num_levels - 1)
            for title in products_for_node(amazon, node.node_id, 3)}
        assert stored._instances("ebay") == {}

    def test_warm_w1_run_builds_nothing_and_decodes_four(
            self, tmp_path, monkeypatch):
        _fill_store()
        request = RunRequest(models=("GPT-4", "LLMs4OL", "Llama-2-7B"),
                             taxonomy_keys=("ebay", "ncbi", "google"),
                             sample_size=3)
        build_request_pools(request)
        oracle = TaxonomyOracle()
        decoded = []
        decode = oracle_module.decode_taxonomy
        monkeypatch.setattr(
            oracle_module, "decode_taxonomy",
            lambda column: decoded.append(get_spec(column["name"]).key)
            or decode(column))
        models = {name: make_model(name, oracle)
                  for name in request.models}
        calls = _build_calls()
        result = execute_run(request, registry=RunRegistry(tmp_path),
                             resolve_model=models.__getitem__)
        assert result.evaluated > 0
        assert _build_calls() == calls
        assert sorted(decoded) == ["amazon", "ebay", "google", "ncbi"]

    def test_store_off_answers_identically(self, stored, monkeypatch,
                                           tmp_path):
        prompts = _pool_prompts(sample_size=2)
        on = make_model("GPT-4", stored)
        expected = [on.generate(prompt) for prompt in prompts]
        monkeypatch.setenv(STORE_ENV, "off")
        off = make_model("GPT-4", TaxonomyOracle())
        assert [off.generate(prompt) for prompt in prompts] == expected


def _run_threads(target, count: int) -> None:
    """Run ``count`` threads of ``target`` with frequent switches."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)


class TestOracleConcurrency:
    def test_threads_load_and_decode_each_taxonomy_once(
            self, monkeypatch):
        loads: Counter = Counter()
        decodes: Counter = Counter()
        lock = threading.Lock()
        load, decode = (TaxonomyOracle._load,
                        oracle_module.decode_taxonomy)

        def counting_load(oracle, key):
            with lock:
                loads[key] += 1
            time.sleep(0.01)            # widen any race window
            return load(oracle, key)

        def counting_decode(column):
            with lock:
                decodes[column["name"]] += 1
            time.sleep(0.01)
            return decode(column)

        monkeypatch.setattr(TaxonomyOracle, "_load", counting_load)
        monkeypatch.setattr(oracle_module, "decode_taxonomy",
                            counting_decode)
        # NCBI prompts carry no domain hint, so one cold prompt probes
        # every taxonomy.
        question = default_pools("ncbi", sample_size=5).total_pool(
            DatasetKind.HARD).questions[0]
        parsed = parse_prompt(render_question(question))
        oracle = TaxonomyOracle()
        threads_n = 6
        barrier = threading.Barrier(threads_n, timeout=60)
        results = []

        def worker():
            barrier.wait()
            results.append(oracle.resolve(parsed))

        _run_threads(worker, threads_n)
        assert len(results) == threads_n and results[0] is not None
        assert results.count(results[0]) == threads_n
        assert loads == Counter(TAXONOMY_KEYS)
        assert decodes and set(decodes.values()) == {1}

    def test_default_oracle_is_created_once(self, monkeypatch):
        created = []

        class SlowOracle(TaxonomyOracle):
            def __init__(self):
                created.append(self)
                time.sleep(0.05)
                super().__init__()

        monkeypatch.setattr(oracle_module, "_default_oracle", None)
        monkeypatch.setattr(oracle_module, "TaxonomyOracle", SlowOracle)
        barrier = threading.Barrier(4, timeout=60)
        seen = []

        def worker():
            barrier.wait()
            seen.append(default_oracle())

        _run_threads(worker, 4)
        assert len(created) == 1
        assert all(oracle is created[0] for oracle in seen)


class TestProfilesAndRegistry:
    def test_eighteen_models(self):
        assert len(MODEL_NAMES) == 18
        assert tuple(MODEL_NAMES) == MODEL_ORDER

    def test_unknown_model_rejected(self):
        with pytest.raises(UnknownModelError):
            get_profile("GPT-5")

    def test_series_cover_open_source_models(self):
        covered = {name for members in SERIES.values()
                   for name in members}
        assert covered == set(MODEL_NAMES) - {"LLMs4OL", "Claude-3"}

    def test_profile_cells_match_paper(self):
        profile = get_profile("GPT-4")
        assert profile.cell("hard", "ebay") == (0.921, 0.003)
        assert profile.cell("mcq", "ncbi") == (0.701, 0.009)

    def test_hard_negative_decomposition_respects_means(self):
        profile = get_profile("GPT-4")
        easy_a, _ = profile.cell("easy", "google")
        hard_a, _ = profile.cell("hard", "google")
        neg_a, _ = profile.kind_params(QuestionKind.NEGATIVE_HARD,
                                       "google")
        assert (easy_a + neg_a) / 2 == pytest.approx(hard_a, abs=1e-9)

    def test_conditional_accuracy_uses_latent_when_pinned(self):
        profile = get_profile("Llama-2-7B")
        assert profile.conditional_accuracy(0.0, 1.0) \
            == profile.latent_accuracy

    def test_fewshot_cuts_miss(self):
        profile = get_profile("Llama-2-7B")
        assert profile.miss_under(0.9, PromptSetting.FEW_SHOT) \
            < 0.2

    def test_cot_raises_miss(self):
        profile = get_profile("Vicuna-13B")
        assert profile.miss_under(0.4, PromptSetting.COT) > 0.4

    def test_zero_shot_identity(self):
        profile = get_profile("GPT-4")
        assert profile.miss_under(0.1, PromptSetting.ZERO_SHOT) == 0.1

    def test_get_model_cached(self):
        assert get_model("GPT-4") is get_model("GPT-4")

    def test_all_models_order(self):
        assert [m.name for m in all_models()] == list(MODEL_ORDER)


class TestSimulatedModel:
    def test_responses_are_deterministic(self, ebay_pools):
        model = get_model("GPT-4")
        pool = ebay_pools.total_pool(DatasetKind.HARD)
        prompts = [render_question(q) for q in pool.questions[:20]]
        first = [model.generate(p) for p in prompts]
        second = [model.generate(p) for p in prompts]
        assert first == second

    def test_same_fact_consistent_across_settings(self, ebay_pools):
        # The "know" draw is setting-independent: a model that answers
        # a fact correctly zero-shot and also answers it few-shot gives
        # the same verdict.
        model = get_model("Flan-T5-11B")  # zero miss everywhere
        pool = ebay_pools.total_pool(DatasetKind.HARD)
        for question in pool.questions[:20]:
            zero = parse_answer(model.generate(
                build_prompt(question, PromptSetting.ZERO_SHOT)),
                question)
            few = parse_answer(model.generate(
                build_prompt(question, PromptSetting.FEW_SHOT,
                             pool_questions=pool.questions)),
                question)
            assert zero is few

    def test_unknown_entities_get_idk(self):
        model = get_model("GPT-4")
        response = model.generate(
            "Is Zorblax a type of Quuxite? answer with "
            "(Yes/No/I don't know)")
        assert "don't know" in response

    def test_free_form_prompt_gets_idk(self):
        model = get_model("GPT-4")
        assert "know" in model.generate("What is a taxonomy?")

    def test_verbose_style_produces_sentences(self, ebay_pools):
        model = get_model("Vicuna-7B")  # verbose profile
        question = ebay_pools.total_pool(
            DatasetKind.HARD).questions[0]
        response = model.generate(render_question(question))
        assert response.endswith(".")
        assert len(response.split()) > 1

    def test_mcq_response_names_an_option(self, ebay_pools):
        model = get_model("GPT-4")
        question = ebay_pools.total_pool(DatasetKind.MCQ).questions[0]
        response = model.generate(render_question(question))
        answer = parse_answer(response, question)
        assert answer.value in "ABCD"

    def test_prompts_served_counter(self):
        model = get_model("Mistral")
        served = model.prompts_served
        model.generate("Is A a type of B? answer with "
                       "(Yes/No/I don't know)")
        assert model.prompts_served == served + 1

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            get_model("GPT-4").generate("  ")
