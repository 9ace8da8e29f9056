"""Integration tests: the paper's five findings hold end-to-end.

These run the real pipeline (prompt rendering -> simulated model ->
response parsing -> metrics) at moderate sample sizes and assert the
*shape* of the paper's results, which is the reproduction contract.
"""

from __future__ import annotations

import pytest
from statistics import fmean

from repro.core.benchmark import TaxoGlimpse
from repro.data.paper_tables import paper_anchor
from repro.experiments.config import ExperimentConfig
from repro.experiments.levels import run_levels
from repro.experiments.overall import run_overall
from repro.experiments.prompting import run_prompting
from repro.llm.prompting import PromptSetting
from repro.questions.model import DatasetKind


@pytest.fixture(scope="module")
def bench():
    return TaxoGlimpse(sample_size=60)


MODELS = ("GPT-4", "GPT-3.5", "Llama-2-7B", "Llama-3-8B", "Flan-T5-3B",
          "LLMs4OL", "Falcon-40B", "Vicuna-7B")


@pytest.fixture(scope="module")
def hard_matrix():
    config = ExperimentConfig(sample_size=60, models=MODELS)
    return run_overall(DatasetKind.HARD, config).matrix()


class TestCalibration:
    """Measured cells track the paper's Tables 5-7 anchors."""

    def test_hard_cells_close_to_paper(self, hard_matrix):
        deltas = [abs(metrics.accuracy
                      - paper_anchor("hard", model, key)[0])
                  for (model, key), metrics in hard_matrix.items()]
        assert fmean(deltas) < 0.08

    def test_miss_rates_close_to_paper(self, hard_matrix):
        deltas = [abs(metrics.miss_rate
                      - paper_anchor("hard", model, key)[1])
                  for (model, key), metrics in hard_matrix.items()]
        assert fmean(deltas) < 0.06

    def test_easy_beats_hard_for_strong_models(self, bench):
        for model in ("GPT-4", "GPT-3.5"):
            easy = bench.run(model, "google", DatasetKind.EASY)
            hard = bench.run(model, "google", DatasetKind.HARD)
            assert easy.metrics.accuracy >= hard.metrics.accuracy


class TestFinding1:
    """Reliable on common taxonomies, weak on specialized ones."""

    def test_common_beats_hardest_specialized(self, hard_matrix):
        for model in ("GPT-4", "GPT-3.5", "Llama-3-8B"):
            common = fmean(hard_matrix[model, key].accuracy
                           for key in ("ebay", "google"))
            specialized = fmean(hard_matrix[model, key].accuracy
                                for key in ("glottolog", "ncbi",
                                            "geonames"))
            assert common > specialized + 0.1

    def test_best_model_below_75_percent_on_hard_specialized(
            self, hard_matrix):
        for key in ("ncbi", "glottolog", "geonames"):
            best = max(hard_matrix[model, key].accuracy
                       for model in MODELS)
            assert best < 0.78


class TestFinding2:
    """Root-to-leaf decline; NCBI uplift at the species level."""

    @pytest.fixture(scope="class")
    def level_series(self):
        config = ExperimentConfig(
            sample_size=80,
            models=("GPT-4", "Flan-T5-11B"),
            taxonomy_keys=("google", "glottolog", "ncbi", "oae"))
        return run_levels(config)

    def _series(self, level_series, model, key):
        return next(s for s in level_series
                    if s.model == model and s.taxonomy_key == key)

    def test_decline_on_google_and_glottolog(self, level_series):
        for key in ("google", "glottolog"):
            series = self._series(level_series, "GPT-4", key)
            assert series.declines_overall

    def test_ncbi_last_level_uplift(self, level_series):
        series = self._series(level_series, "GPT-4", "ncbi")
        assert series.last_level_uplift > 0.1

    def test_ncbi_middle_levels_are_weak(self, level_series):
        series = self._series(level_series, "GPT-4", "ncbi")
        middle = series.accuracies[2:5]
        assert max(middle) < series.accuracies[0]

    def test_oae_rises_toward_leaf(self, level_series):
        series = self._series(level_series, "GPT-4", "oae")
        assert series.accuracies[-1] > series.accuracies[0]


class TestFinding3:
    """Bigger/domain-agnostic tuning unreliable; domain-specific wins."""

    def test_llms4ol_beats_flan_t5_3b_everywhere(self, hard_matrix):
        for key in ("ebay", "schema", "glottolog", "ncbi"):
            assert hard_matrix["LLMs4OL", key].accuracy \
                > hard_matrix["Flan-T5-3B", key].accuracy - 0.02

    def test_llms4ol_average_uplift_near_paper(self, hard_matrix):
        uplift = fmean(hard_matrix["LLMs4OL", key].accuracy
                       - hard_matrix["Flan-T5-3B", key].accuracy
                       for key in ("ebay", "schema", "glottolog",
                                   "ncbi"))
        assert 0.05 < uplift < 0.25  # paper: +12.9% on hard

    def test_falcon_40b_collapses(self, hard_matrix):
        for key in ("schema", "ncbi"):
            assert hard_matrix["Falcon-40B", key].miss_rate > 0.9

    def test_vicuna_7b_rescues_llama_2_7b(self, hard_matrix):
        for key in ("ebay", "google"):
            assert hard_matrix["Vicuna-7B", key].accuracy \
                > hard_matrix["Llama-2-7B", key].accuracy + 0.3


class TestFinding4:
    """Prompting settings mostly move miss rates, not knowledge."""

    @pytest.fixture(scope="class")
    def radar(self):
        config = ExperimentConfig(
            sample_size=60,
            taxonomy_keys=("ebay", "google", "glottolog", "ncbi"))
        return run_prompting(
            config, models=("GPT-4", "Llama-2-7B", "Flan-T5-11B"))

    def test_fewshot_slashes_llama7b_miss(self, radar):
        zero = radar.average("Llama-2-7B", PromptSetting.ZERO_SHOT,
                             "miss_rate")
        few = radar.average("Llama-2-7B", PromptSetting.FEW_SHOT,
                            "miss_rate")
        assert few < zero * 0.3

    def test_fewshot_lifts_llama7b_accuracy(self, radar):
        zero = radar.average("Llama-2-7B", PromptSetting.ZERO_SHOT)
        few = radar.average("Llama-2-7B", PromptSetting.FEW_SHOT)
        assert few > zero + 0.3

    def test_gpt4_stable_under_all_settings(self, radar):
        zero = radar.average("GPT-4", PromptSetting.ZERO_SHOT)
        for setting in (PromptSetting.FEW_SHOT, PromptSetting.COT):
            assert abs(radar.average("GPT-4", setting) - zero) < 0.06

    def test_flan_t5_unmoved(self, radar):
        zero = radar.average("Flan-T5-11B", PromptSetting.ZERO_SHOT)
        few = radar.average("Flan-T5-11B", PromptSetting.FEW_SHOT)
        assert abs(few - zero) < 0.05

    def test_cot_does_not_help_llama7b(self, radar):
        zero = radar.average("Llama-2-7B", PromptSetting.ZERO_SHOT,
                             "miss_rate")
        cot = radar.average("Llama-2-7B", PromptSetting.COT,
                            "miss_rate")
        assert cot >= zero - 0.01


class TestFinding5:
    """MCQ options cut miss rates versus True/False hard sets."""

    def test_mcq_reduces_miss(self, bench):
        for model in ("GPT-3.5", "Llama-3-70B"):
            hard = bench.run(model, "glottolog", DatasetKind.HARD)
            mcq = bench.run(model, "glottolog", DatasetKind.MCQ)
            assert mcq.metrics.miss_rate < hard.metrics.miss_rate
