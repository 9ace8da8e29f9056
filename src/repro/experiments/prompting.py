"""Experiment F4 — prompting settings (zero-shot / few-shot / CoT).

Reproduces Figure 4's radar charts: representative models evaluated on
every taxonomy's hard dataset under the three prompting settings.  The
paper's Finding 4 — few-shot mostly cuts miss rates, CoT raises them
for weak models, the strongest models barely move — falls out of the
returned data and is asserted by the test suite.  The sweep is
:func:`prompting_request`; :func:`prompting_from_run` reads its points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig
from repro.llm.prompting import PromptSetting
from repro.questions.model import DatasetKind
from repro.runs.driver import RunResult, evaluate_request
from repro.runs.request import RunRequest

#: The models Figure 4 charts.
REPRESENTATIVE_MODELS: tuple[str, ...] = (
    "GPT-4", "Flan-T5-11B", "Llama-2-7B")


@dataclass(frozen=True, slots=True)
class RadarPoint:
    """One spoke of a radar chart: model x taxonomy x setting."""

    model: str
    taxonomy_key: str
    setting: str
    accuracy: float
    miss_rate: float


@dataclass(frozen=True, slots=True)
class PromptingResult:
    """All radar points, with per-model-setting averages."""

    points: tuple[RadarPoint, ...]

    def series(self, model: str,
               setting: PromptSetting) -> list[RadarPoint]:
        return [point for point in self.points
                if point.model == model
                and point.setting == setting.value]

    def average(self, model: str, setting: PromptSetting,
                metric: str = "accuracy") -> float:
        spokes = self.series(model, setting)
        values = [getattr(point, metric) for point in spokes]
        return sum(values) / len(values)


def run_prompting(config: ExperimentConfig | None = None,
                  models: tuple[str, ...] = REPRESENTATIVE_MODELS,
                  dataset: DatasetKind = DatasetKind.HARD
                  ) -> PromptingResult:
    """Evaluate representative models under all three settings."""
    if config is None:
        config = ExperimentConfig()
    return prompting_from_run(evaluate_request(
        prompting_request(config, models, dataset)))


def prompting_request(config: ExperimentConfig,
                      models: tuple[str, ...] = REPRESENTATIVE_MODELS,
                      dataset: DatasetKind = DatasetKind.HARD
                      ) -> RunRequest:
    """The three-setting :class:`repro.runs.RunRequest` of Figure 4."""
    return RunRequest(dataset=dataset.value,
                      models=tuple(models),
                      taxonomy_keys=tuple(config.taxonomy_keys),
                      settings=tuple(setting.value
                                     for setting in PromptSetting),
                      sample_size=config.sample_size,
                      variant=config.variant)


def prompting_from_run(result: RunResult) -> PromptingResult:
    """The radar points of a run, in its plan order: model, then
    taxonomy, then setting."""
    return PromptingResult(tuple(
        RadarPoint(key.model, key.taxonomy_key, key.setting,
                   cell.metrics.accuracy, cell.metrics.miss_rate)
        for key, cell in result.cells.items()))
