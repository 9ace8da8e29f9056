"""Experiment F3 — accuracy per taxonomy level on hard datasets.

Reproduces Figure 3: for every taxonomy (GeoNames excluded, it has a
single question level) the accuracy of each model per child level under
zero-shot prompting, exposing the root-to-leaf decline, the NCBI
species->genus uplift and the OAE leafward rise.  The sweep is
:func:`levels_request`; :func:`levels_from_run` reads the curves off
its result, in memory or from the run ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.scheduler import EvaluationEngine
from repro.experiments.config import ExperimentConfig
from repro.questions.model import DatasetKind, level_label
from repro.runs.driver import (RunResult, coerce_run, evaluate_request,
                               execute_run)
from repro.runs.registry import RunRegistry
from repro.runs.request import RunRequest

#: Figure 3 omits GeoNames (one question level only).
FIGURE3_KEYS: tuple[str, ...] = (
    "ebay", "amazon", "google", "schema", "acm_ccs", "glottolog",
    "icd10cm", "oae", "ncbi")


@dataclass(frozen=True, slots=True)
class LevelSeries:
    """One model's root-to-leaf accuracy curve on one taxonomy."""

    model: str
    taxonomy_key: str
    levels: tuple[int, ...]
    accuracies: tuple[float, ...]
    miss_rates: tuple[float, ...]

    @property
    def declines_overall(self) -> bool:
        """True when the first level beats the last (root > leaf)."""
        return self.accuracies[0] > self.accuracies[-1]

    @property
    def last_level_uplift(self) -> float:
        """Leaf accuracy minus the preceding level (NCBI signature)."""
        if len(self.accuracies) < 2:
            return 0.0
        return self.accuracies[-1] - self.accuracies[-2]

    def rows(self) -> list[dict[str, object]]:
        return [{
            "model": self.model,
            "taxonomy": self.taxonomy_key,
            "level": level_label(level),
            "accuracy": round(accuracy, 3),
            "miss_rate": round(miss, 3),
        } for level, accuracy, miss in zip(
            self.levels, self.accuracies, self.miss_rates)]


def run_levels(config: ExperimentConfig | None = None,
               dataset: DatasetKind = DatasetKind.HARD,
               registry: RunRegistry | None = None,
               engine: EvaluationEngine | None = None
               ) -> list[LevelSeries]:
    """Per-level curves for every (model, taxonomy) pair.

    With ``registry`` the per-level sweep executes through the run
    ledger and :func:`levels_from_run` can rebuild the exact same
    curves later from disk alone; without it the same request is
    evaluated in memory.  Both paths are bit-identical.  Taxonomies
    outside :data:`FIGURE3_KEYS` have no curve.
    """
    if config is None:
        config = ExperimentConfig()
    if not set(config.taxonomy_keys) & set(FIGURE3_KEYS):
        return []
    request = levels_request(config, dataset)
    run = (evaluate_request(request, engine) if registry is None
           else execute_run(request, registry=registry, engine=engine))
    return levels_from_run(run)


def levels_request(config: ExperimentConfig,
                   dataset: DatasetKind = DatasetKind.HARD
                   ) -> RunRequest:
    """The per-level :class:`repro.runs.RunRequest` for Figure 3."""
    keys = tuple(key for key in config.taxonomy_keys
                 if key in FIGURE3_KEYS)
    return RunRequest(dataset=dataset.value,
                      models=tuple(config.models),
                      taxonomy_keys=keys,
                      sample_size=config.sample_size,
                      variant=config.variant,
                      per_level=True)


def levels_from_run(run: RunResult | str,
                    registry: RunRegistry | None = None
                    ) -> list[LevelSeries]:
    """Rebuild the Figure 3 curves from a run (or run id) — no models."""
    result = coerce_run(run, registry=registry)
    per_pair: dict[tuple[str, str], dict[int, object]] = {}
    for (model, key, level), metrics in result.level_metrics().items():
        per_pair.setdefault((key, model), {})[level] = metrics
    series: list[LevelSeries] = []
    for key in result.request.taxonomy_keys:
        for model in result.request.models:
            by_level = per_pair.get((key, model), {})
            levels = sorted(by_level)
            series.append(LevelSeries(
                model, key, tuple(levels),
                tuple(by_level[level].accuracy for level in levels),
                tuple(by_level[level].miss_rate for level in levels)))
    return series
