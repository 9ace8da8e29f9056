"""Experiments T5/T6/T7 — overall results on hard/easy/MCQ datasets.

Runs the full (models x taxonomies) matrix under zero-shot prompting
and reports measured accuracy/miss next to the paper's numbers, plus
the absolute deviations — the core reproduction artifact.

The sweep is :func:`overall_request`, run in memory or, with
``registry=``, through the durable run ledger (:mod:`repro.runs`),
where every scored question lands on disk as it completes;
:func:`overall_from_run` reads the table off either result, or later
off the ledger alone — zero model calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import Metrics
from repro.data.paper_tables import paper_anchor
from repro.engine.scheduler import EvaluationEngine
from repro.experiments.config import ExperimentConfig
from repro.questions.model import DatasetKind
from repro.runs.driver import (RunResult, coerce_run, evaluate_request,
                               execute_run)
from repro.runs.registry import RunRegistry
from repro.runs.request import RunRequest


@dataclass(frozen=True, slots=True)
class CellComparison:
    """One (model, taxonomy) cell: measured vs paper."""

    model: str
    taxonomy_key: str
    measured: Metrics
    paper_accuracy: float
    paper_miss: float

    @property
    def accuracy_delta(self) -> float:
        return self.measured.accuracy - self.paper_accuracy

    @property
    def miss_delta(self) -> float:
        return self.measured.miss_rate - self.paper_miss


@dataclass(frozen=True, slots=True)
class OverallResult:
    """The full matrix for one dataset kind, with paper comparison."""

    dataset: DatasetKind
    cells: tuple[CellComparison, ...]

    def matrix(self) -> dict[tuple[str, str], Metrics]:
        return {(cell.model, cell.taxonomy_key): cell.measured
                for cell in self.cells}

    @property
    def mean_abs_accuracy_delta(self) -> float:
        return sum(abs(cell.accuracy_delta) for cell in self.cells) \
            / len(self.cells)

    @property
    def mean_abs_miss_delta(self) -> float:
        return sum(abs(cell.miss_delta) for cell in self.cells) \
            / len(self.cells)

    def worst_cells(self, count: int = 5) -> list[CellComparison]:
        return sorted(self.cells,
                      key=lambda cell: abs(cell.accuracy_delta),
                      reverse=True)[:count]


def run_overall(dataset: DatasetKind,
                config: ExperimentConfig | None = None,
                registry: RunRegistry | None = None,
                engine: EvaluationEngine | None = None
                ) -> OverallResult:
    """Regenerate Table 5 (hard), 6 (easy) or 7 (MCQ).

    With ``registry`` the sweep executes through the run ledger
    (durable, resumable, reloadable via :func:`overall_from_run`);
    without it the same request is evaluated in memory.  Both produce
    bit-identical tables.
    """
    if config is None:
        config = ExperimentConfig()
    request = overall_request(dataset, config)
    run = (evaluate_request(request, engine) if registry is None
           else execute_run(request, registry=registry, engine=engine))
    return overall_from_run(run)


def overall_request(dataset: DatasetKind,
                    config: ExperimentConfig) -> RunRequest:
    """The :class:`repro.runs.RunRequest` this experiment sweeps."""
    return RunRequest(dataset=dataset.value,
                      models=tuple(config.models),
                      taxonomy_keys=tuple(config.taxonomy_keys),
                      sample_size=config.sample_size,
                      variant=config.variant)


def overall_from_run(run: RunResult | str,
                     registry: RunRegistry | None = None
                     ) -> OverallResult:
    """Rebuild the overall table from a run (or run id) — no models.

    Accepts the :class:`RunResult` an execution returned or a bare
    run id, which is loaded back from its ledger; either way no model
    is queried, so a finished sweep's table is free forever.
    """
    result = coerce_run(run, registry=registry)
    dataset = DatasetKind(result.request.dataset)
    cells = []
    for (model, key), metrics in result.matrix().items():
        accuracy, miss = paper_anchor(dataset.value, model, key)
        cells.append(CellComparison(model, key, metrics, accuracy,
                                    miss))
    return OverallResult(dataset, tuple(cells))
