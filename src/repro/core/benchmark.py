"""TaxoGlimpse: the public benchmark facade.

One object wires together taxonomy generation, question pools, models
and the evaluation runner, so downstream users can score one model on
one taxonomy in three lines:

    >>> from repro import TaxoGlimpse
    >>> bench = TaxoGlimpse(sample_size=40)
    >>> result = bench.run("GPT-4", "ebay", dataset=DatasetKind.HARD)

A whole Tables 5-7 matrix is a :class:`repro.runs.RunRequest`, scored
by :func:`repro.runs.driver.evaluate_request` (or through the run
ledger by :func:`repro.runs.driver.execute_run`);
:func:`repro.experiments.overall.run_overall` builds and runs it, and
:meth:`TaxoGlimpse.format_table` renders any such matrix.
"""

from __future__ import annotations

from repro.core.metrics import Metrics
from repro.core.report import format_matrix
from repro.core.results import PoolResult
from repro.core.runner import EvaluationRunner
from repro.generators.registry import ALL_SPECS, TAXONOMY_KEYS
from repro.llm.base import ChatModel
from repro.llm.prompting import PromptSetting
from repro.llm.registry import MODEL_NAMES, get_model
from repro.questions.model import DatasetKind
from repro.questions.pools import TaxonomyPools, build_pools

#: Display labels per taxonomy key (paper table headers).
TAXONOMY_LABELS: dict[str, str] = {
    spec.key: spec.display_name for spec in ALL_SPECS}


class TaxoGlimpse:
    """End-to-end benchmark over the ten taxonomies.

    Args:
        sample_size: Optional per-level question cap.  ``None`` uses
            the paper's Cochran 95%/5% sizes; small values make smoke
            runs fast.
        variant: Template paraphrase variant (0 = the paper's wording).
        keep_records: Retain per-question records on results.
        engine: Optional :class:`repro.engine.EvaluationEngine`; every
            evaluation then runs concurrently behind its middleware
            stack with bit-identical metrics.
    """

    def __init__(self, sample_size: int | None = None, variant: int = 0,
                 keep_records: bool = False, engine=None):
        self.sample_size = sample_size
        self.runner = EvaluationRunner(variant=variant,
                                       keep_records=keep_records,
                                       engine=engine)
        self._pools: dict[str, TaxonomyPools] = {}

    # ------------------------------------------------------------------
    def pools(self, taxonomy_key: str) -> TaxonomyPools:
        """(Cached) question pools for one taxonomy."""
        if taxonomy_key not in self._pools:
            self._pools[taxonomy_key] = build_pools(
                taxonomy_key, sample_size=self.sample_size)
        return self._pools[taxonomy_key]

    @staticmethod
    def resolve_model(model: str | ChatModel) -> ChatModel:
        """Accept either a registry name or any ChatModel object."""
        if isinstance(model, str):
            return get_model(model)
        return model

    # ------------------------------------------------------------------
    def run(self, model: str | ChatModel, taxonomy_key: str,
            dataset: DatasetKind = DatasetKind.HARD,
            setting: PromptSetting = PromptSetting.ZERO_SHOT,
            level: int | None = None) -> PoolResult:
        """Evaluate one model on one taxonomy dataset.

        ``level`` restricts to a single child level (Figure 3 style);
        ``None`` evaluates the level-combined pool (Tables 5-7 style).
        """
        pools = self.pools(taxonomy_key)
        pool = (pools.total_pool(dataset) if level is None
                else pools.level_pool(level, dataset))
        return self.runner.evaluate(self.resolve_model(model), pool,
                                    setting)

    @staticmethod
    def format_table(matrix: dict[tuple[str, str], Metrics],
                     title: str = "") -> str:
        """Render a matrix in the paper's table layout."""
        models = sorted({model for model, _ in matrix},
                        key=lambda name: (
                            list(MODEL_NAMES).index(name)
                            if name in MODEL_NAMES else 99))
        keys = [key for key in TAXONOMY_KEYS
                if any((model, key) in matrix for model in models)]
        labels = {key: TAXONOMY_LABELS[key] for key in keys}
        return format_matrix(matrix, models, labels, title=title)
