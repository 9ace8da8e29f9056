"""Experiment F7 — scalability of the open-source model series.

Reports, per series, each member's parameter count, modelled GPU RAM
and per-question latency, plus the series' scaling-efficiency exponent
(log time growth per log parameter growth).  The paper's qualitative
claim — Flan-T5s, Vicunas and Llama-3s scale well — corresponds to
small exponents.

``harness_throughput_rows`` adds this reproduction's own scalability
axis: the evaluation harness driven through the execution engine at
increasing worker counts, reported from :class:`EngineStats`
telemetry (questions/second, utilization, cache traffic) rather than
raw ``prompts_served`` counters.
"""

from __future__ import annotations

from repro.core.runner import EvaluationRunner
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EvaluationEngine
from repro.llm.costs import scaling_efficiency, series_cost_table
from repro.llm.registry import get_model
from repro.questions.model import DatasetKind
from repro.questions.pools import build_pools


def figure7_rows() -> list[dict[str, object]]:
    """One row per open-source model, grouped by series."""
    rows = []
    for series, estimates in series_cost_table().items():
        for estimate in estimates:
            rows.append({
                "series": series,
                "model": estimate.model,
                "params_b": estimate.params_b,
                "gpu_ram_gb": round(estimate.gpu_ram_gb, 1),
                "sec_per_question": estimate.seconds_per_question,
            })
    return rows


def efficiency_summary() -> dict[str, float]:
    """Series -> scaling exponent (lower = better scalability)."""
    return {series: round(scaling_efficiency(series), 3)
            for series in series_cost_table()}


def well_scaling_series(threshold: float = 0.45) -> list[str]:
    """Series whose latency grows clearly sub-linearly with size."""
    return [series for series, exponent in efficiency_summary().items()
            if exponent < threshold]


def harness_throughput_rows(model_name: str = "GPT-4",
                            taxonomy_key: str = "ebay",
                            worker_counts: tuple[int, ...] = (1, 2, 4, 8),
                            sample_size: int = 40
                            ) -> list[dict[str, object]]:
    """Engine telemetry per worker count on one (model, taxonomy) cell.

    Each row is a fresh engine's :class:`EngineStats` after one full
    pool evaluation, so it reflects exactly that configuration's
    calls, cache traffic and worker utilization.
    """
    pool = build_pools(taxonomy_key,
                       sample_size=sample_size).total_pool(
        DatasetKind.HARD)
    rows = []
    for workers in worker_counts:
        engine = EvaluationEngine(EngineConfig(max_workers=workers))
        runner = EvaluationRunner(engine=engine)
        result = runner.evaluate(get_model(model_name), pool)
        stats = engine.stats()
        rows.append({"model": model_name, "taxonomy": taxonomy_key,
                     "n": result.metrics.n, **stats.as_row()})
    return rows
