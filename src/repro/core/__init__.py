"""Evaluation core: metrics, runner, results, reports, facade."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.benchmark": ("TAXONOMY_LABELS", "TaxoGlimpse"),
    "repro.core.export": ("CellDrift", "diff_matrices", "load_matrix",
                          "matrix_from_payload", "matrix_to_payload",
                          "pool_result_to_payload", "save_matrix"),
    "repro.core.metrics": ("Metrics", "RetrievalMetrics", "combine",
                           "retrieval_metrics", "summarize"),
    "repro.core.report": ("format_engine_stats", "format_matrix",
                          "format_rows", "matrix_to_csv"),
    "repro.core.results": ("PoolResult", "QuestionRecord",
                           "metrics_from_records"),
    "repro.core.runner": ("EvaluationRunner",),
})
