"""TaxoGlimpse reproduction — are LLMs a good replacement of taxonomies?

Reproduces the VLDB 2024 benchmark study end to end: ten synthetic
taxonomies matching the paper's shapes, the True/False + MCQ question
design, eighteen calibrated simulated LLMs behind a real chat-model
interface, the evaluation harness, and every table/figure experiment.

Quickstart:

    >>> from repro import TaxoGlimpse, DatasetKind
    >>> bench = TaxoGlimpse(sample_size=40)
    >>> result = bench.run("GPT-4", "ebay", DatasetKind.HARD)
    >>> result.metrics.accuracy > 0.8
    True
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core": ("EvaluationRunner", "Metrics", "PoolResult",
                   "QuestionRecord", "RetrievalMetrics", "TaxoGlimpse",
                   "TAXONOMY_LABELS"),
    "repro.engine": ("EngineConfig", "EngineStats", "EvaluationEngine",
                     "ResponseCache", "RetryPolicy"),
    "repro.errors": ("CalibrationError", "ExperimentError",
                     "LedgerCorruptError", "ManifestCorruptError",
                     "ModelError", "ModelTimeoutError",
                     "ModelTransientError", "PromptError",
                     "QuestionGenerationError", "ReproError", "RunError",
                     "TaxonomyError", "UnknownModelError", "UnknownNodeError",
                     "UnknownRunError", "ValidationError"),
    "repro.generators": ("ALL_SPECS", "TAXONOMY_KEYS", "build_all",
                         "build_taxonomy", "get_spec"),
    "repro.hybrid": ("CaseStudyConfig", "CaseStudyResult", "HybridTaxonomy",
                     "MembershipModel", "run_case_study"),
    "repro.llm": ("MODEL_NAMES", "ChatModel", "PromptSetting", "SimulatedLLM",
                  "TaxonomyOracle", "all_models", "get_model", "get_profile",
                  "surface_baseline"),
    "repro.obs": ("NULL_TRACER", "MetricsRegistry", "Tracer", "chrome_trace",
                  "configure_logging"),
    "repro.questions": ("Answer", "DatasetKind", "Question", "QuestionKind",
                        "QuestionPool", "QuestionType", "TaxonomyPools",
                        "build_pools", "render_question"),
    "repro.runs": ("RunLedger", "RunRegistry", "RunRequest", "RunResult",
                   "diff_runs", "execute_run", "load_run", "resume_run"),
    "repro.store": ("ArtifactStore", "build_all_datasets", "default_store",
                    "spec_fingerprint"),
    "repro.taxonomy": ("Domain", "Taxonomy", "TaxonomyBuilder", "TaxonomyNode",
                       "compute_statistics"),
})
__all__.append("__version__")
