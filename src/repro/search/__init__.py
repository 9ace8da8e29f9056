"""Entity search over taxonomies: tree vs LLM vs hybrid routing."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.search.engine": ("HybridRouter", "LlmRouter", "ProductCorpus",
                            "SearchResult", "TreeRouter", "lexical_score"),
    "repro.search.evaluation": ("StrategyScore", "evaluate_search",
                                "make_queries"),
})
