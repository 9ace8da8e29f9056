"""Simulated taxonomy popularity (paper Figure 2)."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.popularity.estimator": ("DEFAULT_SAMPLE", "PopularityEstimate",
                                   "concept_hits", "estimate_popularity",
                                   "popularity_ranking"),
})
