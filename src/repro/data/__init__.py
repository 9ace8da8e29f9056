"""Embedded paper anchors: reported tables and figure trends."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.data.paper_figures": ("LEVEL_SHAPES", "POPULARITY_LOG10_HITS",
                                 "PROMPTING_EFFECTS", "SCALABILITY",
                                 "SERIES_MEMBERS", "latent_accuracy"),
    "repro.data.paper_tables": ("MODEL_ORDER", "PAPER_RESULTS",
                                "TAXONOMY_ORDER", "paper_anchor"),
})
