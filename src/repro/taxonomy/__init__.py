"""Taxonomy substrate: forest data structures, validation, stats, io."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.taxonomy.builder": ("TaxonomyBuilder",),
    "repro.taxonomy.edit": ("EditRecord", "MaintenanceLog", "TaxonomyEditor"),
    "repro.taxonomy.io": ("load_edge_tsv", "load_json", "save_edge_tsv",
                          "save_json", "taxonomy_from_dict",
                          "taxonomy_to_dict"),
    "repro.taxonomy.node": ("Domain", "TaxonomyNode"),
    "repro.taxonomy.stats": ("TaxonomyStatistics", "branching_factors",
                             "compute_statistics"),
    "repro.taxonomy.taxonomy": ("Taxonomy",),
    "repro.taxonomy.validate": ("collect_problems", "validate_taxonomy"),
})
