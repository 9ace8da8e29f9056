"""Loaders for the real taxonomy dumps the paper used.

Each loader produces the same :class:`repro.taxonomy.Taxonomy` the
synthetic generators do, so real data swaps in behind every downstream
component (question generation, oracle, experiments) unchanged.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.loaders.glottolog": ("load_glottolog_taxonomy",
                                "parse_languoid_csv"),
    "repro.loaders.google": ("load_google_taxonomy", "parse_path_lines"),
    "repro.loaders.ncbi": ("RANK_LEVELS", "build_ncbi_taxonomy",
                           "load_ncbi_taxonomy", "parse_names", "parse_nodes"),
    "repro.loaders.schema_org": ("load_schema_taxonomy", "parse_types_csv"),
})
