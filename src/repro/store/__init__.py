"""repro.store — the fast dataset pipeline.

The paper's benchmark datasets are a pure function of
``(taxonomy spec, sample_size, seed)``, so this package computes them
once and serves them from disk afterwards:

* :class:`ArtifactStore` — content-addressed on-disk cache of built
  taxonomies + question pools (compact columnar JSON); warm loads do
  zero generation work and stale artifacts self-invalidate because the
  cache key fingerprints the spec, the request, the schema version and
  the generator source code.  It also holds one taxonomy artifact per
  registry taxonomy, which the simulated models' oracle reads
  (:meth:`ArtifactStore.get_or_build_taxonomy`).
* :func:`build_all_datasets` — fans cold builds out across processes
  with results bit-identical to a sequential build;
  :func:`build_taxonomy_artifacts` does the same for the taxonomy
  artifacts.
* :func:`spec_fingerprint` / :func:`taxonomy_fingerprint` /
  :func:`code_fingerprint` — the cache-key material.

``repro.questions.pools.build_pools`` routes through the default store
automatically; set ``REPRO_STORE_DIR`` to relocate it or to ``off`` to
disable caching.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.store.artifacts": ("STORE_ENV", "ArtifactStore", "StoreStats",
                              "build_taxonomy_artifact", "default_store"),
    "repro.store.codec": ("ArtifactDecodeError", "decode_pools",
                          "decode_taxonomy", "encode_pools"),
    "repro.store.fingerprint": ("SCHEMA_VERSION", "code_fingerprint",
                                "spec_fingerprint", "taxonomy_fingerprint"),
    "repro.store.parallel": ("build_all_datasets", "build_taxonomy_artifacts"),
})
