"""Statistical utilities: sample sizes (Table 4) and bootstrap CIs."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.stats.bootstrap": ("Interval", "bootstrap_mean"),
    "repro.stats.sampling": ("DEFAULT_MARGIN", "DEFAULT_PROPORTION", "Z_95",
                             "cochran_sample_size"),
})
