"""LLM-tree-combined taxonomy and the Section 5.3 case study."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.hybrid.case_study": ("CaseStudyConfig", "CaseStudyResult",
                                "run_case_study", "spec_maintenance_saving"),
    "repro.hybrid.hybrid_taxonomy": ("HybridTaxonomy", "MaintenanceSaving"),
    "repro.hybrid.sweep": ("SweepPoint", "saving_at_precision",
                           "sweep_cut_levels"),
    "repro.hybrid.membership": ("DEFAULT_FALSE_POSITIVE_RATE",
                                "DEFAULT_RECALL_RATE", "MembershipModel"),
})
