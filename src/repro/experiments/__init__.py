"""Experiment package: one runner per paper table/figure."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.experiments.analysis": ("LLMS4OL_BASE", "VICUNA_VS_LLAMA",
                                   "DomainGap", "ScalingStep", "TuningEffect",
                                   "domain_gaps", "size_scaling_steps",
                                   "tuning_effect"),
    "repro.experiments.config": ("ExperimentConfig",),
    "repro.experiments.consistency": ("ConsistencyReport",
                                      "probe_consistency"),
    "repro.experiments.errors_analysis": ("ErrorBreakdown",
                                          "abstention_calibration",
                                          "error_breakdown"),
    "repro.experiments.variants": ("VariantResult", "run_variants"),
    "repro.experiments.datasets": ("table4_rows",),
    "repro.experiments.instances": ("TypingSeries", "run_instance_typing"),
    "repro.experiments.levels": ("FIGURE3_KEYS", "LevelSeries",
                                 "levels_from_run", "levels_request",
                                 "run_levels"),
    "repro.experiments.overall": ("CellComparison", "OverallResult",
                                  "overall_from_run", "overall_request",
                                  "run_overall"),
    "repro.experiments.popularity": ("common_beat_specialized",
                                     "figure2_rows"),
    "repro.experiments.prompting": ("REPRESENTATIVE_MODELS", "PromptingResult",
                                    "RadarPoint", "run_prompting"),
    "repro.experiments.registry": ("EXPERIMENTS", "ExperimentSpec",
                                   "run_experiment"),
    "repro.experiments.scalability": ("efficiency_summary", "figure7_rows",
                                      "well_scaling_series"),
    "repro.experiments.statistics": ("table1_rows",),
})
