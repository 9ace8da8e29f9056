"""LLM substrate: interface, prompting, parsing, simulators, costs."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.llm.base": ("BaseChatModel", "ChatModel", "StaticResponder"),
    "repro.llm.deployment": ("DeploymentPlan", "Gpu", "Placement",
                             "paper_fleet", "plan_deployment"),
    "repro.llm.costs": ("CostEstimate", "cost_estimate", "fp16_ram_gb",
                        "scaling_efficiency", "series_cost_table"),
    "repro.llm.knowledge": ("DEFAULT_THRESHOLD", "SurfaceHeuristicBaseline",
                            "surface_similarity"),
    "repro.llm.oracle": ("Resolution", "TaxonomyOracle", "default_oracle"),
    "repro.llm.parsing": ("parse_answer", "parse_mcq", "parse_true_false"),
    "repro.llm.profiles": ("ModelProfile", "make_profile"),
    "repro.llm.prompt_parsing": ("ParsedPrompt", "parse_prompt"),
    "repro.llm.prompting": ("COT_SUFFIX", "FEW_SHOT_COUNT", "PromptSetting",
                            "build_prompt", "few_shot_exemplars"),
    "repro.llm.registry": ("MODEL_NAMES", "SERIES", "all_models", "get_model",
                           "get_profile", "make_model", "surface_baseline"),
    "repro.llm.rng": ("stable_choice", "stable_index", "unit_float"),
    "repro.llm.simulated": ("SimulatedLLM",),
})
