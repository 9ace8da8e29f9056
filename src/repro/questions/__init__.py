"""Question design: templates, generation, pools, instance typing."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.questions.generation": ("LevelQuestions",
                                   "generate_level_questions"),
    "repro.questions.instance_typing": ("INSTANCE_TYPING_KEYS", "Instance",
                                        "InstanceTypingPools",
                                        "build_instance_typing_pools",
                                        "collect_instances"),
    "repro.questions.model": ("MCQ_LETTERS", "Answer", "DatasetKind",
                              "Question", "QuestionKind", "QuestionType",
                              "letter_answer", "level_label"),
    "repro.questions.pools": ("QuestionPool", "TaxonomyPools", "build_pools",
                              "default_pools"),
    "repro.questions.templates": ("ADJECTIVE_VARIANTS", "RELATION_VARIANTS",
                                  "TF_ANSWER_SUFFIX", "mcq_prompt",
                                  "render_question", "true_false_prompt"),
})
