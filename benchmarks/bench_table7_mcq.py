"""Bench T7 — regenerate Table 7 (overall results, MCQ datasets)."""

from __future__ import annotations

from statistics import fmean

from conftest import once

from repro.experiments.overall import run_overall
from repro.questions.model import DatasetKind


def test_table7_mcq_overall(benchmark, report, config, bench_harness):
    result = once(benchmark, run_overall, DatasetKind.MCQ, config)
    assert result.mean_abs_accuracy_delta < 0.10
    matrix = result.matrix()
    # Providing options slashes miss rates (Section 4.1): averaged
    # over taxonomies, MCQ misses sit below hard-dataset misses.
    for model in ("GPT-4", "Llama-3-8B"):
        mcq_miss = fmean(matrix[model, key].miss_rate
                         for key in config.taxonomy_keys)
        hard_miss = fmean(
            bench_harness.run(model, key, DatasetKind.HARD)
            .metrics.miss_rate for key in config.taxonomy_keys)
        assert mcq_miss <= hard_miss + 0.01
    report(bench_harness.format_table(
        matrix, title="Table 7: overall results on MCQ datasets "
        f"(mean |dA| vs paper = {result.mean_abs_accuracy_delta:.3f})"))
