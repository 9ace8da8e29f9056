"""Bench T5 — regenerate Table 5 (overall results, hard datasets)."""

from __future__ import annotations

from conftest import once

from repro.experiments.overall import run_overall
from repro.questions.model import DatasetKind


def test_table5_hard_overall(benchmark, report, config, bench_harness):
    result = once(benchmark, run_overall, DatasetKind.HARD, config)
    # Shape contract: measured cells track the paper's Table 5.
    assert result.mean_abs_accuracy_delta < 0.10
    assert result.mean_abs_miss_delta < 0.08
    matrix = result.matrix()
    # Who-wins shape: every model is better on eBay than on Glottolog.
    for model in config.models:
        assert matrix[model, "ebay"].accuracy \
            >= matrix[model, "glottolog"].accuracy - 0.05
    report(bench_harness.format_table(
        matrix, title="Table 5: overall results on hard datasets "
        f"(mean |dA| vs paper = {result.mean_abs_accuracy_delta:.3f})"))
