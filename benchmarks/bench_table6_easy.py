"""Bench T6 — regenerate Table 6 (overall results, easy datasets)."""

from __future__ import annotations

from conftest import once

from repro.experiments.overall import run_overall
from repro.questions.model import DatasetKind


def test_table6_easy_overall(benchmark, report, config, bench_harness):
    result = once(benchmark, run_overall, DatasetKind.EASY, config)
    assert result.mean_abs_accuracy_delta < 0.10
    matrix = result.matrix()
    # Easy >= hard in the paper for nearly every strong-model cell;
    # check the flagship comparison.
    hard = bench_harness.run("GPT-4", "google", DatasetKind.HARD)
    assert matrix["GPT-4", "google"].accuracy \
        >= hard.metrics.accuracy
    report(bench_harness.format_table(
        matrix, title="Table 6: overall results on easy datasets "
        f"(mean |dA| vs paper = {result.mean_abs_accuracy_delta:.3f})"))
