"""Bench F3 — regenerate Figure 3 (per-level accuracy, hard)."""

from __future__ import annotations

from conftest import once

from repro.core.report import format_rows
from repro.experiments.levels import run_levels
from repro.figures.ascii import line_chart


def test_figure3_per_level_accuracy(benchmark, report, config):
    series = once(benchmark, run_levels, config)
    by_pair = {(s.model, s.taxonomy_key): s for s in series}

    # Root-to-leaf decline on the common taxonomies for most models.
    declining = sum(1 for s in series
                    if s.taxonomy_key in ("amazon", "google", "ebay")
                    and s.declines_overall)
    total = sum(1 for s in series
                if s.taxonomy_key in ("amazon", "google", "ebay"))
    assert declining / total > 0.6

    # The NCBI species->genus uplift (Figure 3(i)).
    if ("GPT-4", "ncbi") in by_pair:
        assert by_pair["GPT-4", "ncbi"].last_level_uplift > 0.05

    rows = [row for s in series for row in s.rows()]
    report(format_rows(
        rows, title="Figure 3: accuracy per level (hard datasets)"))

    # Render the NCBI panel (Figure 3(i)) as an actual chart.
    ncbi = {s.model: list(s.accuracies) for s in series
            if s.taxonomy_key == "ncbi"}
    if ncbi:
        levels = next(s for s in series
                      if s.taxonomy_key == "ncbi").levels
        report(line_chart(
            ncbi, [f"L{level}" for level in levels],
            title="Figure 3(i): NCBI accuracy by level"))
