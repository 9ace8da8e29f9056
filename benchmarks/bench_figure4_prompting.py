"""Bench F4 — regenerate Figure 4 (prompting-setting radar charts)."""

from __future__ import annotations

from conftest import once

from repro.core.report import format_rows
from repro.experiments.prompting import (REPRESENTATIVE_MODELS,
                                         run_prompting)
from repro.figures.ascii import radar_table
from repro.llm.prompting import PromptSetting


def test_figure4_prompting_settings(benchmark, report, config):
    result = once(benchmark, run_prompting, config,
                  REPRESENTATIVE_MODELS)

    # Finding 4's shape: few-shot rescues Llama-2-7B from abstention...
    zero_miss = result.average("Llama-2-7B", PromptSetting.ZERO_SHOT,
                               "miss_rate")
    few_miss = result.average("Llama-2-7B", PromptSetting.FEW_SHOT,
                              "miss_rate")
    assert few_miss < zero_miss * 0.3
    # ...while GPT-4 barely moves under any setting.
    zero_acc = result.average("GPT-4", PromptSetting.ZERO_SHOT)
    for setting in (PromptSetting.FEW_SHOT, PromptSetting.COT):
        assert abs(result.average("GPT-4", setting) - zero_acc) < 0.06

    rows = [{
        "model": point.model,
        "taxonomy": point.taxonomy_key,
        "setting": point.setting,
        "accuracy": round(point.accuracy, 3),
        "miss_rate": round(point.miss_rate, 3),
    } for point in result.points]
    report(format_rows(
        rows, title="Figure 4: prompting settings (hard datasets)"))

    # One radar panel per model, spokes = taxonomies.
    spokes = tuple(config.taxonomy_keys)
    for model in REPRESENTATIVE_MODELS:
        series = {
            setting.value: [point.accuracy
                            for key in spokes
                            for point in result.series(model, setting)
                            if point.taxonomy_key == key]
            for setting in PromptSetting
        }
        report(radar_table(spokes, series,
                           title=f"Figure 4 radar: {model}"))
