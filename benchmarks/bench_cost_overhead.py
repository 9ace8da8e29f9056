"""Bench COST — metering overhead + budget-stop determinism gates.

Two gates guard the cost-accounting layer:

1. **Overhead**: the same sleep-backed model answers the same prompt
   stream bare and booked the way each question is booked: under its
   own :func:`repro.obs.trail.trail_scope`, its prompt and answer
   counted with :func:`repro.obs.count_tokens`, the trail billed with
   :func:`repro.obs.call_cost_nanos` and folded into a real engine
   :class:`~repro.engine.telemetry.Telemetry` by ``observe`` — with
   an :class:`repro.obs.AlertEvaluator` folding a dashboard snapshot
   every few calls (the `repro watch` cadence).  Token counting is
   ``ceil(len/4)`` and prices are cached integers, so the metered
   variant must stay within 5% (plus a small absolute floor for OS
   jitter) of the bare one.
2. **Budget-stop determinism**: a run capped with ``--max-cost-usd``
   must stop at a cell boundary, resume to completion, and end up
   *bit-identical* — same records, same per-cell cost fold — to the
   same request executed without a budget.  This is the property that
   makes a budget ceiling safe to use: it can only ever delay
   results, never change them.

The determinism gate also writes the unbudgeted run's ``obs cost``
JSON document to ``benchmarks/.artifacts/cost_report.json`` — CI
uploads it so every build carries its own cost accounting.

Run standalone for a sub-second smoke (used by ``scripts/check.sh``)::

    PYTHONPATH=src python benchmarks/bench_cost_overhead.py
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time
from types import SimpleNamespace

from conftest import once

from repro.core.report import format_rows
from repro.engine.telemetry import Telemetry
from repro.llm.base import BaseChatModel
from repro.llm.registry import get_model
from repro.obs import (AlertEvaluator, CostLedger, call_cost_nanos,
                       count_tokens, trail_scope)
from repro.runs import (RunRegistry, RunRequest, diff_runs,
                        execute_run, resume_run)

#: Maximum allowed slowdown of metered calls vs. bare calls.
OVERHEAD_BUDGET = 0.05
#: Absolute slack (seconds) so short smokes tolerate OS jitter —
#: hundreds of millisecond sleeps make the floor scheduler-noisy.
ABSOLUTE_SLACK_S = 0.015
#: Simulated backend latency — small enough that per-call accounting
#: overhead would show, large enough to dominate interpreter noise.
LATENCY_S = 0.001
#: Snapshot-fold cadence: one evaluator observation per this many
#: calls (far harder than the 1 s `repro watch` default).
OBSERVE_EVERY = 10

ARTIFACT_DIR = pathlib.Path(__file__).resolve().parent / ".artifacts"

BUDGETED = dict(models=("GPT-4", "GPT-3.5"), taxonomy_keys=("ebay",))


class _SleepingModel(BaseChatModel):
    """GPT-4 answers behind a fixed GIL-releasing sleep."""

    def __init__(self, latency_s: float):
        super().__init__("GPT-4")
        self.latency_s = latency_s
        self._inner = get_model("GPT-4")

    def _respond(self, prompt: str) -> str:
        time.sleep(self.latency_s)
        return self._inner.generate(prompt)


def _snapshot(done: int, elapsed_s: float) -> SimpleNamespace:
    """A RunProgress-shaped frame for the evaluator to fold."""
    return SimpleNamespace(run_id="bench", status="running",
                           questions_done=done, faults=0,
                           elapsed_s=elapsed_s,
                           throughput=done / max(elapsed_s, 1e-9),
                           latency_p99_s=LATENCY_S,
                           cost_usd=done * 1e-5)


def _prompts(calls: int) -> list[str]:
    return [f"Is item {i} a type of category {i % 7}? "
            f"answer with (Yes/No/I don't know)"
            for i in range(calls)]


def _time_bare(calls: int) -> float:
    model = _SleepingModel(LATENCY_S)
    prompts = _prompts(calls)
    model.generate(prompts[0])           # warm the oracle's indexes
    started = time.perf_counter()
    for prompt in prompts:
        model.generate(prompt)
    return time.perf_counter() - started


def _booked(model: _SleepingModel, telemetry: Telemetry,
            prompt: str) -> str:
    """One call, booked as a question is: priced on its trail, then
    folded into the telemetry."""
    started = time.perf_counter()
    with trail_scope() as context:
        answer = model.generate(prompt)
        prompt_tokens = count_tokens(prompt, model)
        completion_tokens = count_tokens(answer, model)
        context.note_cost(prompt_tokens, completion_tokens,
                          call_cost_nanos(model.name, prompt_tokens,
                                          completion_tokens))
    telemetry.observe(time.perf_counter() - started, context)
    return answer


def _time_metered(calls: int) -> float:
    telemetry = Telemetry()
    model = _SleepingModel(LATENCY_S)
    evaluator = AlertEvaluator()
    prompts = _prompts(calls)
    model.generate(prompts[0])           # warm outside the clock
    started = time.perf_counter()
    for index, prompt in enumerate(prompts):
        _booked(model, telemetry, prompt)
        if index % OBSERVE_EVERY == 0:
            evaluator.observe(_snapshot(index + 1,
                                        time.perf_counter() - started))
    elapsed = time.perf_counter() - started
    stats = telemetry.snapshot()
    assert stats.prompt_tokens > 0 and stats.cost_nanos > 0, \
        "metered variant recorded no spend"
    return elapsed


def _measure_overhead(calls: int = 300,
                      repeats: int = 3) -> dict[str, object]:
    bare_s = min(_time_bare(calls) for _ in range(repeats))
    metered_s = min(_time_metered(calls) for _ in range(repeats))
    return {
        "calls": calls,
        "bare_s": bare_s,
        "metered_s": metered_s,
        "overhead": metered_s / bare_s - 1.0,
    }


def _within_budget(result: dict[str, object]) -> bool:
    excess = float(result["metered_s"]) - float(result["bare_s"])
    return (excess
            <= float(result["bare_s"]) * OVERHEAD_BUDGET
            + ABSOLUTE_SLACK_S)


def _check_budget_determinism(
        sample_size: int = 8) -> dict[str, object]:
    """Capped-then-resumed must equal never-capped, bit for bit."""
    with tempfile.TemporaryDirectory() as root:
        registry = RunRegistry(root)
        capped = execute_run(
            RunRequest(**BUDGETED, sample_size=sample_size,
                       max_cost_usd=0.0001),
            registry=registry)
        assert capped.budget is not None, \
            "budget ceiling did not stop the run"
        stopped_after = len(capped.cells)
        resumed = resume_run(capped.run_id, registry=registry)

        free = execute_run(
            RunRequest(**BUDGETED, sample_size=sample_size),
            registry=registry)
        diff = diff_runs(resumed, free)
        assert diff.identical, (
            f"budget-stopped-then-resumed run diverged from the "
            f"unbudgeted run: {len(diff.changed_cells)} changed "
            f"cells, {diff.total_flips} flips")

        fold_a = CostLedger.from_run(capped.run_id,
                                     registry=registry)
        fold_b = CostLedger.from_run(free.run_id, registry=registry)
        assert (fold_a.total_cost_nanos == fold_b.total_cost_nanos
                and fold_a.total_cost_nanos > 0), (
            f"cost folds diverged: {fold_a.total_cost_nanos} != "
            f"{fold_b.total_cost_nanos}")

        ARTIFACT_DIR.mkdir(exist_ok=True)
        artifact = ARTIFACT_DIR / "cost_report.json"
        artifact.write_text(json.dumps(fold_b.to_dict(), indent=1)
                            + "\n")
        return {
            "cells": len(free.cells),
            "stopped_after": stopped_after,
            "cost_usd": f"{fold_b.total_cost_usd:.6f}",
            "identical": diff.identical,
            "artifact": artifact.name,
        }


def _rows(overhead: dict[str, object],
          determinism: dict[str, object]) -> list[dict[str, object]]:
    return [{
        "calls": overhead["calls"],
        "bare_s": f"{overhead['bare_s']:.4f}",
        "metered_s": f"{overhead['metered_s']:.4f}",
        "overhead": f"{overhead['overhead'] * 100:+.2f}%",
        "budget": f"{OVERHEAD_BUDGET * 100:.0f}%",
        "stop_at_cell": (f"{determinism['stopped_after']}/"
                         f"{determinism['cells']}"),
        "resume_identical": determinism["identical"],
        "run_cost_usd": determinism["cost_usd"],
    }]


def test_cost_overhead_and_budget_determinism(benchmark, report):
    overhead = once(benchmark, _measure_overhead)
    assert _within_budget(overhead), (
        f"cost metering overhead {overhead['overhead'] * 100:.2f}% "
        f"exceeds the {OVERHEAD_BUDGET * 100:.0f}% budget "
        f"(bare {overhead['bare_s']:.4f}s, "
        f"metered {overhead['metered_s']:.4f}s)")
    determinism = _check_budget_determinism()
    report(format_rows(_rows(overhead, determinism),
                       title="Cost metering overhead (1 ms simulated "
                             "latency) + budget-stop determinism"))


if __name__ == "__main__":  # pragma: no cover - smoke entry point
    outcome = _measure_overhead(calls=150, repeats=3)
    verdict = _check_budget_determinism(sample_size=6)
    print(format_rows(_rows(outcome, verdict),
                      title="Cost metering + budget determinism "
                            "smoke"))
    if not _within_budget(outcome):
        raise SystemExit("cost metering overhead exceeds budget")
