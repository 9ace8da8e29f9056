"""Tests for repro.obs.cost and repro.obs.alerts.

Token/dollar accounting across execution shapes, budget enforcement
at cell boundaries, legacy-ledger compatibility, SLO alerting and the
CLI surfaces (`obs cost`, `obs check` cost gate, cost columns).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.runner import EvaluationRunner
from repro.engine.cache import ResponseCache
from repro.engine.config import EngineConfig, RetryPolicy
from repro.engine.middleware import FaultInjectingModel, RetryingModel
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import Telemetry
from repro.errors import RunError
from repro.llm.base import StaticResponder
from repro.llm.registry import get_model
from repro.obs import (AlertEvaluator, AlertRule, BudgetGuard,
                       CostLedger, Thresholds,
                       check_entries, count_tokens,
                       escape_label_value, price_for, usd_to_nanos)
from repro.obs.cost import (CostCell, TokenCounter, call_cost_nanos,
                            nanos_to_usd)
from repro.obs.history import HistoryEntry
from repro.obs.trail import trail_scope
from repro.questions.model import DatasetKind
from repro.questions.pools import build_pools
from repro.runs import (RunRegistry, RunRequest, diff_runs,
                        execute_run, load_run, replay_ledger,
                        resume_run)
from repro.runs import session as session_module
from repro.dist import execute_run_sharded

SMALL = dict(models=("GPT-4", "GPT-3.5"), taxonomy_keys=("ebay",),
             sample_size=6)


@pytest.fixture()
def registry(tmp_path) -> RunRegistry:
    return RunRegistry(tmp_path / "runs")


def _entry(run_id: str, cost_nanos: int, accuracy: float = 0.9,
           **overrides) -> HistoryEntry:
    payload = dict(run_id=run_id, finished_at=1.0, dataset="hard",
                   attempts=1, cells=1, questions=10,
                   accuracy=accuracy, wall_time_s=1.0,
                   throughput=10.0, latency_p50_s=0.01,
                   latency_p99_s=0.05, cache_hit_rate=0.0,
                   cost_nanos=cost_nanos)
    payload.update(overrides)
    return HistoryEntry(**payload)


def _snapshot(**overrides) -> SimpleNamespace:
    """A RunProgress-shaped snapshot for alert metric extraction."""
    base = dict(run_id="r-01", status="running", questions_done=100,
                faults=0, elapsed_s=10.0, throughput=10.0,
                latency_p99_s=0.1, cost_usd=0.001)
    base.update(overrides)
    return SimpleNamespace(**base)


# ----------------------------------------------------------------------
# Token counting
# ----------------------------------------------------------------------
class TestTokenCounter:
    def test_heuristic_is_ceil_len_over_4(self):
        assert count_tokens("") == 0
        assert count_tokens("abcd") == 1
        assert count_tokens("abcde") == 2
        assert count_tokens("x" * 80) == 20

    def test_pure_function_of_text(self):
        text = "Is Sinitic language a type of Sino-Tibetan language?"
        assert count_tokens(text) == count_tokens(text)

    def test_per_name_override_wins(self):
        counter = TokenCounter()
        counter.register("Custom", lambda text: 7)
        try:
            assert counter.count("whatever", "Custom") == 7
            assert counter.count("whatever", "Other") == 2
        finally:
            counter.unregister("Custom")
        assert counter.count("whatever", "Custom") == 2

    def test_backend_count_tokens_hook(self):
        counter = TokenCounter()
        backend = SimpleNamespace(name="Hooked",
                                  count_tokens=lambda text: 99)
        assert counter.count("any text at all", backend) == 99
        # A registered override still beats the backend's own hook.
        counter.register("Hooked", lambda text: 1)
        assert counter.count("any text at all", backend) == 1


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
class TestPricing:
    def test_api_tier_list_prices(self):
        price = price_for("GPT-4")
        assert price.basis == "api-tier"
        assert price.prompt_nanos_per_token == 30_000
        assert price.completion_nanos_per_token == 60_000

    def test_open_model_priced_from_gpu_seconds(self):
        price = price_for("Llama-2-70B")
        assert price.basis == "gpu-seconds"
        assert price.prompt_nanos_per_token > 0
        assert (price.prompt_nanos_per_token
                == price.completion_nanos_per_token)

    def test_unknown_model_gets_default_tier(self):
        price = price_for("some-custom-backend")
        assert price.basis == "default"
        assert price.prompt_nanos_per_token == 1_000

    def test_cost_is_integer_and_linear(self):
        a = call_cost_nanos("GPT-4", 100, 50)
        b = call_cost_nanos("GPT-4", 23, 7)
        both = call_cost_nanos("GPT-4", 123, 57)
        assert isinstance(a, int)
        assert a + b == both

    def test_nanos_usd_round_trip(self):
        assert usd_to_nanos(0.03) == 30_000_000
        assert nanos_to_usd(30_000_000) == pytest.approx(0.03)


# ----------------------------------------------------------------------
# Per-question pricing
# ----------------------------------------------------------------------
def _hard_pool():
    return build_pools("ebay", sample_size=4).total_pool(DatasetKind.HARD)


class TestCostMeter:
    """What an endpoint bills, priced once per question by the
    runner's ``ask`` on the question's trail: every attempt's prompt,
    the answering attempt's completion, and nothing for a hit."""

    def test_bills_prompt_and_completion(self):
        question = _hard_pool().questions[0]
        with trail_scope():
            record = EvaluationRunner(trail=True).ask(
                StaticResponder("GPT-4", "Yes."), question)
        prompt = record.prompt_tokens
        assert prompt > 0 and record.completion_tokens == 1
        trail = record.trail
        assert (trail.billed_prompt_tokens,
                trail.billed_completion_tokens, trail.cost_nanos) \
            == (prompt, 1, call_cost_nanos("GPT-4", prompt, 1))

    def test_failed_attempt_still_pays_for_prompt(self):
        question = _hard_pool().questions[0]
        flaky = FaultInjectingModel(StaticResponder("GPT-4", "Yes."),
                                    seed=1, failure_rate=1.0,
                                    max_consecutive=1)
        model = RetryingModel(flaky, RetryPolicy(retries=3,
                                                 base_delay=0.0,
                                                 jitter=0.0))
        with trail_scope():
            record = EvaluationRunner(trail=True).ask(model, question)
        prompt = record.prompt_tokens
        trail = record.trail
        assert trail.attempts == 2 and flaky.faults_injected == 1
        # The failed attempt sent its prompt; only the second answered.
        assert (trail.billed_prompt_tokens,
                trail.billed_completion_tokens, trail.cost_nanos) \
            == (2 * prompt, 1,
                call_cost_nanos("GPT-4", prompt, 0)
                + call_cost_nanos("GPT-4", prompt, 1))

    def test_cache_hits_cost_zero_through_the_engine(self):
        engine = EvaluationEngine(EngineConfig(max_workers=1),
                                  cache=ResponseCache())
        runner = EvaluationRunner(engine=engine)
        model = StaticResponder("GPT-4", "Yes.")
        pool = _hard_pool()
        runner.evaluate(model, pool)
        first = engine.stats()
        runner.evaluate(model, pool)        # served from cache
        second = engine.stats()
        assert first.cost_nanos > 0
        assert second.cost_nanos == first.cost_nanos
        assert second.prompt_tokens == first.prompt_tokens
        assert second.cache_hits == first.cache_hits + len(pool)


# ----------------------------------------------------------------------
# Budget enforcement
# ----------------------------------------------------------------------
class TestBudgetGuard:
    def test_rejects_non_positive_limits(self):
        with pytest.raises(ValueError):
            BudgetGuard(max_cost_usd=0)
        with pytest.raises(ValueError):
            BudgetGuard(max_tokens=-1)
        with pytest.raises(RunError):
            RunRequest(**SMALL, max_cost_usd=-0.5)

    def test_stop_reason_transitions(self):
        guard = BudgetGuard(max_cost_usd=0.01, max_tokens=1_000)
        under = SimpleNamespace(prompt_tokens=10,
                                completion_tokens=10,
                                cost_nanos=usd_to_nanos(0.001))
        assert guard.stop_reason(under, completed_cells=1) is None
        pricey = SimpleNamespace(prompt_tokens=10,
                                 completion_tokens=10,
                                 cost_nanos=usd_to_nanos(0.02))
        stop = guard.stop_reason(pricey, completed_cells=2)
        assert stop is not None and stop.limit == "max_cost_usd"
        assert stop.completed_cells == 2
        wordy = SimpleNamespace(prompt_tokens=900,
                                completion_tokens=200,
                                cost_nanos=0)
        stop = guard.stop_reason(wordy, completed_cells=3)
        assert stop is not None and stop.limit == "max_tokens"

    def test_disabled_guard_never_stops(self):
        guard = BudgetGuard()
        assert not guard.enabled
        rich = SimpleNamespace(prompt_tokens=10**9,
                               completion_tokens=10**9,
                               cost_nanos=10**18)
        assert guard.stop_reason(rich, completed_cells=0) is None

    def test_budget_params_stamp_the_fingerprint(self):
        plain = RunRequest(**SMALL)
        capped = RunRequest(**SMALL, max_cost_usd=0.05)
        assert plain.fingerprint() != capped.fingerprint()
        decoded = RunRequest.from_dict(capped.to_dict())
        assert decoded.max_cost_usd == 0.05
        assert decoded.fingerprint() == capped.fingerprint()


class TestBudgetedRuns:
    def test_stops_at_cell_boundary_and_resumes_bit_identical(
            self, registry):
        capped = execute_run(
            RunRequest(**SMALL, max_cost_usd=0.0001),
            registry=registry)
        assert capped.budget is not None
        assert capped.budget["limit"] == "max_cost_usd"
        # Whole cells only: the stop left no partially-written cell.
        assert 0 < len(capped.cells) < 4
        state = registry.state(capped.run_id)
        assert not state.finished
        assert state.budget is not None
        summary = {s.run_id: s for s in registry.list_runs()}
        assert summary[capped.run_id].status == "budget-stopped"

        resumed = resume_run(capped.run_id, registry=registry)
        assert resumed.budget is None
        assert registry.state(capped.run_id).finished

        free = execute_run(RunRequest(**SMALL), registry=registry)
        diff = diff_runs(resumed, free)
        assert diff.identical
        assert (CostLedger.from_run(capped.run_id,
                                    registry=registry).to_dict()
                == {**CostLedger.from_run(free.run_id,
                                          registry=registry).to_dict(),
                    "run_id": capped.run_id})

    def test_budget_stop_skips_history(self, registry):
        from repro.obs import read_history
        capped = execute_run(
            RunRequest(**SMALL, max_tokens=1),
            registry=registry)
        assert capped.budget is not None
        assert all(entry.run_id != capped.run_id
                   for entry in read_history(registry))


# ----------------------------------------------------------------------
# Cross-shape determinism
# ----------------------------------------------------------------------
class TestShardedCost:
    def test_sharded_totals_bit_identical_to_single_process(
            self, registry):
        request = RunRequest(**SMALL)
        sharded = execute_run_sharded(request, 2, registry=registry,
                                      procs=0)
        single = execute_run(request, registry=registry)
        assert sharded.stats is not None and single.stats is not None
        for attr in ("prompt_tokens", "completion_tokens",
                     "cost_nanos"):
            assert (getattr(sharded.stats, attr)
                    == getattr(single.stats, attr))
        ledger_a = CostLedger.from_run(sharded.run_id,
                                       registry=registry)
        ledger_b = CostLedger.from_run(single.run_id,
                                       registry=registry)
        assert ledger_a.total_cost_nanos == ledger_b.total_cost_nanos
        assert ledger_a.total_cost_nanos > 0


class TestSequentialStats:
    def test_run_finished_stats_match_the_records(self, registry,
                                                   monkeypatch):
        """The one-worker path books, per question, one call, its
        tokens, its spend and one latency observation."""
        made = []

        class Recording(Telemetry):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(session_module, "Telemetry", Recording)
        result = execute_run(RunRequest(**SMALL), registry=registry)
        records = [record for cell in load_run(
            result.run_id, registry=registry).cells.values()
            for record in cell.records]
        stats = replay_ledger(registry.ledger_path(result.run_id)).stats
        n = len(records)
        assert n > 0
        assert stats["calls"] == stats["records"] == n
        assert stats["prompt_tokens"] == sum(
            record.prompt_tokens for record in records)
        assert stats["completion_tokens"] == sum(
            record.completion_tokens for record in records)
        assert stats["cost_nanos"] == sum(
            call_cost_nanos(record.model, record.prompt_tokens,
                            record.completion_tokens)
            for record in records)
        [telemetry] = made
        assert telemetry._latency.count == n


class WordCounting:
    """A backend with its own tokenizer: one token per word."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def generate(self, prompt: str) -> str:
        return self.inner.generate(prompt)

    def count_tokens(self, text: str) -> int:
        return len(text.split())


class TestBackendTokenizer:
    def test_records_and_stats_agree_on_every_path(self, registry):
        """A backend's ``count_tokens`` counts the records and bills
        the stats alike, sequentially, under the engine and on
        shards."""
        request = RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                             sample_size=6)

        def resolve(name):
            return WordCounting(get_model(name))

        results = [execute_run(request, registry=registry,
                               resolve_model=resolve)]
        for workers in (1, 2):
            results.append(execute_run(
                request, registry=registry, resolve_model=resolve,
                engine=EvaluationEngine(EngineConfig(
                    max_workers=workers))))
        results.append(execute_run_sharded(
            request, 2, registry=registry, procs=0,
            resolve_model=resolve))
        recorded = []
        for result in results:
            records = [record for cell in load_run(
                result.run_id, registry=registry).cells.values()
                for record in cell.records]
            assert all(record.completion_tokens
                       == len(record.response.split())
                       for record in records)
            prompt = sum(record.prompt_tokens for record in records)
            completion = sum(record.completion_tokens
                             for record in records)
            stats = result.stats
            assert (stats.prompt_tokens, stats.completion_tokens,
                    stats.cost_nanos) == (
                prompt, completion,
                call_cost_nanos("GPT-4", prompt, completion))
            ledger = CostLedger.from_run(result.run_id,
                                         registry=registry)
            assert ledger.total_cost_nanos == stats.cost_nanos
            recorded.append(records)
        assert all(records == recorded[0] for records in recorded)


# ----------------------------------------------------------------------
# Legacy ledgers (pre-cost-accounting)
# ----------------------------------------------------------------------
class TestLegacyLedger:
    def _strip_token_fields(self, registry, run_id):
        path = registry.ledger_path(run_id)
        lines = []
        for line in path.read_text().splitlines():
            event = json.loads(line)
            if event.get("event") == "record":
                event.pop("prompt_tokens", None)
                event.pop("completion_tokens", None)
            lines.append(json.dumps(event))
        path.write_text("\n".join(lines) + "\n")

    def test_old_ledger_replays_with_zero_cost(self, registry,
                                               capsys):
        result = execute_run(RunRequest(**SMALL), registry=registry)
        self._strip_token_fields(registry, result.run_id)

        replayed = load_run(result.run_id, registry=registry)
        assert replayed.cells.keys() == result.cells.keys()
        for key, cell in replayed.cells.items():
            assert cell.metrics == result.cells[key].metrics
            assert all(record.prompt_tokens == 0
                       and record.completion_tokens == 0
                       for record in cell.records)

        ledger = CostLedger.from_run(result.run_id,
                                     registry=registry)
        assert ledger.total_cost_nanos == 0

        code = main(["runs", "show", result.run_id,
                     "--runs-dir", str(registry.root)])
        assert code == 0
        assert result.run_id in capsys.readouterr().out


# ----------------------------------------------------------------------
# Alerting
# ----------------------------------------------------------------------
class TestAlertRules:
    def test_rejects_unknown_metric_op_severity(self):
        with pytest.raises(ValueError):
            AlertRule("x", "no-such-metric", ">", 1.0)
        with pytest.raises(ValueError):
            AlertRule("x", "error_rate", "!=", 1.0)
        with pytest.raises(ValueError):
            AlertRule("x", "error_rate", ">", 1.0, severity="loud")


class TestAlertEvaluator:
    def test_firing_and_resolved_transitions_once_per_episode(self):
        rule = AlertRule("errors", "error_rate", ">", 0.05)
        evaluator = AlertEvaluator(rules=(rule,), clock=lambda: 0.0)
        sick = _snapshot(faults=50)
        events = evaluator.observe(sick, now=1.0)
        assert [e.state for e in events] == ["firing"]
        assert evaluator.observe(sick, now=2.0) == []
        assert evaluator.active == [rule]
        healthy = _snapshot(faults=0)
        events = evaluator.observe(healthy, now=3.0)
        assert [e.state for e in events] == ["resolved"]
        assert evaluator.active == []

    def test_for_s_debounces_short_breaches(self):
        rule = AlertRule("slow", "p99_latency_s", ">", 1.0, for_s=5.0)
        evaluator = AlertEvaluator(rules=(rule,))
        slow = _snapshot(latency_p99_s=2.0)
        assert evaluator.observe(slow, now=0.0) == []
        assert evaluator.observe(slow, now=3.0) == []
        # Breach clears before for_s elapses: the window resets.
        assert evaluator.observe(_snapshot(latency_p99_s=0.1),
                                 now=4.0) == []
        assert evaluator.observe(slow, now=10.0) == []
        events = evaluator.observe(slow, now=16.0)
        assert [e.state for e in events] == ["firing"]

    def test_cold_start_never_pages(self):
        evaluator = AlertEvaluator()
        cold = _snapshot(questions_done=0, elapsed_s=0.0,
                         throughput=0.0, latency_p99_s=0.0,
                         cost_usd=0.0)
        assert evaluator.observe(cold, now=0.0) == []
        assert evaluator.active == []

    def test_cost_burn_rate_fires_on_expensive_runs(self):
        evaluator = AlertEvaluator()
        burning = _snapshot(elapsed_s=60.0, cost_usd=2.0)
        events = evaluator.observe(burning, now=0.0)
        assert any(e.rule.name == "cost-burn-rate"
                   and e.state == "firing" for e in events)
        banner = evaluator.banner()
        assert banner is not None and "cost-burn-rate" in banner

    def test_stall_rule_is_critical(self):
        evaluator = AlertEvaluator()
        events = evaluator.observe(_snapshot(status="stalled"),
                                   now=0.0)
        stalled = [e for e in events if e.rule.name == "run-stalled"]
        assert stalled and stalled[0].rule.severity == "critical"

    def test_assess_reports_every_rule(self):
        evaluator = AlertEvaluator()
        rows = evaluator.assess(_snapshot(faults=50))
        assert {row["name"] for row in rows} == {
            rule.name for rule in evaluator.rules}
        by_name = {row["name"]: row for row in rows}
        assert by_name["high-error-rate"]["breached"] is True


# ----------------------------------------------------------------------
# Prometheus escaping (satellite)
# ----------------------------------------------------------------------
class TestPrometheusEscaping:
    def test_escapes_backslash_quote_newline(self):
        assert (escape_label_value('a\\b"c\nd')
                == 'a\\\\b\\"c\\nd')
        assert escape_label_value("plain") == "plain"

    def test_cost_series_escape_label_values(self):
        cell = CostCell(model='M"odel\\1', taxonomy="tax\nonomy",
                        setting="zero-shot", questions=1,
                        prompt_tokens=10, completion_tokens=5,
                        cost_nanos=100)
        text = CostLedger("r-01", [cell]).to_prometheus()
        assert 'model="M\\"odel\\\\1"' in text
        assert 'taxonomy="tax\\nonomy"' in text
        assert "\n " not in text.replace("} ", "}|")


# ----------------------------------------------------------------------
# Regression gate cost check
# ----------------------------------------------------------------------
class TestCostGate:
    def test_cost_blowup_fails_the_gate(self):
        report = check_entries(_entry("a", cost_nanos=100),
                               _entry("b", cost_nanos=130),
                               Thresholds())
        failing = [c for c in report.failures
                   if c.metric == "cost_blowup_pct"]
        assert failing and not report.passed
        assert failing[0].delta == pytest.approx(30.0)

    def test_within_threshold_passes(self):
        report = check_entries(_entry("a", cost_nanos=100),
                               _entry("b", cost_nanos=110),
                               Thresholds())
        assert report.passed

    def test_zero_cost_baseline_skips_the_check(self):
        report = check_entries(_entry("a", cost_nanos=0),
                               _entry("b", cost_nanos=10**9),
                               Thresholds())
        assert all(c.metric != "cost_blowup_pct"
                   for c in report.checks)
        assert report.passed


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCostCli:
    @pytest.fixture()
    def finished_run(self, registry):
        return execute_run(RunRequest(**SMALL), registry=registry)

    def test_obs_cost_table_and_json(self, registry, finished_run,
                                     capsys):
        assert main(["obs", "cost", finished_run.run_id,
                     "--runs-dir", str(registry.root)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "cost_usd" in out

        assert main(["obs", "cost", finished_run.run_id, "--json",
                     "--runs-dir", str(registry.root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["cost_nanos"] > 0
        assert len(payload["cells"]) == len(finished_run.cells)

    def test_obs_cost_prometheus(self, registry, finished_run,
                                 capsys):
        assert main(["obs", "cost", finished_run.run_id,
                     "--prometheus",
                     "--runs-dir", str(registry.root)]) == 0
        out = capsys.readouterr().out
        assert "repro_run_cost_usd{" in out
        assert 'model="GPT-4"' in out

    def test_runs_list_and_diff_show_cost(self, registry,
                                          finished_run, capsys):
        assert main(["runs", "list",
                     "--runs-dir", str(registry.root)]) == 0
        assert "cost_usd" in capsys.readouterr().out
        assert main(["runs", "diff", finished_run.run_id,
                     finished_run.run_id,
                     "--runs-dir", str(registry.root)]) == 0
        assert "cost: $" in capsys.readouterr().out

    def test_run_budget_flag_reports_the_stop(self, registry,
                                              capsys):
        code = main(["run", "--models", "GPT-4", "GPT-3.5",
                     "--taxonomies", "ebay", "--sample", "6",
                     "--max-tokens", "1",
                     "--runs-dir", str(registry.root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "BUDGET EXHAUSTED" in out
        assert "runs resume" in out
