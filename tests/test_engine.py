"""Tests for the execution engine (scheduler, middleware, cache)."""

from __future__ import annotations

import threading

import pytest

from repro.core.runner import EvaluationRunner
from repro.engine.cache import CachedModel, ResponseCache
from repro.engine.config import EngineConfig, RetryPolicy
from repro.engine.middleware import (FaultInjectingModel,
                                     RateLimitedModel, RetryingModel,
                                     TimeoutModel, TokenBucket,
                                     backoff_delay)
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import EngineStats, Telemetry
from repro.errors import (ModelError, ModelTimeoutError,
                          ModelTransientError)
from repro.llm.base import BaseChatModel
from repro.llm.registry import get_model
from repro.obs.trail import Trail, trail_scope
from repro.questions.model import DatasetKind
from repro.questions.pools import build_pools
from repro.runs.driver import evaluate_request
from repro.runs.request import RunRequest

#: Zero-sleep policy for tests (no real backoff waiting).
FAST_RETRY = RetryPolicy(retries=3, base_delay=0.0, jitter=0.0)


class EchoModel(BaseChatModel):
    """Deterministic test backend: echoes a tag of the prompt."""

    def __init__(self, name: str = "echo"):
        super().__init__(name)

    def _respond(self, prompt: str) -> str:
        return f"echo:{len(prompt)}"


class FlakyModel:
    """Always raises a transient error (exhaustion tests)."""

    name = "flaky"

    def __init__(self):
        self.attempts = 0

    def generate(self, prompt: str) -> str:
        self.attempts += 1
        raise ModelTransientError("synthetic outage")


class FakeClock:
    """Manually advanced monotonic clock for time-based middleware."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def pool():
    return build_pools("ebay", sample_size=15).total_pool(
        DatasetKind.HARD)


# ----------------------------------------------------------------------
# Parity: engine output is bit-identical to the sequential runner
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_engine_matches_sequential(self, pool, workers):
        model = get_model("GPT-4")
        sequential = EvaluationRunner(keep_records=True).evaluate(
            model, pool)
        engine = EvaluationEngine(EngineConfig(max_workers=workers))
        parallel = EvaluationRunner(
            keep_records=True, engine=engine).evaluate(model, pool)
        assert parallel.metrics == sequential.metrics
        assert parallel.records == sequential.records

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_parity_under_injected_faults(self, pool, workers, seed):
        """Eventually-successful transient faults never change metrics."""
        model = get_model("Llama-2-7B")
        sequential = EvaluationRunner(keep_records=True).evaluate(
            model, pool)
        flaky = FaultInjectingModel(model, seed=seed,
                                    failure_rate=0.7,
                                    max_consecutive=2)
        engine = EvaluationEngine(
            EngineConfig(max_workers=workers, retry=FAST_RETRY))
        parallel = EvaluationRunner(
            keep_records=True, engine=engine).evaluate(flaky, pool)
        assert parallel.metrics == sequential.metrics
        assert parallel.records == sequential.records
        assert flaky.faults_injected > 0
        assert engine.stats().faults == flaky.faults_injected

    def test_matrix_parity(self, pool):
        request = RunRequest(models=("GPT-4", "Flan-T5-3B"),
                             taxonomy_keys=("ebay",), sample_size=15)
        sequential = evaluate_request(request).matrix()
        engine = EvaluationEngine(EngineConfig(max_workers=4))
        parallel = evaluate_request(request, engine).matrix()
        assert parallel == sequential
        assert engine.stats().records == 2 * len(pool)

    def test_worker_exceptions_propagate(self):
        class Exploding:
            name = "boom"

            def generate(self, prompt: str) -> str:
                raise ValueError("not transient")

        engine = EvaluationEngine(EngineConfig(max_workers=4))
        with pytest.raises(ValueError, match="not transient"):
            engine.run(Exploding(), list(range(32)),
                       lambda model, item: model.generate("x"))

    def test_poisoned_first_item_aborts_promptly(self):
        """A failure at index 0 must not strand queued-but-unstarted
        work: the pool shuts down with its queue cancelled, so only
        the already-running in-flight window can still execute."""
        executed: list[int] = []
        lock = threading.Lock()

        def fn(_model, item: int) -> int:
            with lock:
                executed.append(item)
            if item == 0:
                raise ValueError("poisoned")
            import time
            time.sleep(0.05)        # others are slow, not failing
            return item

        engine = EvaluationEngine(
            EngineConfig(max_workers=8, retry=None, cache=False))
        import time
        started = time.perf_counter()
        with pytest.raises(ValueError, match="poisoned"):
            engine.run(EchoModel(), list(range(64)), fn)
        elapsed = time.perf_counter() - started
        # Sequential drain of 64 slow items would take >= 3 seconds;
        # a prompt abort only waits out the in-flight window.
        assert elapsed < 1.5
        assert len(executed) < 64


# ----------------------------------------------------------------------
# Middleware units
# ----------------------------------------------------------------------
class TestBackoff:
    def test_schedule_grows_exponentially_and_caps(self):
        policy = RetryPolicy(retries=5, base_delay=0.1, max_delay=0.5,
                             jitter=0.0)
        delays = [backoff_delay(policy, attempt)
                  for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        first = backoff_delay(policy, 2, "some prompt")
        assert first == backoff_delay(policy, 2, "some prompt")
        step = 0.1 * 4
        assert step <= first < step * 1.5
        assert first != backoff_delay(policy, 2, "another prompt")

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff_delay(RetryPolicy(), -1)

    def test_retry_sleeps_the_schedule(self):
        sleeps: list[float] = []
        model = RetryingModel(FlakyModel(),
                              RetryPolicy(retries=3, base_delay=0.1,
                                          max_delay=1.0, jitter=0.0),
                              sleeper=sleeps.append)
        with pytest.raises(ModelError):
            model.generate("prompt")
        assert sleeps == [0.1, 0.2, 0.4]


class TestRetrying:
    def test_exhaustion_raises_hard_model_error(self):
        flaky = FlakyModel()
        model = RetryingModel(flaky, FAST_RETRY)
        with pytest.raises(ModelError) as excinfo:
            model.generate("prompt")
        assert not isinstance(excinfo.value, ModelTransientError)
        assert flaky.attempts == FAST_RETRY.retries + 1
        assert isinstance(excinfo.value.__cause__,
                          ModelTransientError)

    def test_recovers_after_transient_faults(self):
        inner = FaultInjectingModel(EchoModel(), seed=1,
                                    failure_rate=1.0,
                                    max_consecutive=2)
        model = RetryingModel(inner, FAST_RETRY)
        with trail_scope() as trail:
            assert model.generate("hello").startswith("echo:")
        # The book folds the question's trail.
        telemetry = Telemetry()
        telemetry.observe(0.0, trail)
        stats = telemetry.snapshot()
        assert stats.faults == 2
        assert stats.retries == 2
        assert stats.calls == 3


class TestTimeout:
    def test_slow_call_raises_timeout(self):
        clock = FakeClock()

        class Slow:
            name = "slow"

            def generate(self, prompt: str) -> str:
                clock.sleep(2.0)
                return "late"

        model = TimeoutModel(Slow(), timeout=1.0, clock=clock)
        with pytest.raises(ModelTimeoutError) as excinfo:
            model.generate("prompt")
        assert excinfo.value.elapsed == pytest.approx(2.0)
        assert excinfo.value.timeout == 1.0
        assert isinstance(excinfo.value, ModelTransientError)

    def test_fast_call_passes_through(self):
        model = TimeoutModel(EchoModel(), timeout=10.0,
                             clock=FakeClock())
        assert model.generate("hi") == "echo:2"


class TestTokenBucket:
    def test_burst_then_metered(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=4, clock=clock,
                             sleeper=clock.sleep)
        for _ in range(4):
            assert bucket.acquire() == 0.0
        assert bucket.tokens == pytest.approx(0.0)
        # Fifth call must wait for one token: (1 - 0) / 2 = 0.5s.
        assert bucket.acquire() == pytest.approx(0.5)
        assert clock.now == pytest.approx(0.5)

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=3, clock=clock,
                             sleeper=clock.sleep)
        for _ in range(3):
            bucket.acquire()
        clock.sleep(100.0)
        assert bucket.tokens == pytest.approx(3.0)

    def test_rate_limited_model_consumes_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=2, clock=clock,
                             sleeper=clock.sleep)
        model = RateLimitedModel(EchoModel(), bucket)
        for _ in range(3):
            model.generate("prompt")
        # Two burst tokens were free; the third call waited 1/rate.
        assert clock.now == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestResponseCache:
    def test_keying_includes_model_name(self):
        cache = ResponseCache()
        cache.put("m1", "p", "r1")
        cache.put("m2", "p", "r2")
        assert cache.get("m1", "p") == "r1"
        assert cache.get("m2", "p") == "r2"

    def test_persistence_round_trip(self, tmp_path):
        cache = ResponseCache()
        cache.put("GPT-4", "Is a poodle a dog?", "Yes.")
        cache.put("GPT-4", "Is a dog a poodle?", "No.")
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = ResponseCache.load(path)
        assert len(loaded) == 2
        assert loaded.to_dict() == cache.to_dict()
        assert loaded.get("GPT-4", "Is a poodle a dog?") == "Yes."

    def test_malformed_payload_raises_model_error(self):
        with pytest.raises(ModelError):
            ResponseCache.from_dict({"nope": []})
        with pytest.raises(ModelError):
            ResponseCache.from_dict({"entries": [{"model": "m"}]})

    def test_cached_model_serves_warm_prompts(self):
        inner = EchoModel()
        model = CachedModel(inner, ResponseCache())
        assert model.generate("abc") == model.generate("abc")
        assert inner.prompts_served == 1

    def test_warm_engine_rerun_issues_zero_calls(self, pool):
        model = get_model("GPT-4")
        engine = EvaluationEngine(EngineConfig(max_workers=2))
        runner = EvaluationRunner(engine=engine)
        runner.evaluate(model, pool)
        cold_calls = engine.stats().calls
        runner.evaluate(model, pool)
        assert engine.stats().calls == cold_calls
        assert engine.stats().cache_hits == len(pool)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_stats_properties(self):
        stats = EngineStats(records=10, calls=8, retries=2, faults=2,
                            timeouts=1, cache_hits=2, cache_misses=8,
                            wall_time_s=2.0, busy_time_s=4.0,
                            workers=4)
        assert stats.mean_latency_s == pytest.approx(0.4)
        assert stats.utilization == pytest.approx(0.5)
        assert stats.cache_hit_rate == pytest.approx(0.2)
        assert stats.throughput == pytest.approx(5.0)
        row = stats.as_row()
        assert row["records"] == 10
        assert row["utilization"] == "0.500"

    def test_empty_stats_do_not_divide_by_zero(self):
        stats = Telemetry().snapshot()
        assert stats.mean_latency_s == 0.0
        assert stats.utilization == 0.0
        assert stats.cache_hit_rate == 0.0
        assert stats.throughput == 0.0

    def test_reset_zeroes_counters(self):
        telemetry = Telemetry()
        telemetry.observe(1.0, Trail())
        telemetry.add(wall_time_s=1.0)
        assert telemetry.snapshot().calls == 1
        telemetry.reset()
        assert telemetry.snapshot().calls == 0
        assert telemetry.snapshot().records == 0


# ----------------------------------------------------------------------
# Thread safety of the base-model counter
# ----------------------------------------------------------------------
class TestCounterThreadSafety:
    def test_prompts_served_exact_under_contention(self):
        model = EchoModel()
        per_thread = 200

        def hammer() -> None:
            for _ in range(per_thread):
                model.generate("prompt")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert model.prompts_served == 8 * per_thread


# ----------------------------------------------------------------------
# Scalability experiment integration
# ----------------------------------------------------------------------
class TestHarnessThroughput:
    def test_rows_report_engine_telemetry(self):
        from repro.experiments.scalability import \
            harness_throughput_rows

        rows = harness_throughput_rows(worker_counts=(1, 2),
                                       sample_size=10)
        assert len(rows) == 2
        assert all(row["records"] == row["n"] for row in rows)
        assert [row["workers"] for row in rows] == [1, 2]
        assert all("utilization" in row for row in rows)


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(max_workers=0)
        with pytest.raises(ValueError):
            EngineConfig(timeout=0.0)
        with pytest.raises(ValueError):
            EngineConfig(rate=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_in_flight_window_defaults_to_twice_workers(self):
        assert EngineConfig(max_workers=4).in_flight_window == 8
        assert EngineConfig(max_workers=4,
                            max_in_flight=32).in_flight_window == 32
        # Never narrower than the worker pool itself.
        assert EngineConfig(max_workers=8,
                            max_in_flight=2).in_flight_window == 8

    def test_full_stack_composes(self):
        engine = EvaluationEngine(
            EngineConfig(max_workers=2, timeout=30.0, rate=1000.0,
                         retry=FAST_RETRY))
        wrapped = engine.wrap(EchoModel())
        # Documented order:
        # cache(retry(rate(timeout(model_call spans(model))))).
        assert isinstance(wrapped, CachedModel)
        assert isinstance(wrapped.inner, RetryingModel)
        assert isinstance(wrapped.inner.inner, RateLimitedModel)
        assert isinstance(wrapped.inner.inner.inner, TimeoutModel)
        assert wrapped.generate("hi") == "echo:2"
