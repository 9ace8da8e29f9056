"""Tests for the batched engine core: batching, coalescing, AIMD,
backend pools, and the bit-identity invariant under all of them."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batching import (AdaptiveLimiter, BatchingModel,
                                   CoalescingModel, close_model_stack)
from repro.engine.cache import CachedModel
from repro.engine.config import EngineConfig, RetryPolicy
from repro.engine.middleware import FaultInjectingModel, RetryingModel
from repro.engine.pool import BackendPool
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import EngineStats, Telemetry
from repro.errors import ModelError, ModelTransientError
from repro.llm.base import (BaseChatModel, StaticResponder,
                            call_generate_batch,
                            supports_generate_batch)
from repro.obs.history import HistoryEntry
from repro.obs.trail import trail_scope

FAST_RETRY = RetryPolicy(retries=3, base_delay=0.0, jitter=0.0)


class BatchEcho(BaseChatModel):
    """Deterministic backend that records how batches arrive."""

    def __init__(self, name: str = "echo", latency_s: float = 0.0):
        super().__init__(name)
        self.latency_s = latency_s
        self.batch_sizes: list[int] = []
        self._lock = threading.Lock()

    def _respond(self, prompt: str) -> str:
        if self.latency_s:
            time.sleep(self.latency_s)
        return f"ans:{prompt}"

    def _respond_batch(self, prompts: list[str]) -> list[str]:
        with self._lock:
            self.batch_sizes.append(len(prompts))
        if self.latency_s:
            time.sleep(self.latency_s)
        return [f"ans:{prompt}" for prompt in prompts]


# ----------------------------------------------------------------------
# Protocol negotiation
# ----------------------------------------------------------------------
class TestProtocolNegotiation:
    def test_base_model_supports_batch(self):
        model = BatchEcho()
        assert supports_generate_batch(model)
        assert model.generate_batch(["a", "b"]) == ["ans:a", "ans:b"]
        assert model.prompts_served == 2

    def test_static_responder_falls_back_to_loop(self):
        model = StaticResponder("fixed", "yes")
        assert not supports_generate_batch(model)
        assert call_generate_batch(model, ["a", "b"]) == ["yes", "yes"]

    def test_batch_length_mismatch_rejected(self):
        class Lying(BaseChatModel):
            def _respond(self, prompt):
                return "x"

            def _respond_batch(self, prompts):
                return ["x"]        # wrong length on purpose

        with pytest.raises(ValueError, match="1 responses for 2"):
            call_generate_batch(Lying("liar"), ["a", "b"])

    def test_empty_prompt_rejected_in_batch(self):
        with pytest.raises(ValueError, match="non-empty"):
            BatchEcho().generate_batch(["ok", "  "])


# ----------------------------------------------------------------------
# AdaptiveLimiter
# ----------------------------------------------------------------------
class TestAdaptiveLimiter:
    def test_additive_increase_multiplicative_decrease(self):
        limiter = AdaptiveLimiter(initial=4, max_limit=16)
        for _ in range(8):
            limiter.acquire()
            limiter.release(success=True)
        grown = limiter.limit
        assert grown > 4
        assert limiter.high_water == grown
        limiter.acquire()
        limiter.release(success=False)
        assert limiter.limit <= grown // 2 + 1
        assert limiter.backoffs == 1
        # High water survives the backoff.
        assert limiter.high_water == grown

    def test_never_below_min_limit(self):
        limiter = AdaptiveLimiter(initial=2, min_limit=1)
        for _ in range(10):
            limiter.acquire()
            limiter.release(success=False)
        assert limiter.limit == 1

    def test_acquire_blocks_at_window(self):
        limiter = AdaptiveLimiter(initial=1, min_limit=1)
        limiter.acquire()
        acquired = threading.Event()

        def second() -> None:
            limiter.acquire()
            acquired.set()

        thread = threading.Thread(target=second, daemon=True)
        thread.start()
        assert not acquired.wait(0.05)
        limiter.release(success=True)
        assert acquired.wait(1.0)
        limiter.release(success=True)
        thread.join(timeout=1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveLimiter(initial=0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(backoff=1.5)


# ----------------------------------------------------------------------
# BatchingModel
# ----------------------------------------------------------------------
class TestBatchingModel:
    def test_single_call_flushes_on_linger(self):
        model = BatchEcho()
        with BatchingModel(model, batch_size=8,
                           linger_s=0.001) as batcher:
            assert batcher.generate("solo") == "ans:solo"
        assert model.batch_sizes == [1]

    def test_concurrent_calls_form_batches(self):
        model = BatchEcho(latency_s=0.002)
        telemetry = Telemetry()
        with BatchingModel(model, batch_size=8, linger_s=0.01,
                           telemetry=telemetry) as batcher:
            results: dict[int, str] = {}

            def call(i: int) -> None:
                results[i] = batcher.generate(f"p{i}")

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
        assert results == {i: f"ans:p{i}" for i in range(16)}
        assert sum(model.batch_sizes) == 16
        assert max(model.batch_sizes) <= 8
        assert max(model.batch_sizes) > 1   # batching actually happened
        assert (telemetry.snapshot().batches
                == len(model.batch_sizes))

    def test_batch_failure_fails_every_member_once(self):
        class Failing(BaseChatModel):
            def __init__(self):
                super().__init__("down")
                self.batch_calls = 0

            def _respond(self, prompt):
                raise AssertionError("unreachable")

            def _respond_batch(self, prompts):
                self.batch_calls += 1
                raise ModelTransientError("synthetic outage")

        model = Failing()
        # Only the size cut may fire: a linger far past the joins'
        # timeout cannot cut the batch before all four threads park.
        with BatchingModel(model, batch_size=4,
                           linger_s=60.0) as batcher:
            errors: list[BaseException] = []
            lock = threading.Lock()

            def call(i: int) -> None:
                try:
                    batcher.generate(f"p{i}")
                except BaseException as exc:
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
        assert len(errors) == 4
        assert all(isinstance(exc, ModelTransientError)
                   for exc in errors)
        assert model.batch_calls == 1   # one dispatch, four waiters

    def test_adaptive_limiter_backs_off_on_transient(self):
        class FlakyBatch(BatchEcho):
            def __init__(self):
                super().__init__("flaky")
                self.fail_next = True

            def _respond_batch(self, prompts):
                if self.fail_next:
                    self.fail_next = False
                    raise ModelTransientError("blip")
                return super()._respond_batch(prompts)

        limiter = AdaptiveLimiter(initial=4)
        model = FlakyBatch()
        with BatchingModel(model, batch_size=2, linger_s=0.001,
                           limiter=limiter) as batcher:
            with pytest.raises(ModelTransientError):
                batcher.generate("a")
            assert batcher.generate("b") == "ans:b"
        assert limiter.backoffs == 1
        assert limiter.limit < 4

    def test_close_fails_pending_and_rejects_new_calls(self):
        model = BatchEcho()
        batcher = BatchingModel(model, batch_size=4, linger_s=60.0)
        errors: list[BaseException] = []

        def call() -> None:
            try:
                batcher.generate("parked")
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        time.sleep(0.05)            # let the prompt park on the loop
        batcher.close()
        thread.join(timeout=5.0)
        assert len(errors) == 1
        assert isinstance(errors[0], ModelError)
        with pytest.raises(ModelError, match="closed"):
            batcher.generate("late")
        batcher.close()             # idempotent


# ----------------------------------------------------------------------
# CoalescingModel
# ----------------------------------------------------------------------
class TestCoalescingModel:
    def test_identical_inflight_prompts_share_one_call(self):
        model = BatchEcho(latency_s=0.05)
        telemetry = Telemetry()
        coalescer = CoalescingModel(model)
        results: list[str] = []
        lock = threading.Lock()

        def call() -> None:
            with trail_scope() as trail:
                response = coalescer.generate("same")
            telemetry.observe(0.0, trail)
            with lock:
                results.append(response)

        threads = [threading.Thread(target=call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert results == ["ans:same"] * 8
        assert model.prompts_served == 1
        assert telemetry.snapshot().coalesced == 7

    def test_distinct_prompts_do_not_coalesce(self):
        model = BatchEcho()
        coalescer = CoalescingModel(model)
        assert coalescer.generate("a") == "ans:a"
        assert coalescer.generate("b") == "ans:b"
        assert model.prompts_served == 2

    def test_sequential_repeats_do_not_coalesce(self):
        # The coalescer only helps *in-flight* duplicates; completed
        # calls are the response cache's domain.
        model = BatchEcho()
        coalescer = CoalescingModel(model)
        coalescer.generate("same")
        coalescer.generate("same")
        assert model.prompts_served == 2

    def test_leader_failure_propagates_to_followers(self):
        release = threading.Event()

        class Blocking(BaseChatModel):
            def _respond(self, prompt):
                release.wait(5.0)
                raise ModelError("hard failure")

        coalescer = CoalescingModel(Blocking("down"))
        errors: list[BaseException] = []
        lock = threading.Lock()

        def call() -> None:
            try:
                coalescer.generate("same")
            except BaseException as exc:
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(errors) == 3
        assert all(isinstance(exc, ModelError) for exc in errors)


# ----------------------------------------------------------------------
# BackendPool
# ----------------------------------------------------------------------
class FailingBackend:
    name = "GPT-4"

    def __init__(self, error=ModelTransientError):
        self.calls = 0
        self.error = error

    def generate(self, prompt: str) -> str:
        self.calls += 1
        raise self.error("down")


class TestBackendPool:
    def test_presents_primary_name(self):
        pool = BackendPool([StaticResponder("GPT-4", "yes"),
                            StaticResponder("replica", "yes")])
        assert pool.name == "GPT-4"
        assert pool.generate("q") == "yes"

    def test_fallback_on_failure(self):
        primary = FailingBackend()
        pool = BackendPool([primary, StaticResponder("GPT-4", "ok")])
        assert pool.generate("q") == "ok"
        assert primary.calls == 1

    def test_all_backends_failing_raises(self):
        pool = BackendPool([FailingBackend(), FailingBackend()])
        with pytest.raises(ModelError, match="every backend failed"):
            pool.generate("q")

    def test_health_cooldown_skips_failing_backend(self):
        clock_now = [0.0]
        primary = FailingBackend()
        pool = BackendPool([primary, StaticResponder("GPT-4", "ok")],
                           max_failures=2, cooldown_s=30.0,
                           clock=lambda: clock_now[0])
        pool.generate("a")
        pool.generate("b")
        assert primary.calls == 2       # two strikes -> cooldown
        pool.generate("c")
        assert primary.calls == 2       # sat out while cooling down
        clock_now[0] = 31.0
        pool.generate("d")
        assert primary.calls == 3       # probed again after cooldown

    def test_success_resets_consecutive_failures(self):
        class Recovering:
            name = "GPT-4"

            def __init__(self):
                self.calls = 0

            def generate(self, prompt: str) -> str:
                self.calls += 1
                if self.calls % 2 == 1:
                    raise ModelTransientError("blip")
                return "ok"

        backend = Recovering()
        pool = BackendPool([backend, StaticResponder("GPT-4", "ok")],
                           max_failures=2)
        for _ in range(6):      # fail, fall back, succeed, repeat
            assert pool.generate("q") == "ok"
        assert backend.calls == 6   # never benched: streak never hits 2

    def test_hedge_fires_on_slow_primary(self):
        class Slow:
            name = "GPT-4"

            def generate(self, prompt: str) -> str:
                time.sleep(0.5)
                return "ok"

        telemetry = Telemetry()
        pool = BackendPool([Slow(), StaticResponder("GPT-4", "ok")],
                           hedge_delay_s=0.01)
        try:
            started = time.perf_counter()
            with trail_scope() as trail:
                assert pool.generate("q") == "ok"
            elapsed = time.perf_counter() - started
        finally:
            pool.close()
        telemetry.observe(elapsed, trail)
        assert elapsed < 0.4            # won by the hedge, not the primary
        assert telemetry.snapshot().hedged == 1

    def test_hedged_failure_falls_through(self):
        telemetry = Telemetry()
        pool = BackendPool(
            [FailingBackend(), StaticResponder("GPT-4", "ok")],
            hedge_delay_s=5.0)
        try:
            with trail_scope() as trail:
                assert pool.generate("q") == "ok"
        finally:
            pool.close()
        telemetry.observe(0.0, trail)
        # The primary failed fast, so the fallback launched without
        # waiting out the hedge delay (and no hedge was recorded).
        assert telemetry.snapshot().hedged == 0

    def test_generate_batch_delegates_with_fallback(self):
        class FailingBatch:
            name = "GPT-4"

            def generate(self, prompt: str) -> str:
                raise ModelTransientError("down")

        replica = BatchEcho(name="GPT-4")
        pool = BackendPool([FailingBatch(), replica])
        assert pool.generate_batch(["a", "b"]) == ["ans:a", "ans:b"]
        assert replica.batch_sizes == [2]

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendPool([])
        with pytest.raises(ValueError):
            BackendPool([StaticResponder("m", "x")], hedge_delay_s=-1)


# ----------------------------------------------------------------------
# Stack composition and engine integration
# ----------------------------------------------------------------------
class TestStackComposition:
    def test_full_batched_stack_composes_in_order(self):
        engine = EvaluationEngine(
            EngineConfig(max_workers=2, retry=FAST_RETRY,
                         batch_size=4, coalesce=True, adaptive=True))
        model = BatchEcho()
        wrapped = engine.wrap(model)
        try:
            # Documented order: coalesce(cache(retry(batch(model)))).
            assert isinstance(wrapped, CoalescingModel)
            assert isinstance(wrapped.inner, CachedModel)
            assert isinstance(wrapped.inner.inner, RetryingModel)
            batcher = wrapped.inner.inner.inner
            assert isinstance(batcher, BatchingModel)
            assert batcher.inner is model
            assert isinstance(batcher.limiter, AdaptiveLimiter)
            assert wrapped.generate("hi") == "ans:hi"
        finally:
            close_model_stack(wrapped)

    def test_defaults_add_no_batching_layers(self):
        engine = EvaluationEngine(EngineConfig(max_workers=2,
                                               retry=FAST_RETRY))
        wrapped = engine.wrap(BatchEcho())
        assert isinstance(wrapped, CachedModel)
        assert isinstance(wrapped.inner, RetryingModel)

    def test_counting_model_counts_batch_per_prompt(self):
        engine = EvaluationEngine(
            EngineConfig(max_workers=8, batch_size=4, cache=False,
                         retry=None))
        model = BatchEcho(latency_s=0.002)
        results = engine.run(model, [f"p{i}" for i in range(16)],
                             lambda m, item: m.generate(item))
        assert results == [f"ans:p{i}" for i in range(16)]
        stats = engine.stats()
        assert stats.calls == 16        # calls = prompts, not batches
        assert stats.batches == len(model.batch_sizes)
        assert sum(model.batch_sizes) == 16


class TestEngineParity:
    ITEMS = [f"q{i % 5}" for i in range(40)]

    def sequential(self, items):
        model = BatchEcho()
        return [f"ans:{item}" for item in items]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    @pytest.mark.parametrize("coalesce", [False, True])
    def test_batched_engine_matches_sequential(self, workers,
                                               batch_size, coalesce):
        engine = EvaluationEngine(
            EngineConfig(max_workers=workers, batch_size=batch_size,
                         batch_linger_s=0.001, coalesce=coalesce,
                         cache=False, retry=None))
        seen: list[int] = []
        lock = threading.Lock()

        def on_result(index: int, result: str) -> None:
            with lock:
                seen.append(index)

        results = engine.run(BatchEcho(), self.ITEMS,
                             lambda m, item: m.generate(item),
                             on_result=on_result)
        assert results == self.sequential(self.ITEMS)
        assert sorted(seen) == list(range(len(self.ITEMS)))

    def test_coalesce_plus_cache_serves_unique_prompts_once(self):
        engine = EvaluationEngine(
            EngineConfig(max_workers=8, batch_size=4,
                         batch_linger_s=0.001, coalesce=True,
                         cache=True, retry=None))
        model = BatchEcho(latency_s=0.002)
        items = [f"q{i % 7}" for i in range(70)]
        results = engine.run(model, items,
                             lambda m, item: m.generate(item))
        assert results == [f"ans:{item}" for item in items]
        # The zero-extra-calls invariant: in-flight duplicates
        # coalesce, finished duplicates hit the cache — the backend
        # sees each unique prompt exactly once.
        assert engine.stats().calls == 7
        assert model.prompts_served == 7

    @pytest.mark.parametrize("seed", [0, 7])
    def test_parity_under_injected_faults(self, seed):
        items = [f"q{i % 6}" for i in range(30)]
        engine = EvaluationEngine(
            EngineConfig(max_workers=8, batch_size=3,
                         batch_linger_s=0.001, coalesce=True,
                         cache=False, retry=FAST_RETRY))
        flaky = FaultInjectingModel(BatchEcho(), seed=seed,
                                    failure_rate=0.7,
                                    max_consecutive=2)
        results = engine.run(flaky, items,
                             lambda m, item: m.generate(item))
        assert results == [f"ans:{item}" for item in items]
        assert flaky.faults_injected > 0

    def test_hedged_pool_inside_engine_is_bit_identical(self):
        replicas = [BatchEcho(name="GPT-4"),
                    BatchEcho(name="GPT-4", latency_s=0.001)]
        pool = BackendPool(replicas, hedge_delay_s=0.005)
        engine = EvaluationEngine(
            EngineConfig(max_workers=8, batch_size=4,
                         batch_linger_s=0.001, coalesce=True,
                         cache=False, retry=None))
        try:
            results = engine.run(pool, self.ITEMS,
                                 lambda m, item: m.generate(item))
        finally:
            pool.close()
        assert results == self.sequential(self.ITEMS)

    @settings(deadline=None, max_examples=25)
    @given(
        items=st.lists(st.text(alphabet="abcd", min_size=1,
                               max_size=3), min_size=1, max_size=32),
        batch_size=st.integers(min_value=1, max_value=5),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_property_batched_coalesced_identical_to_sequential(
            self, items, batch_size, workers):
        """For arbitrary duplicate densities, batch sizes and worker
        counts, the batched+coalesced engine is indistinguishable from
        the sequential loop, and ``on_result`` fires exactly once per
        index."""
        engine = EvaluationEngine(
            EngineConfig(max_workers=workers, batch_size=batch_size,
                         batch_linger_s=0.001, coalesce=True,
                         cache=False, retry=None))
        seen: list[int] = []
        lock = threading.Lock()

        def on_result(index: int, result: str) -> None:
            with lock:
                seen.append(index)

        results = engine.run(BatchEcho(), items,
                             lambda m, item: m.generate(item),
                             on_result=on_result)
        assert results == [f"ans:{item}" for item in items]
        assert sorted(seen) == list(range(len(items)))


# ----------------------------------------------------------------------
# Stats, history and exporter compatibility
# ----------------------------------------------------------------------
class TestStatsCompatibility:
    OLD_PAYLOAD = {
        "records": 10, "calls": 8, "retries": 1, "faults": 1,
        "timeouts": 0, "cache_hits": 2, "cache_misses": 8,
        "wall_time_s": 1.5, "busy_time_s": 4.0, "workers": 4,
    }

    def test_old_run_finished_payload_decodes(self):
        stats = EngineStats.from_dict(self.OLD_PAYLOAD)
        assert stats.batches == 0
        assert stats.coalesced == 0
        assert stats.hedged == 0
        assert stats.adaptive_high_water == 0

    def test_roundtrip_preserves_new_fields(self):
        stats = EngineStats.from_dict(self.OLD_PAYLOAD)
        enriched = EngineStats.from_dict(
            {**stats.to_dict(), "batches": 3, "coalesced": 5,
             "hedged": 1, "adaptive_high_water": 12})
        assert enriched.batches == 3
        assert enriched.coalesced == 5
        assert enriched.hedged == 1
        assert enriched.adaptive_high_water == 12
        assert (EngineStats.from_dict(enriched.to_dict())
                == enriched)

    def test_as_row_surfaces_new_counters(self):
        stats = EngineStats.from_dict(
            {**self.OLD_PAYLOAD, "batches": 3, "coalesced": 5,
             "hedged": 1, "adaptive_high_water": 12})
        row = stats.as_row()
        assert row["batches"] == 3
        assert row["coalesced"] == 5
        assert row["hedged"] == 1
        assert row["adaptive_hw"] == 12

    def test_old_history_entry_decodes(self):
        entry = HistoryEntry.from_dict({
            "run_id": "r1", "finished_at": 1.0, "cells": 2,
            "questions": 100, "accuracy": 0.9,
        })
        assert entry.batches == 0
        assert entry.coalesced == 0
        assert entry.hedged == 0

    def test_history_entry_roundtrips_new_counters(self):
        entry = HistoryEntry.from_dict({
            "run_id": "r1", "finished_at": 1.0, "cells": 2,
            "questions": 100, "accuracy": 0.9, "batches": 4,
            "coalesced": 9, "hedged": 2,
        })
        payload = entry.to_dict()
        assert payload["batches"] == 4
        assert payload["coalesced"] == 9
        assert payload["hedged"] == 2
        assert HistoryEntry.from_dict(payload) == entry

    def test_history_entry_folds_stats_counters(self):
        from repro.core.metrics import Metrics
        from repro.obs.history import entry_from_result
        stats = EngineStats.from_dict(
            {**self.OLD_PAYLOAD, "batches": 3, "coalesced": 5,
             "hedged": 1})
        entry = entry_from_result(
            "r1", "hard",
            {"cell": Metrics(accuracy=0.9, miss_rate=0.0, n=10)},
            stats=stats)
        assert entry.batches == 3
        assert entry.coalesced == 5
        assert entry.hedged == 1

