"""The engine scheduler: bounded fan-out with deterministic ordering.

``EvaluationEngine`` sits between the experiment drivers and the
``ChatModel`` backends.  Given a model and a list of work items it (1)
wraps the model in the configured middleware stack (coalesce → cache →
retry → rate limit → timeout → batch, see ``engine.middleware`` and
``engine.batching``), then (2) fans the per-item calls out over a
``ThreadPoolExecutor`` with a bounded in-flight window, collecting
results **by submission index** — the result list is byte-for-byte the
one the sequential loop produces, so every metric downstream is
bit-identical regardless of worker count, batch size, coalescing or
hedging setting.

Threads (not processes) are the right pool here: real endpoint calls
are network-bound and the simulated backends release the GIL whenever
they sleep, so wall-clock scales with workers while all state stays
shared (one cache, one telemetry, one rate limiter).  Under batching
the pool is *wider* than ``max_workers``: a batch fills from prompts
whose worker threads wait in the batcher for their batch to be cut and
served, and its leader dispatches it on its own worker thread, so the
thread count must cover the in-flight window — waiting threads cost
almost nothing, and the backend concurrency is governed by the batch
dispatch (and the AIMD limiter), not the pool width.

Each item runs under its own provenance trail
(:func:`repro.obs.trail.trail_scope`), on which every layer notes what
it did; when the item finishes, its counters are folded from that
trail (:meth:`Telemetry.observe`).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import (FIRST_COMPLETED, ThreadPoolExecutor,
                                wait)
from typing import Any, TypeVar

from repro.engine.batching import (AdaptiveLimiter, BatchingModel,
                                   CoalescingModel, close_model_stack)
from repro.engine.cache import CachedModel, ResponseCache
from repro.engine.config import EngineConfig
from repro.engine.middleware import (Clock, RateLimitedModel,
                                     RetryingModel, TimeoutModel,
                                     TokenBucket)
from repro.engine.telemetry import EngineStats, Telemetry
from repro.llm.base import (ChatModel, call_generate_batch,
                            supports_generate_batch)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.obs.trail import call_site, trail_scope

R = TypeVar("R")


class _ModelCallSpans:
    """Innermost wrapper: wraps each call that reaches the backend in
    a ``model_call`` span (the backend alone — no queueing, no
    retries, no cache)."""

    def __init__(self, inner: ChatModel,
                 tracer: "Tracer | NullTracer" = NULL_TRACER):
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        # Re-export the backend's batch entry point so the batcher
        # can still find it through this wrapper — and ONLY then:
        # advertising generate_batch over a per-prompt backend would
        # turn the batcher's per-prompt fault isolation into
        # all-or-nothing batch failures.
        if supports_generate_batch(inner):
            def generate_batch(
                    prompts: Sequence[str]) -> list[str]:
                with self._tracer.span("model_call", model=self.name,
                                       n=len(prompts)):
                    return call_generate_batch(self.inner, prompts)
            self.generate_batch = generate_batch

    def generate(self, prompt: str) -> str:
        # call_site() carries the question uid / cell the runner set on
        # this thread, making the span joinable to its ledger record.
        with self._tracer.span("model_call", model=self.name,
                               **call_site()):
            return self.inner.generate(prompt)


class EvaluationEngine:
    """Concurrent, fault-tolerant executor for evaluation workloads.

    One engine owns one response cache and one telemetry collector and
    can drive any number of runs; reusing the engine across runs is
    what makes reruns warm.  Pass it to
    :class:`repro.core.runner.EvaluationRunner` (or
    ``TaxoGlimpse(engine=...)``) and every ``evaluate`` call flows
    through it.

    Args:
        config: Every knob (workers, retries, timeout, rate, cache).
        cache: An explicit :class:`ResponseCache` (e.g. loaded from
            disk); default builds one per ``config.cache``.
        clock: Injectable time source for telemetry (tests).
        tracer: Span recorder threaded into the middleware stack
            (``model_call``/``retry``/``cache_lookup`` spans); the
            default :data:`repro.obs.NULL_TRACER` costs nothing.
    """

    def __init__(self, config: EngineConfig | None = None,
                 cache: ResponseCache | None = None,
                 clock: Clock = time.perf_counter,
                 tracer: "Tracer | NullTracer" = NULL_TRACER):
        self.config = config if config is not None else EngineConfig()
        self.telemetry = Telemetry()
        self.tracer = tracer
        self._clock = clock
        if cache is not None:
            self.cache: ResponseCache | None = cache
        elif self.config.cache:
            self.cache = ResponseCache()
        else:
            self.cache = None

    # ------------------------------------------------------------------
    def wrap(self, model: ChatModel) -> ChatModel:
        """Apply the middleware stack (documented order) to a model.

        Outermost to innermost: coalesce → cache → retry → rate
        limit → timeout → batch → ``model_call`` spans → backend.
        No layer but the batcher books a counter: each notes what it
        did on the question's trail, and the runner's ``ask`` prices
        the question from it (``prompt_tokens × attempts`` plus the
        answer's completion tokens; nothing for a cache hit or a
        coalesced follower).  The coalescer sits *outside* the cache
        so that when a leader returns, its response is already
        cached — a duplicate can never slip between the leader
        finishing and the cache learning the value, which is what
        makes "one backend call per unique prompt" exact rather than
        probabilistic.  It also sits outside retry, so followers
        receive the leader's post-retry result (a transient fault is
        absorbed once, not once per waiter).  The batcher sits
        *inside* timeout so a call's budget covers linger plus batch
        service — configure ``timeout`` comfortably above
        ``batch_linger_s``.
        """
        wrapped: ChatModel = _ModelCallSpans(model, tracer=self.tracer)
        if self.config.batch_size > 1:
            limiter = (AdaptiveLimiter() if self.config.adaptive
                       else None)
            wrapped = BatchingModel(
                wrapped, self.config.batch_size,
                linger_s=self.config.batch_linger_s,
                telemetry=self.telemetry, tracer=self.tracer,
                limiter=limiter)
        if self.config.timeout is not None:
            wrapped = TimeoutModel(wrapped, self.config.timeout)
        if self.config.rate is not None:
            wrapped = RateLimitedModel(
                wrapped, TokenBucket(self.config.rate,
                                     self.config.burst))
        if self.config.retry is not None:
            wrapped = RetryingModel(wrapped, self.config.retry,
                                    tracer=self.tracer)
        if self.cache is not None:
            wrapped = CachedModel(wrapped, self.cache,
                                  tracer=self.tracer)
        if self.config.coalesce:
            wrapped = CoalescingModel(wrapped, tracer=self.tracer)
        return wrapped

    def run(self, model: ChatModel, items: Sequence[Any],
            fn: Callable[[ChatModel, Any], R],
            on_result: Callable[[int, R], None] | None = None
            ) -> list[R]:
        """``[fn(wrapped_model, item) for item in items]``, faster.

        Results come back in ``items`` order no matter which worker
        finished first; an exception in any call cancels the not-yet-
        started remainder and propagates to the caller.

        ``on_result(index, result)`` is invoked once per completed item
        as it finishes — in submission order on the sequential path, in
        completion order under fan-out, but always from the collecting
        thread, never a worker.  The run ledger hangs its streaming
        record sink here: after a crash, every item whose callback
        fired is on disk even though ``run`` never returned.
        """
        wrapped = self.wrap(model)
        work = list(items)
        workers = max(1, min(self.config.max_workers, len(work)))
        if self.config.batch_size > 1 and len(work) > 1:
            # Batches fill from *concurrent* generate() callers, so
            # the pool must span the in-flight window — waiting
            # threads are cheap, and backend concurrency is governed
            # by batch dispatch, not pool width.
            workers = max(workers, min(self.config.in_flight_window,
                                       len(work)))
        started = self._clock()
        try:
            if workers == 1:
                results = []
                for index, item in enumerate(work):
                    result = self._timed(fn, wrapped, item)
                    if on_result is not None:
                        on_result(index, result)
                    results.append(result)
                return results
            return self._fan_out(wrapped, work, fn, workers, on_result)
        finally:
            close_model_stack(wrapped)
            self.telemetry.add(wall_time_s=self._clock() - started,
                               workers=workers)

    def stats(self) -> EngineStats:
        """Aggregated telemetry over every run so far.  A run session
        lends the engine its attempt's telemetry, so inside one this
        is the attempt's alone; its counts join the engine's own when
        the session ends."""
        return self.telemetry.snapshot()

    def reset_stats(self) -> None:
        """Zero telemetry (cache contents are kept)."""
        self.telemetry.reset()

    # ------------------------------------------------------------------
    def _timed(self, fn: Callable[[ChatModel, Any], R],
               model: ChatModel, item: Any) -> R:
        # One provenance trail per item, installed on the worker
        # thread where the whole middleware stack runs: the layers
        # note on it, the runner prices the item from it, and the
        # item's counters are folded from it here.
        started = self._clock()
        with trail_scope() as trail:
            try:
                return fn(model, item)
            finally:
                self.telemetry.observe(self._clock() - started, trail)

    def _fan_out(self, model: ChatModel, work: list[Any],
                 fn: Callable[[ChatModel, Any], R],
                 workers: int,
                 on_result: Callable[[int, R], None] | None = None
                 ) -> list[R]:
        results: list[R] = [None] * len(work)  # type: ignore[list-item]
        remaining = iter(range(len(work)))
        pending: dict[Any, int] = {}
        with ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="repro-engine") as pool:

            def submit_next() -> None:
                for index in remaining:
                    pending[pool.submit(self._timed, fn, model,
                                        work[index])] = index
                    return

            for _ in range(self.config.in_flight_window):
                submit_next()
            try:
                while pending:
                    done, _ = wait(pending,
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        index = pending.pop(future)
                        results[index] = future.result()
                        if on_result is not None:
                            on_result(index, results[index])
                        submit_next()
            except BaseException:
                # One shutdown call beats a per-future cancel loop:
                # it also drops queued-but-unstarted work the loop
                # could race against, so a poisoned item aborts the
                # run promptly instead of draining the whole queue.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EvaluationEngine(workers="
                f"{self.config.max_workers}, cache="
                f"{self.cache is not None})")
