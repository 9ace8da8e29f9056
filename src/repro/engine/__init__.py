"""Execution engine: concurrent, fault-tolerant evaluation at scale.

The production layer between the experiment drivers and the
``ChatModel`` backends.  Six cooperating pieces:

* ``scheduler`` — :class:`EvaluationEngine`, every question's one
  execution path: in order on the calling thread at one worker, else
  a bounded thread pool that preserves deterministic record ordering
  (metrics bit-identical to the one-worker run at any worker count,
  batch size, or coalescing setting);
* ``middleware`` — composable resilience wrappers (retry with
  deterministic exponential backoff, per-call timeout, token-bucket
  rate limiting, deterministic fault injection for tests);
* ``batching`` — :class:`BatchingModel` groups concurrent prompts
  into ``generate_batch`` calls under a linger deadline, forming and
  sending each batch on the calling worker threads themselves,
  :class:`CoalescingModel` makes identical in-flight prompts share
  one call, and :class:`AdaptiveLimiter` applies AIMD concurrency
  control over batch dispatch;
* ``pool`` — :class:`BackendPool`, response-equivalent backends with
  health tracking, deterministic fallback, and hedged dispatch;
* ``cache`` — a content-addressed response cache keyed on
  ``(model, prompt)`` with JSON persistence, so reruns only pay for
  cold cells;
* ``telemetry`` — the run's counter book: each question's latency,
  calls, retries, cache traffic, coalescing, hedging and spend folded
  from the question's provenance trail, plus batches, wall time and
  worker utilization, aggregated into :class:`EngineStats`.

Quickstart::

    >>> from repro import TaxoGlimpse, DatasetKind
    >>> from repro.engine import EngineConfig, EvaluationEngine
    >>> engine = EvaluationEngine(EngineConfig(max_workers=8))
    >>> bench = TaxoGlimpse(sample_size=40, engine=engine)
    >>> result = bench.run("GPT-4", "ebay", DatasetKind.HARD)
    >>> engine.stats().records == result.metrics.n
    True
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.engine.batching": ("AdaptiveLimiter", "BatchingModel",
                              "CoalescingModel", "close_model_stack"),
    "repro.engine.cache": ("CachedModel", "ResponseCache"),
    "repro.engine.config": ("EngineConfig", "RetryPolicy"),
    "repro.engine.middleware": ("FaultInjectingModel", "RateLimitedModel",
                                "RetryingModel", "TimeoutModel", "TokenBucket",
                                "backoff_delay"),
    "repro.engine.pool": ("BackendPool",),
    "repro.engine.scheduler": ("EvaluationEngine",),
    "repro.engine.telemetry": ("EngineStats", "Telemetry"),
})
