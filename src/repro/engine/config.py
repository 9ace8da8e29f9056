"""Configuration for the execution engine.

One frozen dataclass holds every knob — worker count, in-flight
window, retry policy, per-call timeout, rate limit, cache, batching —
so an engine can be described, logged, and rebuilt from a handful of
CLI flags.  All defaults reproduce the sequential runner's behaviour
exactly (one worker, no timeout, no rate limit) with caching on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Attempt ``k`` (0-based) sleeps ``base_delay * 2**k`` capped at
    ``max_delay``, plus a jitter fraction in ``[0, jitter)`` of that
    step drawn deterministically from the prompt — identical reruns
    back off identically, while concurrent workers hitting the same
    endpoint spread out instead of thundering in lockstep.
    """

    retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Every engine knob in one place.

    Args:
        max_workers: Worker threads; 1 reproduces the sequential path.
        max_in_flight: Bound on submitted-but-unfinished calls (0
            means ``2 * max_workers``, widened to ``2 * batch_size``
            under batching so batches can actually fill), so a huge
            pool never floods the executor queue.
        retry: Backoff policy for transient faults; ``None`` disables
            retrying entirely.
        timeout: Per-call time budget in seconds (``None`` = none).
        rate: Sustained calls/second across all workers (``None`` =
            unlimited); ``burst`` is the token-bucket capacity.
        cache: Whether responses are memoized on (model, prompt).
        batch_size: Maximum prompts grouped into one backend
            ``generate_batch`` call (1 disables the batching layer
            and reproduces the per-prompt path exactly).
        batch_linger_s: How long a batch's first prompt waits for
            company before the batch is sent short — the classic
            dynamic-batching deadline.  Bounds the latency a prompt
            can pay for batching; 0 sends each batch with only the
            prompts already waiting to join it.
        coalesce: Whether identical *in-flight* prompts share one
            backend call (distinct from the response cache, which
            only serves calls that already completed).
        adaptive: AIMD concurrency control over batch dispatch —
            additive increase per successful batch, multiplicative
            backoff on transient faults and timeouts.

    Every question is booked from its provenance trail
    (:mod:`repro.obs.trail`), which the engine always collects;
    whether a record carries it is the runner's ``trail`` flag.
    """

    max_workers: int = 1
    max_in_flight: int = 0
    retry: RetryPolicy | None = RetryPolicy()
    timeout: float | None = None
    rate: float | None = None
    burst: int = 8
    cache: bool = True
    batch_size: int = 1
    batch_linger_s: float = 0.002
    coalesce: bool = False
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.max_in_flight < 0:
            raise ValueError("max_in_flight must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.batch_linger_s < 0:
            raise ValueError("batch_linger_s must be non-negative")

    @property
    def in_flight_window(self) -> int:
        """Effective bound on concurrently submitted calls.

        Under batching the default widens to twice the batch size:
        batches fill from submitted-but-unfinished items, so a window
        narrower than ``batch_size`` could never produce a full
        batch.
        """
        if self.max_in_flight:
            return max(self.max_in_flight, self.max_workers)
        return max(2 * self.max_workers, 2 * self.batch_size)
