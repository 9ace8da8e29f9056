"""Resilience middleware: composable ChatModel wrappers.

Each wrapper takes an inner ``ChatModel`` and is itself a
``ChatModel``, so policies stack like function composition.  The
canonical order (outermost first), assembled by
``scheduler.EvaluationEngine.wrap``::

    CachedModel(RetryingModel(RateLimitedModel(TimeoutModel(inner))))

The order matters: the cache sits outside retrying so a hit costs
nothing at all, retrying sits outside the rate limiter so every
re-attempt pays for a token (a retry storm cannot exceed the
endpoint's budget), and the timeout hugs the backend so it measures
the call alone, not time spent queueing for a token.

All time sources and sleep functions are injectable, so the tests
drive the policies with fake clocks and zero real sleeping.  Jitter is
deterministic (hash of the prompt and attempt number, via
``repro.llm.rng``), keeping reruns exactly reproducible.
"""

from __future__ import annotations

import logging
import threading
import time
from collections.abc import Callable

from repro.engine.config import RetryPolicy
from repro.errors import (ModelError, ModelTimeoutError,
                          ModelTransientError)
from repro.llm.base import ChatModel
from repro.llm.rng import unit_float
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.obs.trail import current_trail

Clock = Callable[[], float]
Sleeper = Callable[[float], None]

_log = logging.getLogger("repro.engine.middleware")


def backoff_delay(policy: RetryPolicy, attempt: int,
                  prompt: str = "") -> float:
    """Seconds to sleep before re-attempt ``attempt`` (0-based).

    Pure function: exponential step capped at ``max_delay``, plus a
    deterministic jitter fraction drawn from ``(prompt, attempt)``.
    """
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    step = min(policy.base_delay * (2.0 ** attempt), policy.max_delay)
    if policy.jitter == 0.0:
        return step
    fraction = unit_float("backoff", prompt, attempt) * policy.jitter
    return step * (1.0 + fraction)


class RetryingModel:
    """Retries transient failures with exponential backoff.

    Catches :class:`ModelTransientError` (including timeouts), sleeps
    one backoff step and re-issues the identical prompt.  After
    ``policy.retries`` failed re-attempts the last transient error is
    wrapped in a plain :class:`ModelError` — callers see a hard
    failure, not a retryable one.  The question's trail gets the
    attempt count and each fault's class, from which the run's
    ``calls``, ``retries``, ``faults`` and ``timeouts`` are folded.
    """

    def __init__(self, inner: ChatModel, policy: RetryPolicy,
                 sleeper: Sleeper = time.sleep,
                 tracer: Tracer | NullTracer = NULL_TRACER):
        self.inner = inner
        self.name = inner.name
        self.policy = policy
        self._sleep = sleeper
        self._tracer = tracer

    def generate(self, prompt: str) -> str:
        # A first-try success is one plain call: its trail keeps its
        # default of one attempt.
        try:
            return self.inner.generate(prompt)
        except ModelTransientError as fault:
            last = fault
        trail = current_trail()
        for attempt in range(1, self.policy.retries + 1):
            self._note(trail, last)
            delay = backoff_delay(self.policy, attempt - 1, prompt)
            _log.info("retry model=%s attempt=%d/%d fault=%s "
                      "delay=%.4fs", self.name, attempt,
                      self.policy.retries, type(last).__name__, delay)
            with self._tracer.span("retry", model=self.name,
                                   attempt=attempt,
                                   fault=type(last).__name__):
                self._sleep(delay)
                try:
                    response = self.inner.generate(prompt)
                except ModelTransientError as fault:
                    last = fault
                    continue
            if trail is not None:
                trail.attempts = attempt + 1
            return response
        self._note(trail, last)
        if trail is not None:
            trail.attempts = self.policy.retries + 1
        raise ModelError(
            f"{self.name}: gave up after {self.policy.retries + 1} "
            f"attempts ({last})") from last

    @staticmethod
    def _note(trail, fault: ModelTransientError) -> None:
        if trail is not None:
            trail.note_error(type(fault).__name__,
                             injected=getattr(fault, "injected", False))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RetryingModel({self.inner!r})"


class TimeoutModel:
    """Enforces a per-call time budget on the wrapped backend.

    The budget is checked cooperatively: the call runs to completion
    and :class:`ModelTimeoutError` is raised if it took longer than
    ``timeout`` seconds (a Python thread cannot be interrupted
    mid-call, and spawning a watcher thread per call would swamp the
    worker pool).  The slow response is discarded, the wrapping
    :class:`RetryingModel` re-attempts, and the question's trail names
    the timeout — which is exactly the externally observable behaviour of
    a client-side request timeout against a deterministic backend.
    """

    def __init__(self, inner: ChatModel, timeout: float,
                 clock: Clock = time.monotonic):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.inner = inner
        self.name = inner.name
        self.timeout = timeout
        self._clock = clock

    def generate(self, prompt: str) -> str:
        started = self._clock()
        response = self.inner.generate(prompt)
        elapsed = self._clock() - started
        if elapsed > self.timeout:
            trail = current_trail()
            if trail is not None:
                trail.timeout_lost_s += elapsed
            raise ModelTimeoutError(elapsed, self.timeout)
        return response

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeoutModel({self.inner!r}, {self.timeout})"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s up to ``capacity``.

    ``acquire`` blocks (via the injectable sleeper) until a token is
    available, so callers across all worker threads collectively never
    exceed the sustained rate, while bursts up to ``capacity`` pass
    without waiting.
    """

    def __init__(self, rate: float, capacity: int = 8,
                 clock: Clock = time.monotonic,
                 sleeper: Sleeper = time.sleep):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.rate = rate
        self.capacity = capacity
        self._clock = clock
        self._sleep = sleeper
        self._tokens = float(capacity)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(float(self.capacity),
                           self._tokens
                           + (now - self._updated) * self.rate)
        self._updated = now

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled view, for tests)."""
        with self._lock:
            self._refill()
            return self._tokens

    def acquire(self) -> float:
        """Take one token, sleeping until it exists; returns the wait."""
        waited = 0.0
        while True:
            with self._lock:
                self._refill()
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return waited
                shortfall = (1.0 - self._tokens) / self.rate
            self._sleep(shortfall)
            waited += shortfall


class RateLimitedModel:
    """ChatModel wrapper metering calls through a token bucket."""

    def __init__(self, inner: ChatModel, bucket: TokenBucket):
        self.inner = inner
        self.name = inner.name
        self.bucket = bucket

    def generate(self, prompt: str) -> str:
        waited = self.bucket.acquire()
        if waited:
            trail = current_trail()
            if trail is not None:
                trail.rate_wait_s += waited
        return self.inner.generate(prompt)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RateLimitedModel({self.inner!r})"


class FaultInjectingModel:
    """Deterministically flaky ChatModel for resilience tests.

    Simulates an unreliable endpoint: a call fails with
    :class:`ModelTransientError` when a hash draw over
    ``(seed, prompt, attempt)`` lands under ``failure_rate`` — but
    never more than ``max_consecutive`` times in a row per prompt, so
    a retry budget of at least ``max_consecutive`` always succeeds
    eventually.  Failure order is a pure function of the seed and each
    prompt's own attempt counter, independent of thread interleaving:
    any worker count sees the same faults and the same final
    responses.
    """

    def __init__(self, inner: ChatModel, seed: int = 0,
                 failure_rate: float = 0.3, max_consecutive: int = 2):
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if max_consecutive < 0:
            raise ValueError("max_consecutive must be non-negative")
        self.inner = inner
        self.name = inner.name
        self.seed = seed
        self.failure_rate = failure_rate
        self.max_consecutive = max_consecutive
        self.faults_injected = 0
        self._streak: dict[str, int] = {}
        self._lock = threading.Lock()

    def generate(self, prompt: str) -> str:
        with self._lock:
            streak = self._streak.get(prompt, 0)
            fail = (streak < self.max_consecutive
                    and unit_float("fault", self.seed, prompt, streak)
                    < self.failure_rate)
            if fail:
                self._streak[prompt] = streak + 1
                self.faults_injected += 1
            else:
                self._streak[prompt] = 0
        if fail:
            _log.info("fault-injected model=%s streak=%d "
                      "prompt_hash=%#06x", self.name, streak + 1,
                      hash(prompt) & 0xffff)
            exc = ModelTransientError(
                f"{self.name}: injected transient fault "
                f"#{streak + 1} for prompt hash "
                f"{hash(prompt) & 0xffff:#06x}")
            # Marks the fault as synthetic so the provenance trail can
            # distinguish injected chaos from genuine backend faults.
            exc.injected = True
            raise exc
        return self.inner.generate(prompt)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultInjectingModel({self.inner!r}, "
                f"seed={self.seed}, rate={self.failure_rate})")
