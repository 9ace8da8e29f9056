"""Multi-backend pools: health tracking, fallback and hedging.

A :class:`BackendPool` groups *response-equivalent* backends — N
deployments of the same model behind different endpoints — into one
``ChatModel``.  Because every member returns the same text for the
same prompt, which member serves a request can never change a record:
the pool only changes availability and tail latency, which is what
keeps the engine's bit-identity contract intact under fallback and
hedging.

Dispatch is deterministic: backends are tried in index order,
restricted to the ones currently healthy (a backend that failed
``max_failures`` consecutive calls sits out a ``cooldown_s`` window;
if everything is unhealthy the full list is used rather than
deadlocking).  Two escalation mechanisms:

* **Fallback** — a backend that raises :class:`ModelError` is marked
  against and the next candidate is tried; only when every candidate
  failed does the last error propagate.
* **Hedging** — with ``hedge_delay_s`` set, a call that has not
  completed within the delay launches a duplicate on the next
  candidate and the first successful response wins.  The loser is
  abandoned (its response is discarded), trading duplicate backend
  work for p99 latency — the classic tail-at-scale trade.  The
  question's trail notes the hedge, and the run's ``hedged`` count
  is folded from it.

Each backend can carry its own token bucket (``rate``/``burst``), so
a pool can meter per-endpoint quotas independently, and the pool
advertises ``generate_batch`` by delegating a whole batch to the
first healthy candidate (batch hedging is deliberately not attempted:
a duplicated batch doubles N calls, not one).
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, \
    ThreadPoolExecutor, wait
from collections.abc import Callable, Sequence

from repro.engine.middleware import TokenBucket
from repro.errors import ModelError
from repro.llm.base import ChatModel, call_generate_batch
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.obs.trail import current_trail

_log = logging.getLogger("repro.engine.pool")

Clock = Callable[[], float]


class _Health:
    """Consecutive-failure tracker for one backend."""

    __slots__ = ("consecutive", "down_until")

    def __init__(self) -> None:
        self.consecutive = 0
        self.down_until = 0.0


class BackendPool:
    """Response-equivalent backends behind one ChatModel face.

    The pool's ``name`` defaults to the first backend's, so cache
    keys, ledger records and metrics are identical to running that
    backend alone — the equivalence contract made structural.
    """

    def __init__(self, backends: Sequence[ChatModel],
                 hedge_delay_s: float | None = None,
                 max_failures: int = 3, cooldown_s: float = 30.0,
                 rate: float | None = None, burst: int = 8,
                 name: str | None = None,
                 tracer: "Tracer | NullTracer" = NULL_TRACER,
                 clock: Clock = time.monotonic):
        backends = list(backends)
        if not backends:
            raise ValueError("a BackendPool needs >= 1 backend")
        if hedge_delay_s is not None and hedge_delay_s < 0:
            raise ValueError("hedge_delay_s must be non-negative")
        if max_failures < 1:
            raise ValueError("max_failures must be at least 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.backends = backends
        self.name = name if name is not None else backends[0].name
        self.hedge_delay_s = hedge_delay_s
        self.max_failures = max_failures
        self.cooldown_s = cooldown_s
        self._buckets = ([TokenBucket(rate, burst) for _ in backends]
                         if rate is not None else None)
        self._tracer = tracer
        self._clock = clock
        self._health = [_Health() for _ in backends]
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Health bookkeeping
    # ------------------------------------------------------------------
    def healthy_indices(self) -> list[int]:
        """Candidate backends in deterministic (index) order."""
        now = self._clock()
        with self._lock:
            healthy = [index for index, health
                       in enumerate(self._health)
                       if health.down_until <= now]
        # An all-down pool serves with every backend rather than
        # refusing: cooldown is a hint, not a death sentence.
        return healthy if healthy else list(range(len(self.backends)))

    def _record_outcome(self, index: int, ok: bool) -> None:
        with self._lock:
            health = self._health[index]
            if ok:
                health.consecutive = 0
                health.down_until = 0.0
                return
            health.consecutive += 1
            if health.consecutive >= self.max_failures:
                health.down_until = self._clock() + self.cooldown_s
                _log.info("backend-cooldown pool=%s index=%d "
                          "failures=%d cooldown=%.1fs", self.name,
                          index, health.consecutive, self.cooldown_s)

    def _call(self, index: int, prompt: str) -> str:
        if self._buckets is not None:
            self._buckets[index].acquire()
        try:
            response = self.backends[index].generate(prompt)
        except ModelError:
            self._record_outcome(index, ok=False)
            raise
        self._record_outcome(index, ok=True)
        return response

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def generate(self, prompt: str) -> str:
        order = self.healthy_indices()
        if self.hedge_delay_s is None or len(order) < 2:
            return self._fallback(order, prompt)
        return self._hedged(order, prompt)

    def generate_batch(self, prompts: Sequence[str]) -> list[str]:
        """Delegate a whole batch, with fallback but no hedging."""
        order = self.healthy_indices()
        last: ModelError | None = None
        for index in order:
            try:
                if self._buckets is not None:
                    self._buckets[index].acquire()
                responses = call_generate_batch(
                    self.backends[index], prompts)
            except ModelError as exc:
                self._record_outcome(index, ok=False)
                last = exc
                continue
            self._record_outcome(index, ok=True)
            return responses
        raise ModelError(
            f"{self.name}: every backend failed the batch "
            f"({last})") from last

    def _fallback(self, order: list[int], prompt: str) -> str:
        trail = current_trail()
        last: ModelError | None = None
        for position, index in enumerate(order):
            try:
                response = self._call(index, prompt)
            except ModelError as exc:
                last = exc
                if trail is not None:
                    trail.fallbacks.append(index)
                if position + 1 < len(order):
                    _log.info("backend-fallback pool=%s from=%d "
                              "to=%d fault=%s", self.name, index,
                              order[position + 1],
                              type(exc).__name__)
                continue
            if trail is not None:
                trail.replica = index
            return response
        raise ModelError(
            f"{self.name}: every backend failed ({last})") from last

    def _hedged(self, order: list[int], prompt: str) -> str:
        """Primary call, duplicated onto the next candidate if slow.

        First successful response wins; a candidate that fails hands
        off to the next one.  Because members are response-equivalent
        the winner's identity never shows in the output.
        """
        executor = self._ensure_executor()
        trail = current_trail()
        pending: dict[Future, int] = {}
        hedges: set[Future] = set()
        next_up = iter(order)
        errors: list[ModelError] = []

        def launch() -> "Future | None":
            for index in next_up:
                future = executor.submit(self._call, index, prompt)
                pending[future] = index
                return future
            return None

        launch()
        timeout: float | None = self.hedge_delay_s
        while pending:
            done, _ = wait(pending, timeout=timeout,
                           return_when=FIRST_COMPLETED)
            if not done:                    # hedge deadline passed
                hedge = launch()
                if hedge is not None:
                    hedges.add(hedge)
                    if trail is not None:
                        trail.hedged = True
                    with self._tracer.span(
                            "hedge", model=self.name,
                            delay_s=self.hedge_delay_s):
                        pass
                timeout = None   # at most one hedge per request
                continue
            for future in done:
                index = pending.pop(future)
                try:
                    response = future.result()
                except ModelError as exc:
                    errors.append(exc)
                    if trail is not None:
                        trail.fallbacks.append(index)
                    launch()
                    continue
                if trail is not None:
                    trail.replica = index
                    trail.hedge_won = future in hedges
                return response
            timeout = None
        last = errors[-1] if errors else None
        raise ModelError(
            f"{self.name}: every backend failed ({last})") from last

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=2 * len(self.backends),
                    thread_name_prefix="repro-hedge")
            return self._executor

    def close(self) -> None:
        """Shut the hedging executor down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BackendPool({self.name!r}, "
                f"n={len(self.backends)}, "
                f"hedge={self.hedge_delay_s})")
