"""Dynamic batching, in-flight coalescing and AIMD concurrency.

The asynchronous half of the engine core.  Three cooperating pieces,
each a plain object the scheduler composes into the middleware stack:

* :class:`BatchingModel` — a ChatModel wrapper that groups concurrent
  ``generate`` calls into ``generate_batch`` backend calls.  Worker
  threads park their prompt on a background asyncio event loop; the
  loop flushes a batch when ``batch_size`` prompts are pending or a
  ``linger_s`` deadline passes, whichever comes first.  Responses are
  routed back to each waiting thread by position, so the wrapper is
  externally indistinguishable from per-prompt ``generate`` — which
  is what keeps the scheduler's by-submission-index collection (and
  therefore every metric) bit-identical to the sequential loop.
* :class:`CoalescingModel` — identical *in-flight* prompts share one
  underlying call: the first caller (the leader) issues it, followers
  block until the leader's result (or exception) lands.  This is
  distinct from the response cache, which only helps calls that
  already *completed*; the coalescer closes the window where N
  workers race the same cold prompt into N backend calls.
* :class:`AdaptiveLimiter` — an AIMD gate on concurrent batch
  dispatches: additive increase after each successful batch,
  multiplicative backoff on :class:`ModelTransientError` (timeouts
  included), never below ``min_limit``.  The high-water mark is
  exported through :class:`repro.engine.telemetry.EngineStats`.

Determinism: batching and coalescing only change *which backend call*
produces a response, never the response itself — backends are
deterministic per prompt, and the coalescer shares a result only
between byte-identical prompts against the same wrapped stack.  The
middleware order proof extends to batches as follows: the coalescer
sits *outside* the cache, so a leader's response is written to the
cache before any follower (or later duplicate) is released — "one
backend call per unique prompt" is exact, with no window between a
flight resolving and the cache learning its value; the coalescer sits
outside retry (followers wait for the leader's *post-retry* result,
so a transient fault still costs exactly one retry sequence), retry
outside the rate limiter (every re-attempt pays a token), and the
timeout outside the batcher (a call's budget covers its linger plus
its batch's service time — configure ``timeout > linger``, which the
config's defaults satisfy by three orders of magnitude).
"""

from __future__ import annotations

import asyncio
import logging
import threading
from dataclasses import dataclass, field

from repro.engine.telemetry import Telemetry
from repro.errors import ModelError, ModelTransientError
from repro.llm.base import (ChatModel, async_batch_fn,
                            call_generate_batch,
                            supports_generate_batch)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.obs.trail import TrailContext, current_trail, prompt_key

_log = logging.getLogger("repro.engine.batching")


class AdaptiveLimiter:
    """AIMD gate on concurrent dispatches.

    ``acquire`` blocks while ``in_flight >= limit``; ``release``
    grows the limit additively (``+ increase / limit`` per success,
    the classic one-per-window shape) or shrinks it multiplicatively
    (``* backoff``) when the dispatch failed transiently.  The
    ``high_water`` mark records the largest integer limit the window
    ever reached.
    """

    def __init__(self, initial: int = 4, min_limit: int = 1,
                 max_limit: int = 64, increase: float = 1.0,
                 backoff: float = 0.5):
        if not 1 <= min_limit <= initial <= max_limit:
            raise ValueError("need min_limit <= initial <= max_limit")
        if increase <= 0:
            raise ValueError("increase must be positive")
        if not 0.0 < backoff < 1.0:
            raise ValueError("backoff must be in (0, 1)")
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase = increase
        self.backoff = backoff
        self._limit = float(initial)
        self._in_flight = 0
        self._cond = threading.Condition()
        self.high_water = initial
        self.backoffs = 0

    @property
    def limit(self) -> int:
        """Current integer window size."""
        with self._cond:
            return int(self._limit)

    def acquire(self) -> None:
        """Take one dispatch slot, blocking until the window allows."""
        with self._cond:
            self._cond.wait_for(
                lambda: self._in_flight < int(self._limit))
            self._in_flight += 1

    def release(self, success: bool = True) -> None:
        """Return a slot and adapt the window."""
        with self._cond:
            self._in_flight = max(0, self._in_flight - 1)
            if success:
                self._limit = min(
                    float(self.max_limit),
                    self._limit + self.increase / max(1.0, self._limit))
            else:
                self._limit = max(float(self.min_limit),
                                  self._limit * self.backoff)
                self.backoffs += 1
            self.high_water = max(self.high_water, int(self._limit))
            self._cond.notify_all()


@dataclass
class _Flight:
    """One in-flight leader call that followers wait on."""

    done: threading.Event = field(default_factory=threading.Event)
    response: str | None = None
    error: BaseException | None = None

    def resolve(self, response: str | None,
                error: BaseException | None) -> None:
        self.response = response
        self.error = error
        self.done.set()

    def wait(self) -> str:
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.response  # type: ignore[return-value]


class CoalescingModel:
    """ChatModel wrapper sharing one call between identical in-flight
    prompts.

    The first thread to ask a prompt becomes its leader and issues
    the wrapped call; every thread asking the same prompt before the
    leader finishes waits on the leader's flight instead of issuing
    its own.  Exceptions propagate to every waiter — the leader's
    call already went through the retry middleware below, so a shared
    failure is a post-retry hard failure for all of them.
    """

    def __init__(self, inner: ChatModel,
                 telemetry: Telemetry | None = None,
                 tracer: "Tracer | NullTracer" = NULL_TRACER):
        self.inner = inner
        self.name = inner.name
        self._telemetry = telemetry
        self._tracer = tracer
        self._flights: dict[str, _Flight] = {}
        self._lock = threading.Lock()

    def generate(self, prompt: str) -> str:
        with self._lock:
            flight = self._flights.get(prompt)
            if flight is None:
                flight = _Flight()
                self._flights[prompt] = flight
                leader = True
            else:
                leader = False
        trail = current_trail()
        if trail is not None:
            trail.coalesced = "leader" if leader else "follower"
            # Same key for leader and all followers of one prompt —
            # the join handle for "who actually made my call".
            trail.leader_key = prompt_key(prompt)
        if not leader:
            if self._telemetry is not None:
                self._telemetry.add(coalesced=1)
            with self._tracer.span("coalesced_wait", model=self.name):
                return flight.wait()
        try:
            response = self.inner.generate(prompt)
        except BaseException as exc:
            flight.resolve(None, exc)
            raise
        finally:
            with self._lock:
                self._flights.pop(prompt, None)
        flight.resolve(response, None)
        return response

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoalescingModel({self.inner!r})"


@dataclass
class _Pending:
    """One parked prompt awaiting its batch."""

    prompt: str
    future: "asyncio.Future | None" = None
    #: The parked worker thread's trail, handed across explicitly so
    #: the loop-thread dispatcher can stamp batch placement onto it
    #: (the worker is blocked on ``future`` while we write, so the
    #: hand-off is race-free).
    trail: TrailContext | None = None


class BatchingModel:
    """ChatModel wrapper grouping concurrent calls into batches.

    A background thread runs an asyncio event loop (started lazily on
    the first call, joined by :meth:`close`).  ``generate`` hands its
    prompt to the loop and blocks; the loop accumulates prompts and
    flushes a batch when ``batch_size`` are pending or the oldest has
    lingered ``linger_s`` seconds.  Dispatch negotiates the backend
    protocol: a coroutine ``agenerate_batch`` is awaited on the loop
    itself, anything else runs in an executor thread through
    :func:`repro.llm.base.call_generate_batch` (one
    ``generate_batch`` call when the backend has it, a per-prompt
    loop when it does not), so the loop never blocks on inference.

    A failed dispatch fails every prompt of that batch — per-prompt
    recovery is the retry middleware's job, one layer up, and each
    re-attempt re-enters the batcher independently.
    """

    def __init__(self, inner: ChatModel, batch_size: int,
                 linger_s: float = 0.002,
                 telemetry: Telemetry | None = None,
                 tracer: "Tracer | NullTracer" = NULL_TRACER,
                 limiter: AdaptiveLimiter | None = None):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if linger_s < 0:
            raise ValueError("linger_s must be non-negative")
        self.inner = inner
        self.name = inner.name
        self.batch_size = batch_size
        self.linger_s = linger_s
        self.limiter = limiter
        self._telemetry = telemetry
        self._tracer = tracer
        self._agenerate_batch = async_batch_fn(inner)
        self._pending: list[_Pending] = []      # loop-thread only
        self._flush_handle = None               # loop-thread only
        self._batch_seq = 0                     # loop-thread only
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._start_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Event-loop lifecycle
    # ------------------------------------------------------------------
    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is not None:
            return self._loop
        with self._start_lock:
            if self._loop is not None:
                return self._loop
            if self._closed:
                raise ModelError(f"{self.name}: batcher is closed")
            loop = asyncio.new_event_loop()
            ready = threading.Event()

            def run() -> None:
                asyncio.set_event_loop(loop)
                ready.set()
                loop.run_forever()
                # Drain callbacks scheduled before stop() landed.
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

            thread = threading.Thread(target=run, name="repro-batcher",
                                      daemon=True)
            thread.start()
            ready.wait()
            self._thread = thread
            self._loop = loop
            return loop

    def close(self) -> None:
        """Stop the dispatcher loop (idempotent; fails stragglers)."""
        with self._start_lock:
            self._closed = True
            loop, thread = self._loop, self._thread
            self._loop = self._thread = None
        if loop is None:
            return

        def shutdown() -> None:
            for item in self._pending:
                if item.future is not None and not item.future.done():
                    item.future.set_exception(ModelError(
                        f"{self.name}: batcher closed with the "
                        f"prompt still pending"))
            self._pending.clear()
            loop.stop()

        loop.call_soon_threadsafe(shutdown)
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "BatchingModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The ChatModel face (called from worker threads)
    # ------------------------------------------------------------------
    def generate(self, prompt: str) -> str:
        loop = self._ensure_loop()
        # The ambient trail is thread-local to this worker thread, so
        # it must cross into the loop thread by hand.
        future = asyncio.run_coroutine_threadsafe(
            self._park(prompt, current_trail()), loop)
        return future.result()

    async def _park(self, prompt: str,
                    trail: TrailContext | None = None) -> str:
        item = _Pending(prompt=prompt, trail=trail)
        item.future = asyncio.get_running_loop().create_future()
        self._pending.append(item)
        if len(self._pending) >= self.batch_size:
            self._flush(cut="size")
        elif self._flush_handle is None:
            self._flush_handle = asyncio.get_running_loop().call_later(
                self.linger_s, self._flush)
        return await item.future

    def _flush(self, cut: str = "linger") -> None:
        """Cut one batch off the pending queue and dispatch it."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._pending:
            return
        batch = self._pending[:self.batch_size]
        del self._pending[:self.batch_size]
        if self._pending:
            # Leftovers start a fresh linger window immediately.
            self._flush_handle = asyncio.get_running_loop().call_later(
                self.linger_s, self._flush)
        self._batch_seq += 1
        batch_id = self._batch_seq
        for item in batch:
            if item.trail is not None:
                item.trail.batch = batch_id
                item.trail.batch_size = len(batch)
                item.trail.batch_cut = cut
        asyncio.ensure_future(self._dispatch(batch, batch_id))

    async def _dispatch(self, batch: list[_Pending],
                        batch_id: int = 0) -> None:
        """Serve one batch, settling each member's future.

        A backend with a real batch entry point (``agenerate_batch``
        or ``generate_batch``) is all-or-nothing: one call, and a
        fault fails every member — that is what a shared round trip
        means.  A per-prompt backend keeps per-prompt fault isolation:
        the batcher fans the prompts over the executor concurrently
        (that *is* its win for such backends) and a fault only fails
        its own prompt, so one poisoned prompt cannot burn its
        batchmates' retry budgets.
        """
        prompts = [item.prompt for item in batch]
        loop = asyncio.get_running_loop()
        if self.limiter is not None:
            await loop.run_in_executor(None, self.limiter.acquire)
        transient = False
        try:
            with self._tracer.span("batch", model=self.name,
                                   size=len(prompts), seq=batch_id):
                if self._agenerate_batch is not None:
                    outcomes, transient = await self._shared(
                        self._agenerate_batch(prompts), prompts)
                elif supports_generate_batch(self.inner):
                    outcomes, transient = await self._shared(
                        loop.run_in_executor(
                            None, call_generate_batch, self.inner,
                            prompts), prompts)
                else:
                    outcomes, transient = await self._per_prompt(
                        loop, prompts)
            for item, outcome in zip(batch, outcomes):
                if item.future.done():
                    continue
                if isinstance(outcome, BaseException):
                    item.future.set_exception(outcome)
                else:
                    item.future.set_result(outcome)
        finally:
            if self.limiter is not None:
                self.limiter.release(success=not transient)
                if self._telemetry is not None:
                    self._telemetry.add(
                        adaptive_high_water=int(self.limiter.limit))

    async def _shared(self, call, prompts: list[str]
                      ) -> tuple[list, bool]:
        """One real batch call; a fault fails every member."""
        try:
            responses = list(await call)
            if len(responses) != len(prompts):
                raise ModelError(
                    f"{self.name}: batch returned {len(responses)} "
                    f"responses for {len(prompts)} prompts")
        except BaseException as exc:
            _log.info("batch-failed model=%s size=%d fault=%s",
                      self.name, len(prompts), type(exc).__name__)
            return ([exc] * len(prompts),
                    isinstance(exc, ModelTransientError))
        if self._telemetry is not None:
            self._telemetry.add(batches=1)
        return responses, False

    async def _per_prompt(self, loop, prompts: list[str]
                          ) -> tuple[list, bool]:
        """Concurrent per-prompt calls with per-prompt faults."""
        outcomes = await asyncio.gather(
            *[loop.run_in_executor(None, self.inner.generate, prompt)
              for prompt in prompts],
            return_exceptions=True)
        transient = any(isinstance(outcome, ModelTransientError)
                        for outcome in outcomes)
        if self._telemetry is not None:
            self._telemetry.add(batches=1)
        return list(outcomes), transient

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BatchingModel({self.inner!r}, "
                f"batch_size={self.batch_size})")


def close_model_stack(model: ChatModel) -> None:
    """Close every closeable layer of a wrapped middleware stack.

    Walks the ``.inner`` chain calling ``close()`` where it exists —
    how the scheduler tears down the batching dispatcher's event loop
    after a run.
    """
    layer = model
    seen = 0
    while layer is not None and seen < 32:
        closer = getattr(layer, "close", None)
        if callable(closer):
            closer()
        layer = getattr(layer, "inner", None)
        seen += 1
