"""Dynamic batching, in-flight coalescing and AIMD concurrency.

The concurrent half of the engine core.  Three cooperating pieces,
each a plain object the scheduler composes into the middleware stack:

* :class:`BatchingModel` — a ChatModel wrapper that groups concurrent
  ``generate`` calls into ``generate_batch`` backend calls.  A batch
  forms on the callers' own threads under one lock: its first caller
  leads it, cuts it when ``batch_size`` prompts have joined or a
  ``linger_s`` deadline passes, whichever comes first, and dispatches
  it on its own thread.  Each member gets back the response at its
  own position, so the wrapper is externally indistinguishable from
  per-prompt ``generate`` — which is what keeps the scheduler's
  by-submission-index collection (and therefore every metric)
  bit-identical to the in-order one-worker loop.
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

import logging
import threading
from dataclasses import dataclass, field

from repro.engine.telemetry import Telemetry
from repro.errors import ModelError, ModelTransientError
from repro.llm.base import (ChatModel, call_generate_batch,
                            supports_generate_batch)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.obs.trail import current_trail, prompt_key

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
    failure is a post-retry hard failure for all of them.  Each
    waiter's trail names it a follower, which the run's ``coalesced``
    count is folded from.
    """

    def __init__(self, inner: ChatModel):
        self.inner = inner
        self.name = inner.name
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


#: A member's outcome before it lands (a backend may answer ``None``).
_PENDING = object()


class _Batch:
    """One batch: its members' prompts and, as they land, outcomes.

    Fields change only under the batcher's lock, and :attr:`changed`
    (a condition on that lock) wakes this batch's members alone.  Once
    the batch is cut, its prompts, number and cut no longer change.
    """

    __slots__ = ("prompts", "members", "cell", "outcomes", "seq", "cut",
                 "running", "changed")

    def __init__(self, lock: threading.Lock, cell: str | None) -> None:
        self.prompts: list[str] = []
        #: Each member's question uid, from its own trail, and the
        #: leader's cell: the ``batch`` span names them so ``repro
        #: obs why`` finds a question's shared call.
        self.members: list[str] = []
        self.cell = cell
        #: Each member's response or exception, or :data:`_PENDING`.
        self.outcomes: list = []
        #: Batch number and why it was cut (``size`` or ``linger``):
        #: 0 and ``None`` while it fills, and for a batch ``close``
        #: failed.
        self.seq = 0
        self.cut: str | None = None
        #: The leader holds a dispatch slot, so the members of a
        #: per-prompt batch may call.
        self.running = False
        self.changed = threading.Condition(lock)


class BatchingModel:
    """ChatModel wrapper grouping concurrent calls into batches.

    The batch forms on the callers' own threads.  The first
    ``generate`` of a batch leads it: it waits until ``batch_size``
    prompts have joined or ``linger_s`` has passed, whichever comes
    first, then dispatches the batch on its own thread while the other
    members wait for their own outcome.  A backend with
    ``generate_batch`` gets one
    :func:`repro.llm.base.call_generate_batch` for the whole batch,
    and a fault fails every member once — that is what a shared round
    trip means.  A per-prompt backend keeps per-prompt fault isolation
    and concurrency: each member calls its own prompt on its own
    thread, so one poisoned prompt cannot burn its batchmates' retry
    budgets.  Either way the leader's ``batch`` span covers the
    dispatch, naming the leader's cell and its members' question
    uids, and the limiter gates it.

    Per-prompt recovery is the retry middleware's job, one layer up,
    and each re-attempt re-enters the batcher independently.
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
        self._shared = supports_generate_batch(inner)
        self._lock = threading.Lock()
        self._filling: _Batch | None = None
        self._batch_seq = 0
        self._closed = False

    def close(self) -> None:
        """Fail the batch still filling and refuse new calls
        (idempotent)."""
        with self._lock:
            self._closed = True
            batch, self._filling = self._filling, None
            if batch is not None:
                error = ModelError(f"{self.name}: batcher closed with "
                                   f"the prompt still pending")
                batch.outcomes = [error] * len(batch.prompts)
                batch.changed.notify_all()

    def __enter__(self) -> "BatchingModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def generate(self, prompt: str) -> str:
        trail = current_trail()
        question, cell = ((None, None) if trail is None
                          else (trail.question, trail.cell))
        with self._lock:
            if self._closed:
                raise ModelError(f"{self.name}: batcher is closed")
            batch = self._filling
            leader = batch is None
            if leader:
                batch = self._filling = _Batch(self._lock, cell)
            member = len(batch.prompts)
            batch.prompts.append(prompt)
            batch.members.append(question or "")
            batch.outcomes.append(_PENDING)
            if member + 1 >= self.batch_size:
                self._cut(batch, "size")
            elif leader:
                batch.changed.wait_for(
                    lambda: self._filling is not batch, self.linger_s)
                if self._filling is batch:
                    self._cut(batch, "linger")
            if not leader:
                # Wait for the outcome, or for a per-prompt batch to
                # run and this member to make its own call.
                batch.changed.wait_for(
                    lambda: batch.outcomes[member] is not _PENDING
                    or batch.running)
        if leader and batch.seq:
            self._dispatch(batch)
        elif batch.outcomes[member] is _PENDING:
            self._call(batch, member)
        if batch.seq:
            if trail is not None:
                trail.batch = batch.seq
                trail.batch_size = len(batch.prompts)
                trail.batch_cut = batch.cut
        outcome = batch.outcomes[member]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def _cut(self, batch: _Batch, cut: str) -> None:
        """Close ``batch`` to new members (the caller holds the
        lock)."""
        self._filling = None
        self._batch_seq += 1
        batch.seq = self._batch_seq
        batch.cut = cut
        batch.changed.notify_all()

    def _dispatch(self, batch: _Batch) -> None:
        """Serve ``batch`` from its leader's thread; returns once every
        member has its outcome."""
        if self.limiter is not None:
            self.limiter.acquire()
        transient = False
        site = {key: value for key, value in (
            ("cell", batch.cell),
            ("members", " ".join(filter(None, batch.members))))
            if value}
        try:
            with self._tracer.span("batch", model=self.name,
                                   size=len(batch.prompts),
                                   seq=batch.seq, **site):
                if self._shared:
                    transient = self._call_shared(batch)
                else:
                    transient = self._call_members(batch)
        finally:
            if self.limiter is not None:
                self.limiter.release(success=not transient)
                if self._telemetry is not None:
                    self._telemetry.add(
                        adaptive_high_water=int(self.limiter.limit))

    def _call_shared(self, batch: _Batch) -> bool:
        """One real batch call; a fault fails every member.  Returns
        whether the fault was transient."""
        try:
            outcomes = call_generate_batch(self.inner, batch.prompts)
            transient = False
        except BaseException as exc:
            _log.info("batch-failed model=%s size=%d fault=%s",
                      self.name, len(batch.prompts), type(exc).__name__)
            outcomes = [exc] * len(batch.prompts)
            transient = isinstance(exc, ModelTransientError)
        else:
            if self._telemetry is not None:
                self._telemetry.add(batches=1)
        with self._lock:
            batch.outcomes = outcomes
            batch.changed.notify_all()
        return transient

    def _call_members(self, batch: _Batch) -> bool:
        """Let every member call its own prompt, the leader's own
        included, and wait for them all.  Returns whether any call
        failed transiently."""
        with self._lock:
            batch.running = True
            batch.changed.notify_all()
        self._call(batch, 0)
        with self._lock:
            batch.changed.wait_for(
                lambda: _PENDING not in batch.outcomes)
        if self._telemetry is not None:
            self._telemetry.add(batches=1)
        return any(isinstance(outcome, ModelTransientError)
                   for outcome in batch.outcomes)

    def _call(self, batch: _Batch, member: int) -> None:
        """One member's own call of a per-prompt batch."""
        try:
            outcome = self.inner.generate(batch.prompts[member])
        except BaseException as exc:
            outcome = exc
        with self._lock:
            batch.outcomes[member] = outcome
            batch.changed.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BatchingModel({self.inner!r}, "
                f"batch_size={self.batch_size})")


def close_model_stack(model: ChatModel) -> None:
    """Close every closeable layer of a wrapped middleware stack.

    Walks the ``.inner`` chain calling ``close()`` where it exists —
    how the scheduler closes a run's batcher and a backend pool's
    hedge executor after a run.
    """
    layer = model
    seen = 0
    while layer is not None and seen < 32:
        closer = getattr(layer, "close", None)
        if callable(closer):
            closer()
        layer = getattr(layer, "inner", None)
        seen += 1
