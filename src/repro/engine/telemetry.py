"""Telemetry for the execution engine.

A :class:`Telemetry` book keeps a run's counters under one lock.
Every per-question counter — calls, retries, faults, timeouts, cache
traffic, coalesced and hedged questions, tokens and spend — is folded
from the question's finished provenance trail (:mod:`repro.obs.trail`)
by :meth:`Telemetry.observe`, which also observes the question's
worker time into a fixed-bucket latency histogram
(:class:`repro.obs.metrics.Histogram`), so the engine reports
p50/p90/p99 and exact min/max, not just a mean.  Only facts that
belong to no single question are added directly: batches and the
AIMD high water (the batcher), wall time and workers (the
scheduler).  ``snapshot()`` freezes the book into an
:class:`EngineStats` value, the shape the scalability experiment, the
run ledger and the ``repro engine-stats`` CLI consume.

The book's entries are :class:`EngineStats`'s own fields: each
``latency_*`` field (and ``busy_time_s``, the histogram's total)
says what it reads off the latency histogram, each gauge says it is
one, and every other field is a counter.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter, methodcaller
from typing import TYPE_CHECKING

from repro.obs.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.obs.trail import Trail, TrailContext


def _gauge(**default):
    """A field :meth:`Telemetry.add` raises to a new high rather than
    adds to."""
    return field(**default, metadata={"gauge": True})


def _from_latency(read: Callable[[Histogram], float], **default):
    """A field read off the question-latency histogram."""
    return field(**default, metadata={"latency": read})


@dataclass(frozen=True, slots=True)
class EngineStats:
    """One engine run, aggregated.

    ``records`` counts questions scored; ``calls`` counts the
    attempts of every question that reached the backend (a cache hit
    or a coalesced follower makes none), ``retries`` the attempts
    after the first, ``faults`` the transient errors its trail lists
    and ``timeouts`` those named ``ModelTimeoutError``.
    ``utilization`` is busy worker-seconds over available
    worker-seconds (``wall_time_s * workers``) — 1.0 means every
    worker computed the whole time.  The ``latency_*`` fields come
    from the per-question latency histogram: bucket-interpolated
    quantiles, exact extremes.

    The batched-engine fields all default to zero so snapshots
    persisted before the batching core existed — and engines run
    without it — decode and compare unchanged: ``batches`` counts
    backend ``generate_batch`` dispatches, ``coalesced`` counts
    prompts that piggybacked on an identical in-flight call,
    ``hedged`` counts questions a :class:`BackendPool` hedged (one
    hedge each, unless a ``timeout`` turns a hedged answer into a
    retry), and ``adaptive_high_water`` is the AIMD concurrency
    window's high-water mark.

    The fields are the one list of run counters: :class:`Telemetry`
    books exactly them, and :meth:`to_dict`, :meth:`from_dict`,
    :meth:`Telemetry.snapshot` and the shard merge
    (:func:`repro.dist.merge.merge_stats`) follow from them;
    :func:`repro.obs.history.entry_from_result` copies each one the
    history entry also declares.  A new counter is one field here
    plus the line of :meth:`Telemetry.observe` (or the one run-level
    site) that adds to it.
    """

    records: int
    calls: int
    retries: int
    faults: int
    timeouts: int
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    busy_time_s: float = _from_latency(attrgetter("total"))
    workers: int = _gauge()
    latency_p50_s: float = _from_latency(methodcaller("quantile", 0.50),
                                         default=0.0)
    latency_p90_s: float = _from_latency(methodcaller("quantile", 0.90),
                                         default=0.0)
    latency_p99_s: float = _from_latency(methodcaller("quantile", 0.99),
                                         default=0.0)
    latency_min_s: float = _from_latency(attrgetter("min"), default=0.0)
    latency_max_s: float = _from_latency(attrgetter("max"), default=0.0)
    batches: int = 0
    coalesced: int = 0
    hedged: int = 0
    adaptive_high_water: int = _gauge(default=0)
    prompt_tokens: int = 0
    completion_tokens: int = 0
    #: Accumulated spend in integer nano-dollars.  Integer addition is
    #: associative, so shard-merged totals equal single-process totals
    #: bit for bit — a float dollar sum could not promise that.
    cost_nanos: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    @property
    def cost_usd(self) -> float:
        """Accumulated spend in dollars (derived, display/compare)."""
        return self.cost_nanos / 1e9

    @property
    def mean_latency_s(self) -> float:
        """Mean wall time of one scored question on its worker."""
        if self.records == 0:
            return 0.0
        return self.busy_time_s / self.records

    @property
    def utilization(self) -> float:
        """Fraction of available worker time spent computing."""
        available = self.wall_time_s * max(1, self.workers)
        if available <= 0.0:
            return 0.0
        return min(1.0, self.busy_time_s / available)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def throughput(self) -> float:
        """Questions scored per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.records / self.wall_time_s

    def to_dict(self) -> dict[str, object]:
        """Raw counters, JSON-compatible (run-finished ledger events):
        every field in declaration order, then ``cost_usd``."""
        payload = {name: getattr(self, name) for name in STAT_FIELDS}
        payload["cost_usd"] = self.cost_usd
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineStats":
        """Rebuild a snapshot persisted by :meth:`to_dict`.

        A field without a default is read as is (a missing one raises
        ``KeyError``); a field with one falls back to it when absent,
        so ledgers written before the field existed still load, and is
        coerced to the default's type.
        """
        return cls(**{name: (payload[name] if kind is None
                             else kind(payload.get(name, default)))
                      for name, kind, default in _STAT_DECODE})

    def as_row(self) -> dict[str, object]:
        """One report row (``repro.core.report.format_rows`` shape)."""
        return {
            "records": self.records,
            "calls": self.calls,
            "retries": self.retries,
            "faults": self.faults,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": f"{self.cache_hit_rate:.3f}",
            "batches": self.batches,
            "coalesced": self.coalesced,
            "hedged": self.hedged,
            "adaptive_hw": self.adaptive_high_water,
            "tokens": self.total_tokens,
            "cost_usd": f"{self.cost_usd:.4f}",
            "workers": self.workers,
            "wall_s": f"{self.wall_time_s:.3f}",
            "q_per_s": f"{self.throughput:.1f}",
            "utilization": f"{self.utilization:.3f}",
            "p50_ms": f"{self.latency_p50_s * 1e3:.2f}",
            "p99_ms": f"{self.latency_p99_s * 1e3:.2f}",
        }


#: Every :class:`EngineStats` field, in declaration order.
STAT_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(EngineStats))
#: ``(name, type of the default or None when required, default)``.
_STAT_DECODE = tuple(
    (f.name, None if f.default is MISSING else type(f.default), f.default)
    for f in fields(EngineStats))
#: Every field :class:`Telemetry` books (none read off the histogram),
#: at its starting value.
_BOOK = {f.name: 0 if f.type == "int" else 0.0
         for f in fields(EngineStats) if "latency" not in f.metadata}
#: The booked fields :meth:`Telemetry.add` raises rather than adds to.
_GAUGES = frozenset(f.name for f in fields(EngineStats)
                    if "gauge" in f.metadata)
#: ``(field, read)`` of every field read off the latency histogram.
_LATENCY = tuple((f.name, f.metadata["latency"])
                 for f in fields(EngineStats) if "latency" in f.metadata)


class Telemetry:
    """Thread-safe book of run counters: one dict of
    :class:`EngineStats` fields and one latency histogram, both
    changed only under one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._book = dict(_BOOK)
        self._latency = Histogram("question_latency_s")

    # ------------------------------------------------------------------
    # Recording (called from worker threads)
    # ------------------------------------------------------------------
    def add(self, **amounts: float) -> None:
        """Add each amount to its field, or raise the field to it if
        higher (the gauges ``workers`` and ``adaptive_high_water``):
        the run-level facts no single question's trail holds.  A name
        that is no booked field raises ``KeyError``."""
        with self._lock:
            book = self._book
            for name, amount in amounts.items():
                if name in _GAUGES:
                    book[name] = max(book[name], amount)
                else:
                    book[name] += amount

    def observe(self, seconds: float,
                trail: "TrailContext | Trail") -> None:
        """One question scored in ``seconds`` of worker time, booked
        by folding its finished trail (the collecting context, or a
        frozen trail).

        A cache hit or a coalesced follower made no backend call;
        any other question made ``attempts`` of them.  This runs once
        per question, so it books everything under one acquisition
        of the lock.
        """
        attempts = trail.attempts
        errors = trail.errors
        cache_hit = trail.cache_hit
        follower = trail.coalesced == "follower"
        with self._lock:
            book = self._book
            book["records"] += 1
            self._latency.observe_unlocked(seconds)
            if not (cache_hit or follower):
                book["calls"] += attempts
            if attempts > 1:
                book["retries"] += attempts - 1
            if errors:
                book["faults"] += len(errors)
                book["timeouts"] += errors.count("ModelTimeoutError")
            if cache_hit is not None:
                book["cache_hits" if cache_hit else "cache_misses"] += 1
            if follower:
                book["coalesced"] += 1
            if trail.hedged:
                book["hedged"] += 1
            book["prompt_tokens"] += trail.billed_prompt_tokens
            book["completion_tokens"] += trail.billed_completion_tokens
            book["cost_nanos"] += trail.cost_nanos

    def absorb(self, other: "Telemetry") -> None:
        """Add ``other``'s book to this one: counters add, gauges keep
        the higher value, the latency histograms merge."""
        with other._lock:
            amounts = dict(other._book)
            latency = other._latency.copy()
        with self._lock:
            self._latency.merge(latency)
        self.add(**amounts)

    # ------------------------------------------------------------------
    def snapshot(self) -> EngineStats:
        """Freeze the book into an immutable stats value."""
        with self._lock:
            values = dict(self._book)
            for name, read in _LATENCY:
                values[name] = read(self._latency)
        # A book no scheduler pass has run in yet shows one worker.
        values["workers"] = max(1, values["workers"])
        return EngineStats(**values)

    def reset(self) -> None:
        """Zero every counter (between benchmark phases)."""
        with self._lock:
            self._book = dict(_BOOK)
            self._latency = Histogram("question_latency_s")
