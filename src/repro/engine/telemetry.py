"""Telemetry for the execution engine.

A :class:`Telemetry` collector is threaded through the middleware
stack and the scheduler.  It is now a facade over a
:class:`repro.obs.metrics.MetricsRegistry`: every model call, retry,
injected fault and cache lookup lands in a named counter, and each
scored question's worker time is observed into a fixed-bucket latency
histogram — so the engine reports p50/p90/p99 and exact min/max, not
just a mean.  ``snapshot()`` freezes the registry into an
:class:`EngineStats` value, the compatibility shape the scalability
experiment, the run ledger and the ``repro engine-stats`` CLI consume.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from repro.obs.metrics import MetricsRegistry

#: Registry names of the engine's metrics (shared with exporters).
RECORDS = "repro_engine_records_total"
CALLS = "repro_engine_calls_total"
RETRIES = "repro_engine_retries_total"
FAULTS = "repro_engine_faults_total"
TIMEOUTS = "repro_engine_timeouts_total"
CACHE_HITS = "repro_engine_cache_hits_total"
CACHE_MISSES = "repro_engine_cache_misses_total"
WALL_SECONDS = "repro_engine_wall_seconds_total"
WORKERS = "repro_engine_workers"
LATENCY = "repro_engine_question_latency_seconds"
BATCHES = "repro_engine_batches_total"
COALESCED = "repro_engine_coalesced_total"
HEDGES = "repro_engine_hedged_total"
ADAPTIVE_HIGH_WATER = "repro_engine_adaptive_limit_high_water"
PROMPT_TOKENS = "repro_engine_prompt_tokens_total"
COMPLETION_TOKENS = "repro_engine_completion_tokens_total"
COST_NANOS = "repro_engine_cost_nanos_total"


@dataclass(frozen=True, slots=True)
class EngineStats:
    """One engine run, aggregated.

    ``calls`` counts model invocations that actually reached the
    backend (cache hits never do); ``records`` counts questions
    scored.  ``utilization`` is busy worker-seconds over available
    worker-seconds (``wall_time_s * workers``) — 1.0 means every
    worker computed the whole time.  The ``latency_*`` fields come
    from the per-question latency histogram: bucket-interpolated
    quantiles, exact extremes.

    The batched-engine fields all default to zero so snapshots
    persisted before the batching core existed — and engines run
    without it — decode and compare unchanged: ``batches`` counts
    backend ``generate_batch`` dispatches, ``coalesced`` counts
    prompts that piggybacked on an identical in-flight call,
    ``hedged`` counts hedge requests a :class:`BackendPool` launched,
    and ``adaptive_high_water`` is the AIMD concurrency window's
    high-water mark.

    The fields are the one list of run counters: :meth:`to_dict`,
    :meth:`from_dict` and the shard merge
    (:func:`repro.dist.merge.merge_stats`) follow from them, and
    :func:`repro.obs.history.entry_from_result` copies each one the
    history entry also declares.  A new counter is one field here
    plus the :class:`Telemetry` counter :meth:`Telemetry.snapshot`
    reads it from.
    """

    records: int
    calls: int
    retries: int
    faults: int
    timeouts: int
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    busy_time_s: float
    workers: int
    latency_p50_s: float = 0.0
    latency_p90_s: float = 0.0
    latency_p99_s: float = 0.0
    latency_min_s: float = 0.0
    latency_max_s: float = 0.0
    batches: int = 0
    coalesced: int = 0
    hedged: int = 0
    adaptive_high_water: int = 0
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


class Telemetry:
    """Thread-safe recorder shared by middleware and scheduler.

    The recording API is unchanged from the counter-bag days; the
    storage is a :class:`MetricsRegistry` (exposed as ``.registry``)
    so the same numbers flow to the Prometheus exporter without a
    second bookkeeping path.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        r = self.registry
        self._records = r.counter(RECORDS, "questions scored")
        self._calls = r.counter(CALLS,
                                "model invocations reaching a backend")
        self._retries = r.counter(RETRIES, "re-attempts after faults")
        self._faults = r.counter(FAULTS, "transient faults observed")
        self._timeouts = r.counter(TIMEOUTS, "per-call timeouts")
        self._cache_hits = r.counter(CACHE_HITS,
                                     "response cache hits")
        self._cache_misses = r.counter(CACHE_MISSES,
                                       "response cache misses")
        self._wall = r.counter(WALL_SECONDS,
                               "scheduler wall-clock seconds")
        self._workers = r.gauge(WORKERS, "peak worker threads")
        self._latency = r.histogram(
            LATENCY, "per-question worker seconds")
        self._batches = r.counter(
            BATCHES, "backend generate_batch dispatches")
        self._coalesced = r.counter(
            COALESCED, "prompts sharing an identical in-flight call")
        self._hedges = r.counter(
            HEDGES, "hedge requests launched by a backend pool")
        self._adaptive_hw = r.gauge(
            ADAPTIVE_HIGH_WATER, "AIMD concurrency window high water")
        self._prompt_tokens = r.counter(
            PROMPT_TOKENS, "prompt tokens sent to backends")
        self._completion_tokens = r.counter(
            COMPLETION_TOKENS, "completion tokens returned")
        self._cost_nanos = r.counter(
            COST_NANOS, "accumulated spend in nano-dollars")

    # ------------------------------------------------------------------
    # Recording (called from worker threads)
    # ------------------------------------------------------------------
    def record_call(self, n: int = 1) -> None:
        self._calls.add(n)

    def record_retry(self) -> None:
        self._retries.add(1)

    def record_fault(self, timeout: bool = False) -> None:
        self._faults.add(1)
        if timeout:
            self._timeouts.add(1)

    def record_cache(self, hit: bool) -> None:
        if hit:
            self._cache_hits.add(1)
        else:
            self._cache_misses.add(1)

    def record_work(self, seconds: float) -> None:
        """One question scored, taking ``seconds`` of worker time."""
        self._records.add(1)
        self._latency.observe(seconds)

    def record_question(self, prompt_tokens: int,
                        completion_tokens: int, cost_nanos: int,
                        seconds: float) -> None:
        """One question scored by one backend call and no middleware
        (the sequential path): :meth:`record_call`,
        :meth:`record_tokens` and :meth:`record_work` in one call."""
        self._calls.add(1)
        self._prompt_tokens.add(prompt_tokens)
        self._completion_tokens.add(completion_tokens)
        self._cost_nanos.add(cost_nanos)
        self._records.add(1)
        self._latency.observe(seconds)

    def record_run(self, wall_time_s: float, workers: int) -> None:
        """Account one scheduler pass (called once per run)."""
        self._wall.add(wall_time_s)
        self._workers.set_max(workers)

    def record_batch(self, size: int) -> None:
        """One ``generate_batch`` dispatch of ``size`` prompts."""
        self._batches.add(1)

    def record_coalesced(self) -> None:
        """One prompt served by an identical in-flight call."""
        self._coalesced.add(1)

    def record_hedge(self) -> None:
        """One hedge request launched by a backend pool."""
        self._hedges.add(1)

    def record_adaptive_limit(self, limit: float) -> None:
        """Track the AIMD window's high-water mark."""
        self._adaptive_hw.set_max(int(limit))

    def record_tokens(self, prompt_tokens: int,
                      completion_tokens: int,
                      cost_nanos: int) -> None:
        """One billed backend attempt (see ``repro.obs.cost``)."""
        self._prompt_tokens.add(prompt_tokens)
        self._completion_tokens.add(completion_tokens)
        self._cost_nanos.add(cost_nanos)

    # ------------------------------------------------------------------
    def snapshot(self) -> EngineStats:
        """Freeze the registry into an immutable stats value."""
        return EngineStats(
            records=int(self._records.value),
            calls=int(self._calls.value),
            retries=int(self._retries.value),
            faults=int(self._faults.value),
            timeouts=int(self._timeouts.value),
            cache_hits=int(self._cache_hits.value),
            cache_misses=int(self._cache_misses.value),
            wall_time_s=self._wall.value,
            busy_time_s=self._latency.total,
            workers=max(1, int(self._workers.value)),
            latency_p50_s=self._latency.quantile(0.50),
            latency_p90_s=self._latency.quantile(0.90),
            latency_p99_s=self._latency.quantile(0.99),
            latency_min_s=self._latency.min,
            latency_max_s=self._latency.max,
            batches=int(self._batches.value),
            coalesced=int(self._coalesced.value),
            hedged=int(self._hedges.value),
            adaptive_high_water=int(self._adaptive_hw.value),
            prompt_tokens=int(self._prompt_tokens.value),
            completion_tokens=int(self._completion_tokens.value),
            cost_nanos=int(self._cost_nanos.value),
        )

    def reset(self) -> None:
        """Zero every counter (between benchmark phases)."""
        self.registry.reset()
