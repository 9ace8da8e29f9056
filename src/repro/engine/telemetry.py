"""Telemetry for the execution engine.

A :class:`Telemetry` book keeps a run's counters in a
:class:`repro.obs.metrics.MetricsRegistry`.  Every per-question
counter — calls, retries, faults, timeouts, cache traffic, coalesced
and hedged questions, tokens and spend — is folded from the
question's finished provenance trail (:mod:`repro.obs.trail`) by
:meth:`Telemetry.observe`, which also observes the question's worker
time into a fixed-bucket latency histogram, so the engine reports
p50/p90/p99 and exact min/max, not just a mean.  Only facts that
belong to no single question are added directly: batches and the
AIMD high water (the batcher), wall time and workers (the scheduler
and the run session).  ``snapshot()`` freezes the registry into an
:class:`EngineStats` value, the shape the scalability experiment,
the run ledger and the ``repro engine-stats`` CLI consume.

The registry's metrics are declared by :class:`EngineStats` itself:
each counted field carries the metric name and help text it is
exported under.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter, methodcaller
from typing import TYPE_CHECKING

from repro.obs.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.obs.trail import Trail, TrailContext


def _counted(metric: str, help: str, kind: str = "counter",
             **default):
    """A field :class:`Telemetry` keeps as the registry metric
    ``metric``: a ``counter`` :meth:`Telemetry.add` adds to, a
    ``gauge`` it raises to a new high, or the question-latency
    ``histogram`` (whose total the field reads)."""
    return field(**default, metadata={"metric": (metric, help, kind)})


def _from_latency(read: Callable[[Histogram], float]):
    """A field read off the question-latency histogram."""
    return field(default=0.0, metadata={"latency": read})


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
    builds its metrics from them (each counted field names the
    registry metric and help text it is exported under), and
    :meth:`to_dict`, :meth:`from_dict`, :meth:`Telemetry.snapshot`
    and the shard merge (:func:`repro.dist.merge.merge_stats`) follow
    from them; :func:`repro.obs.history.entry_from_result` copies each
    one the history entry also declares.  A new counter is one field
    here plus the line of :meth:`Telemetry.observe` (or the one
    run-level site) that adds to it.
    """

    records: int = _counted("repro_engine_records_total",
                            "questions scored")
    calls: int = _counted("repro_engine_calls_total",
                          "model invocations reaching a backend")
    retries: int = _counted("repro_engine_retries_total",
                            "re-attempts after faults")
    faults: int = _counted("repro_engine_faults_total",
                           "transient faults observed")
    timeouts: int = _counted("repro_engine_timeouts_total",
                             "per-call timeouts")
    cache_hits: int = _counted("repro_engine_cache_hits_total",
                               "response cache hits")
    cache_misses: int = _counted("repro_engine_cache_misses_total",
                                 "response cache misses")
    wall_time_s: float = _counted("repro_engine_wall_seconds_total",
                                  "scheduler wall-clock seconds")
    busy_time_s: float = _counted(
        "repro_engine_question_latency_seconds",
        "per-question worker seconds", "histogram")
    workers: int = _counted("repro_engine_workers",
                            "peak worker threads", "gauge")
    latency_p50_s: float = _from_latency(methodcaller("quantile", 0.50))
    latency_p90_s: float = _from_latency(methodcaller("quantile", 0.90))
    latency_p99_s: float = _from_latency(methodcaller("quantile", 0.99))
    latency_min_s: float = _from_latency(attrgetter("min"))
    latency_max_s: float = _from_latency(attrgetter("max"))
    batches: int = _counted("repro_engine_batches_total",
                            "backend generate_batch dispatches",
                            default=0)
    coalesced: int = _counted(
        "repro_engine_coalesced_total",
        "prompts sharing an identical in-flight call", default=0)
    hedged: int = _counted("repro_engine_hedged_total",
                           "hedge requests launched by a backend pool",
                           default=0)
    adaptive_high_water: int = _counted(
        "repro_engine_adaptive_limit_high_water",
        "AIMD concurrency window high water", "gauge", default=0)
    prompt_tokens: int = _counted("repro_engine_prompt_tokens_total",
                                  "prompt tokens sent to backends",
                                  default=0)
    completion_tokens: int = _counted(
        "repro_engine_completion_tokens_total",
        "completion tokens returned", default=0)
    #: Accumulated spend in integer nano-dollars.  Integer addition is
    #: associative, so shard-merged totals equal single-process totals
    #: bit for bit — a float dollar sum could not promise that.
    cost_nanos: int = _counted("repro_engine_cost_nanos_total",
                               "accumulated spend in nano-dollars",
                               default=0)

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
#: ``field: (metric name, help, kind)`` of every counted field.
_METRICS = {f.name: f.metadata["metric"] for f in fields(EngineStats)
            if "metric" in f.metadata}


class Telemetry:
    """Thread-safe book of run counters.

    Its metrics live in a :class:`MetricsRegistry` (exposed as
    ``.registry``), one per counted :class:`EngineStats` field, so the
    same numbers flow to the Prometheus exporter without a second
    bookkeeping path.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._metrics = {name: getattr(self.registry, kind)(metric, help)
                         for name, (metric, help, kind) in _METRICS.items()}
        self._adders = {name: (metric.set_max if metric.kind == "gauge"
                               else metric.add)
                        for name, metric in self._metrics.items()
                        if metric.kind != "histogram"}
        # observe() runs on every question: it holds its metrics.
        m = self._metrics
        self._latency: Histogram = m["busy_time_s"]
        (self._records, self._calls, self._retries, self._faults,
         self._timeouts, self._cache_hits, self._cache_misses,
         self._coalesced, self._hedged, self._prompt_tokens,
         self._completion_tokens, self._cost_nanos) = (
            m[name] for name in (
                "records", "calls", "retries", "faults", "timeouts",
                "cache_hits", "cache_misses", "coalesced", "hedged",
                "prompt_tokens", "completion_tokens", "cost_nanos"))

    # ------------------------------------------------------------------
    # Recording (called from worker threads)
    # ------------------------------------------------------------------
    def add(self, **amounts: float) -> None:
        """Add each amount to its field's counter, or raise the
        field's gauge to it if higher (``workers``,
        ``adaptive_high_water``): the run-level facts no single
        question's trail holds."""
        for name, amount in amounts.items():
            self._adders[name](amount)

    def observe(self, seconds: float,
                trail: "TrailContext | Trail") -> None:
        """One question scored in ``seconds`` of worker time, booked
        by folding its finished trail (the collecting context, or a
        frozen trail).

        A cache hit or a coalesced follower made no backend call;
        any other question made ``attempts`` of them.  This runs once
        per question: it adds to metrics held up front, and skips the
        counters the trail leaves at zero.
        """
        self._records.add(1)
        self._latency.observe(seconds)
        attempts = trail.attempts
        follower = trail.coalesced == "follower"
        if not (trail.cache_hit or follower):
            self._calls.add(attempts)
        if attempts > 1:
            self._retries.add(attempts - 1)
        errors = trail.errors
        if errors:
            self._faults.add(len(errors))
            timeouts = errors.count("ModelTimeoutError")
            if timeouts:
                self._timeouts.add(timeouts)
        if trail.cache_hit is not None:
            (self._cache_hits if trail.cache_hit
             else self._cache_misses).add(1)
        if follower:
            self._coalesced.add(1)
        if trail.hedged:
            self._hedged.add(1)
        if trail.billed_prompt_tokens:
            self._prompt_tokens.add(trail.billed_prompt_tokens)
        if trail.billed_completion_tokens:
            self._completion_tokens.add(trail.billed_completion_tokens)
        if trail.cost_nanos:
            self._cost_nanos.add(trail.cost_nanos)

    def absorb(self, other: "Telemetry") -> None:
        """Add ``other``'s book to this one: counters add, gauges keep
        the higher value, the latency histograms merge."""
        for name, metric in other._metrics.items():
            if metric.kind == "histogram":
                self._metrics[name].merge(metric)
            else:
                self._adders[name](metric.value)

    # ------------------------------------------------------------------
    def snapshot(self) -> EngineStats:
        """Freeze the registry into an immutable stats value."""
        values: dict[str, float] = {}
        for f in fields(EngineStats):
            read = f.metadata.get("latency")
            if read is not None:
                values[f.name] = read(self._latency)
                continue
            metric = self._metrics[f.name]
            value = (metric.total if metric.kind == "histogram"
                     else metric.value)
            values[f.name] = int(value) if f.type == "int" else value
        # A book no scheduler pass has run in yet shows one worker.
        values["workers"] = max(1, values["workers"])
        return EngineStats(**values)

    def reset(self) -> None:
        """Zero every counter (between benchmark phases)."""
        self.registry.reset()
