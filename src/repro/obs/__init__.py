"""repro.obs — spans, metric histograms and trace export.

The observability layer for the whole evaluation stack.  Four pieces:

* ``tracer`` — hierarchical span tracing (``run -> cell -> question ->
  retry/batch``; ``build -> taxonomy -> encode/write`` in the dataset
  store) with per-thread parenting, explicit cross-thread parents,
  cross-process span adoption and an injectable clock.
  :data:`NULL_TRACER` is the free default.
* ``metrics`` — named counters, gauges and fixed-bucket histograms
  (p50/p90/p99 estimates, exact min/max) behind a
  :class:`MetricsRegistry`, which ``repro obs metrics`` folds a span
  log into; the engine's ``Telemetry`` times questions with one
  :class:`Histogram`.
* ``export`` — JSONL span logs persisted next to each run's ledger,
  Chrome ``trace_event`` JSON for chrome://tracing, Prometheus text.
* ``report`` — per-phase wall-clock attribution and an ASCII
  flamegraph for terminals.
* ``cost`` — deterministic token counting, per-model pricing (the
  runner prices each question once with :func:`call_cost_nanos`),
  per-run budget enforcement (:class:`BudgetGuard`) and the per-cell
  :class:`CostLedger`.
* ``alerts`` — declarative SLO rules (:class:`AlertRule`) evaluated
  over live follower snapshots by an :class:`AlertEvaluator` with
  ``for_s`` debounce and firing/resolved transitions.
* ``trail`` — per-question provenance: a :class:`TrailContext` opened
  around every question that each engine layer annotates (retries,
  cache, coalescing, batching, replicas) and the runner prices — the
  one book every per-question run counter is folded from — frozen to
  a :class:`Trail` on the question record of a ``--trail`` run, plus
  the predicate compiler behind ``repro obs grep`` and the
  :func:`trail_summary` analytics behind ``repro obs trails``.

Quickstart::

    >>> from repro.obs import read_spans_jsonl
    >>> from repro.runs import RunRegistry, RunRequest, execute_run
    >>> registry = RunRegistry()
    >>> result = execute_run(
    ...     RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
    ...                sample_size=6), registry=registry)
    >>> spans = read_spans_jsonl(registry.spans_path(result.run_id))
    >>> {"run", "cell", "question"} <= {span.name for span in spans}
    True
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.alerts": ("DEFAULT_RULES", "AlertEvaluator", "AlertEvent",
                         "AlertRule"),
    "repro.obs.cost": ("DEFAULT_TOKEN_COUNTER", "BudgetGuard", "BudgetStop",
                       "CostCell", "CostLedger", "ModelPrice",
                       "TokenCounter", "call_cost_nanos", "count_tokens",
                       "nanos_to_usd", "price_for", "pricing_table",
                       "usd_to_nanos"),
    "repro.obs.export": ("JsonlSpanSink", "chrome_trace", "escape_label_value",
                         "format_prometheus", "read_spans_jsonl",
                         "registry_from_spans", "span_tree",
                         "write_spans_jsonl"),
    "repro.obs.history": ("CheckResult", "HistoryEntry", "RegressionReport",
                          "Thresholds", "append_entry", "check_entries",
                          "entry_from_result", "latest_for", "load_entry",
                          "read_history", "write_entry"),
    "repro.obs.jsonl": ("JsonlBatch", "JsonlCorruptError", "iter_jsonl"),
    "repro.obs.live": ("CellProgress", "LedgerFollower", "RunProgress",
                       "render_dashboard", "watch_run"),
    "repro.obs.logs": ("configure_logging", "get_logger"),
    "repro.obs.metrics": ("DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram",
                          "MetricsRegistry"),
    "repro.obs.report": ("flame_report", "phase_chart", "phase_rows",
                         "phase_table"),
    "repro.obs.tracer": ("NULL_TRACER", "NullTracer", "Span", "Tracer"),
    "repro.obs.trail": ("Trail", "TrailContext", "TrailQueryError",
                        "compile_predicate", "current_trail", "prompt_key",
                        "trail_env", "trail_from_dict", "trail_scope",
                        "trail_summary", "trail_to_dict"),
})
