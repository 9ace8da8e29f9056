"""Exporters: span JSONL, Chrome ``trace_event`` JSON, Prometheus text.

Three consumers, three formats:

* :class:`JsonlSpanSink` / :func:`read_spans_jsonl` — the durable
  form.  One JSON document per finished span, appended next to the
  run's ledger, torn-final-line tolerant on read (same crash contract
  as the ledger itself).
* :func:`chrome_trace` — the ``chrome://tracing`` / Perfetto form:
  complete ("ph": "X") events with microsecond timestamps, span and
  parent ids carried in ``args`` so the tree is reconstructible from
  the JSON alone.
* :func:`format_prometheus` — a text-format dump of a
  :class:`repro.obs.metrics.MetricsRegistry`, histograms as
  cumulative ``_bucket{le=...}`` series plus exact ``_min``/``_max``.

:func:`registry_from_spans` bridges the two halves: it folds a span
list into per-name duration histograms and counters, which is how
``repro obs metrics <run-id>`` reports distributions offline from the
persisted span log with zero model calls.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from pathlib import Path

from repro.obs.jsonl import JsonlCorruptError, cut_torn_tail, iter_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span

_log = logging.getLogger("repro.obs.export")


# ----------------------------------------------------------------------
# Span JSONL
# ----------------------------------------------------------------------
class JsonlSpanSink:
    """Append finished spans to a JSONL file as they complete.

    Designed to hang off ``Tracer.sink``: every append is one
    ``write()`` + ``flush()`` under a lock, so a crashed process
    keeps every span that finished before it died.  Reopening a log
    whose last append was torn cuts the torn bytes first.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        cut_torn_tail(self.path)
        self._file = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._closed = False

    def __call__(self, span: Span) -> None:
        line = json.dumps(span.to_dict(),
                          separators=(",", ":")) + "\n"
        with self._lock:
            if self._closed:
                return
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            self._file.close()
            self._closed = True

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_spans_jsonl(spans, path: str | Path,
                      append: bool = False) -> Path:
    """Write a finished span list in one go (non-streaming form)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    mode = "a" if append else "w"
    with open(target, mode, encoding="utf-8") as stream:
        for span in spans:
            stream.write(json.dumps(span.to_dict(),
                                    separators=(",", ":")) + "\n")
    return target


def read_spans_jsonl(path: str | Path) -> tuple[Span, ...]:
    """Load a span log; a torn final line (crash signature) is dropped
    with one log line, corruption anywhere else raises."""
    try:
        batch = iter_jsonl(path)
    except JsonlCorruptError as exc:
        raise ValueError(
            f"corrupt span log {exc.path} at line "
            f"{exc.line_number}: {exc.reason}") from exc
    if batch.torn:
        _log.warning("torn-span-line dropped path=%s line=%d", path,
                     batch.torn_line)
    spans: list[Span] = []
    last = len(batch.records) - 1
    for index, (number, payload) in enumerate(batch.records):
        try:
            spans.append(Span.from_dict(payload))
        except (ValueError, KeyError, TypeError) as exc:
            if index == last and not batch.torn:
                _log.warning("torn-span-line dropped path=%s "
                             "line=%d", path, number)
                break
            raise ValueError(
                f"corrupt span log {path} at line {number}: "
                f"{exc!r}") from exc
    return tuple(spans)


def last_span_id(path: str | Path) -> int:
    """The largest span id in a span log (0 for a missing one).

    A resumed attempt's tracer starts above it, so the ids of every
    attempt appended to one log stay distinct.  Lines that do not
    decode to a span are skipped: a damaged span log must not stop a
    resume.
    """
    top = 0
    try:
        with open(path, "rb") as stream:
            for line in stream:
                try:
                    top = max(top, int(json.loads(line)["id"]))
                except (ValueError, KeyError, TypeError):
                    continue
    except FileNotFoundError:
        pass
    return top


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace(spans) -> dict:
    """Render spans as a Chrome ``trace_event`` document.

    Complete events ("ph": "X"), microsecond timestamps relative to
    the earliest span so the viewer opens at t=0.  ``args`` carries
    ``span_id``/``parent_id`` plus the span's own attributes, which is
    what lets a consumer rebuild the exact tree from the JSON.
    """
    spans = [span for span in spans if span.end_s is not None]
    origin = min((span.start_s for span in spans), default=0.0)
    events = []
    for span in spans:
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": round((span.start_s - origin) * 1e6, 3),
            "dur": round(span.duration_s * 1e6, 3),
            "pid": 1,
            "tid": span.thread_id,
            "cat": "repro",
            "args": {"span_id": span.span_id,
                     "parent_id": span.parent_id, **span.attrs},
        })
    events.sort(key=lambda event: (event["ts"],
                                   event["args"]["span_id"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_tree(spans) -> dict[int | None, list[Span]]:
    """Children-by-parent-id index over a span list."""
    tree: dict[int | None, list[Span]] = {}
    for span in spans:
        tree.setdefault(span.parent_id, []).append(span)
    for children in tree.values():
        children.sort(key=lambda span: (span.start_s, span.span_id))
    return tree


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus exposition format.

    Backslash, double quote and line feed are the three characters the
    text format requires escaping inside ``label="value"`` — in that
    order (backslash first, or the escapes themselves get re-escaped).
    Everything emitting labeled series (here and
    ``repro.obs.cost.CostLedger.to_prometheus``) must route label
    values through this, or a taxonomy name containing a quote would
    produce an unparseable exposition.
    """
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def format_prometheus(registry: MetricsRegistry) -> str:
    """Text-format dump of every metric in ``registry``.

    Histograms render as the standard ``_bucket``/``_sum``/``_count``
    family; the exact extremes are emitted as sibling ``{name}_min`` /
    ``{name}_max`` *gauge* families (their own ``# TYPE`` lines — bare
    suffixes on a histogram family are rejected by strict parsers).
    Non-finite values use the Prometheus spellings ``+Inf``/``-Inf``/
    ``NaN``, never Python's ``inf``.
    """
    lines: list[str] = []
    for name, metric in sorted(registry.metrics().items()):
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if metric.kind in ("counter", "gauge"):
            lines.append(f"{name} {_num(metric.value)}")
            continue
        cumulative = 0
        for bound, count in zip(metric.bounds,
                                metric.bucket_counts()):
            cumulative += count
            lines.append(
                f'{name}_bucket'
                f'{{le="{escape_label_value(_num(bound))}"}} '
                f'{cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
        lines.append(f"{name}_sum {_num(metric.total)}")
        lines.append(f"{name}_count {metric.count}")
        for suffix, value in (("min", metric.min), ("max", metric.max)):
            lines.append(f"# TYPE {name}_{suffix} gauge")
            lines.append(f"{name}_{suffix} {_num(value)}")
    return "\n".join(lines) + "\n"


def _num(value: float) -> str:
    """Prometheus-legal number: ``+Inf``/``-Inf``/``NaN`` for the
    non-finite values, no trailing ``.0`` on integral ones."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value.is_integer():
        return str(int(value))
    return repr(value)


# ----------------------------------------------------------------------
# Spans -> metrics
# ----------------------------------------------------------------------
def registry_from_spans(spans) -> MetricsRegistry:
    """Fold spans into per-name duration histograms and counters."""
    registry = MetricsRegistry()
    for span in spans:
        if span.end_s is None:
            continue
        safe = "".join(ch if ch.isalnum() else "_"
                       for ch in span.name)
        registry.counter(
            f"repro_span_{safe}_total",
            f"finished {span.name} spans").add(1)
        registry.histogram(
            f"repro_span_{safe}_seconds",
            f"duration of {span.name} spans").observe(span.duration_s)
    return registry
