"""Hierarchical span tracing for the evaluation stack.

A :class:`Tracer` records *spans* — named, timed, attributed intervals
arranged in a tree: ``run -> cell -> question -> retry / batch`` on
the evaluation side, ``build -> taxonomy -> encode / write`` in the
dataset store.  Spans are opened as context
managers; parentage is tracked per thread (a span opened on a worker
thread nests under whatever span that same thread has open), and can
be forced explicitly with ``parent=`` when work hops threads — the
engine's fan-out opens every ``question`` span with the cell span as
its explicit parent, so worker interleaving never scrambles the tree.
A finished span goes to the tracer's ``sink`` if it has one (a run
session's ``spans.jsonl``), else to its list (:meth:`Tracer.spans`).

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span``
call returns one shared no-op context manager — instrumented code pays
one attribute dict and one method call when tracing is off, which the
``bench_obs_overhead`` benchmark keeps within budget.

Spans cross process boundaries by value: a worker process runs its own
tracer, serializes the finished spans with :meth:`Span.to_dict`, and
the driver re-homes the batch under its own tree with
:meth:`Tracer.adopt` (ids are remapped, roots are re-parented).  A
worker whose ids must not collide with its siblings' without a remap
— a shard, whose span log the merge copies line for line — instead
starts its tracer at ``first_id`` inside an id range of its own.  The
default clock is ``time.time`` precisely so timestamps from different
processes on one machine stay comparable; tests inject a fake clock
for deterministic durations.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from repro.obs.jsonl import dumps_line

Clock = Callable[[], float]

BUILD_SPANS = ("build", "taxonomy", "encode", "write", "load")


@dataclass(slots=True)
class Span:
    """One timed interval in the trace tree."""

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float | None = None
    thread_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attrs) -> None:
        """Attach attributes after the span has been opened."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        """JSONL-compatible payload (``obs.export`` reads it back)."""
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "thread": self.thread_id,
            "attrs": self.attrs,
        }

    def to_line(self) -> str:
        """:meth:`to_dict` as one JSONL line, newline included.

        Byte-equal to ``json.dumps(self.to_dict(), separators=(",",
        ":"))`` plus a newline, but written straight from the fields
        when each has exactly the type the tracer gives it: ``str``
        name, ``int`` ids, finite ``float`` times (an open span, a NaN
        or an infinity prints differently) and a ``dict`` of ``str``
        keys to ``str``, ``int`` or finite ``float`` values.  Anything
        else goes through the shared encoder.
        """
        parent = self.parent_id
        start_s, end_s = self.start_s, self.end_s
        if (type(self.name) is str and type(self.span_id) is int
                and (parent is None or type(parent) is int)
                and type(start_s) is float and type(end_s) is float
                and math.isfinite(start_s) and math.isfinite(end_s)
                and type(self.thread_id) is int):
            attrs = _attrs_text(self.attrs)
            if attrs is not None:
                return (f'{{"name":{_quote(self.name)},'
                        f'"id":{self.span_id},'
                        f'"parent":{"null" if parent is None else parent},'
                        f'"start_s":{start_s!r},"end_s":{end_s!r},'
                        f'"thread":{self.thread_id},"attrs":{attrs}}}\n')
        return dumps_line(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            span_id=int(payload["id"]),
            parent_id=(None if payload.get("parent") is None
                       else int(payload["parent"])),
            start_s=float(payload["start_s"]),
            end_s=(None if payload.get("end_s") is None
                   else float(payload["end_s"])),
            thread_id=int(payload.get("thread", 0)),
            attrs=dict(payload.get("attrs") or {}),
        )


def _attrs_text(attrs: dict) -> str | None:
    """JSON text of a span's attributes, or None when a key or value
    has a type :meth:`Span.to_line` leaves to the shared encoder."""
    if type(attrs) is not dict:
        return None
    parts = []
    for key, value in attrs.items():
        kind = type(value)
        if type(key) is not str:
            return None
        if kind is str:
            text = _quote(value)
        elif kind is int:
            text = str(value)
        elif kind is float and math.isfinite(value):
            text = repr(value)
        else:
            return None
        parts.append(f"{_quote(key)}:{text}")
    return "{" + ",".join(parts) + "}"


class _SpanContext:
    """Context manager binding one open span to one tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self.span)


class Tracer:
    """Thread-safe span recorder with per-thread parent tracking.

    Args:
        clock: Injectable time source (defaults to wall clock so spans
            from different processes line up).
        sink: Optional callback that takes every *finished* span in
            place of the tracer's list — a run session hangs a JSONL
            appender here, so a crash still leaves every completed
            span on disk and none is kept in memory.
        first_id: The first span id to hand out.
    """

    enabled = True

    def __init__(self, clock: Clock = time.time,
                 sink: Callable[[Span], None] | None = None,
                 first_id: int = 1):
        self._clock = clock
        self.sink = sink
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = first_id

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self) -> int | None:
        """The id of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def span(self, name: str, parent: int | None = None,
             **attrs) -> _SpanContext:
        """Open a span; ``with tracer.span("cell", model=m) as s: ...``

        ``parent`` overrides the thread-local parent — required when
        the span logically nests under work on another thread.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent is None:
            parent = self.current_id()
        span = Span(name=name, span_id=span_id, parent_id=parent,
                    start_s=self._clock(),
                    thread_id=threading.get_ident(), attrs=attrs)
        self._stack().append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end_s = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:                       # unbalanced exit: drop if present
            try:
                stack.remove(span)
            except ValueError:  # pragma: no cover - foreign thread
                pass
        if self.sink is not None:
            self.sink(span)
        else:
            with self._lock:
                self._spans.append(span)

    def skip_past(self, span_id: int) -> None:
        """Hand out only ids above ``span_id`` from now on (a resumed
        attempt appends to a span log that already holds ids)."""
        with self._lock:
            self._next_id = max(self._next_id, span_id + 1)

    # ------------------------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        """Every span finished while the tracer had no sink, in
        completion order."""
        with self._lock:
            return tuple(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def adopt(self, payloads: Iterable[dict],
              parent: int | None = None) -> list[Span]:
        """Ingest serialized spans from another process.

        Ids are remapped into this tracer's id space (so batches from
        several workers can never collide) and spans without a parent
        inside the batch are re-homed under ``parent``, then go where
        finished spans go.
        """
        batch = [Span.from_dict(payload) for payload in payloads]
        with self._lock:
            id_map = {}
            for span in batch:
                id_map[span.span_id] = self._next_id
                self._next_id += 1
            for span in batch:
                span.span_id = id_map[span.span_id]
                if span.parent_id in id_map:
                    span.parent_id = id_map[span.parent_id]
                else:
                    span.parent_id = parent
            if self.sink is None:
                self._spans.extend(batch)
        if self.sink is not None:
            for span in batch:
                self.sink(span)
        return batch


class _NullSpan:
    """The shared do-nothing span handed out when tracing is off."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    duration_s = 0.0

    def set(self, **attrs) -> None:
        pass


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """No-op tracer: every call is constant-time and allocation-free
    (beyond the caller's keyword dict)."""

    enabled = False
    sink = None

    def span(self, name: str, parent: int | None = None,
             **attrs) -> _NullContext:
        return _NULL_CONTEXT

    def current_id(self) -> int | None:
        return None

    def spans(self) -> tuple[Span, ...]:
        return ()

    def clear(self) -> None:
        pass

    def adopt(self, payloads: Iterable[dict],
              parent: int | None = None) -> list[Span]:
        return []


#: Process-wide default: instrumentation is free unless opted in.
NULL_TRACER = NullTracer()
