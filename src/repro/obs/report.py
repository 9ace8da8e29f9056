"""Where-did-the-time-go reports over recorded spans.

Two views of one span log:

* :func:`phase_rows` / :func:`phase_table` — flat per-phase
  attribution: for every span name, how many spans, total time, *self*
  time (total minus child time — the part no deeper span explains),
  and the share of the run's wall clock.  This is the table
  ``repro runs show`` appends.
* :func:`flame_report` — an ASCII flamegraph: spans aggregated by
  their name *path* (``run > cell > question > model_call``), one
  indented row per path with a bar proportional to total time.  A
  terminal stand-in for the Chrome trace when all you have is ssh.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.report import format_rows
from repro.figures.ascii import bar_chart
from repro.obs.tracer import Span

_FULL = "#"

#: Span kinds that are always *inside* some enclosing phase but can be
#: recorded without a resolvable parent: an engine traced without the
#: runner's ``question`` spans opens its ``batch`` and ``model_call``
#: spans on worker threads whose span stacks are empty.  They must
#: never count as roots when attributing wall-clock, or a batched
#: run's phase shares deflate against a wall several times the real
#: one.
_DETACHED_KINDS = frozenset({
    "batch", "coalesced_wait", "hedge", "model_call", "retry",
    "cache_lookup", "question",
})


def _closed(spans: Sequence[Span]) -> list[Span]:
    return [span for span in spans if span.end_s is not None]


def _root_wall(spans: Sequence[Span], by_id: set[int]) -> float:
    """Wall clock as the extent of the genuine root spans."""
    roots = [span for span in spans
             if span.parent_id not in by_id
             and span.name not in _DETACHED_KINDS]
    if not roots:   # a bare middleware trace: every span is detached
        roots = [span for span in spans
                 if span.parent_id not in by_id]
    return sum(span.duration_s for span in roots) or 1e-12


def phase_rows(spans: Sequence[Span]) -> list[dict[str, object]]:
    """Per-span-name attribution rows, biggest self-time first."""
    spans = _closed(spans)
    if not spans:
        return []
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = \
                child_time.get(span.parent_id, 0.0) + span.duration_s
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in spans:
        own = max(0.0,
                  span.duration_s - child_time.get(span.span_id, 0.0))
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        selfs[span.name] = selfs.get(span.name, 0.0) + own
        counts[span.name] = counts.get(span.name, 0) + 1
    # The wall clock is the extent of the root spans (no parent inside
    # the log), not the sum — parallel children overlap, and detached
    # engine spans (batch, executor-side model_call) are not roots.
    by_id = {span.span_id for span in spans}
    wall = _root_wall(spans, by_id)
    rows = []
    for name in sorted(selfs, key=selfs.get, reverse=True):
        rows.append({
            "phase": name,
            "count": counts[name],
            "total_s": f"{totals[name]:.4f}",
            "self_s": f"{selfs[name]:.4f}",
            "share": f"{min(1.0, selfs[name] / wall) * 100:.1f}%",
        })
    return rows


def phase_table(spans: Sequence[Span],
                title: str = "Where the wall-clock went") -> str:
    rows = phase_rows(spans)
    if not rows:
        return f"{title}: no spans recorded"
    return format_rows(rows, title=title)


def phase_chart(spans: Sequence[Span], width: int = 40) -> str:
    """Self-time per phase as an ASCII bar chart."""
    rows = phase_rows(spans)
    if not rows:
        return "no spans recorded"
    values = {str(row["phase"]): float(str(row["self_s"]))
              for row in rows}
    return bar_chart(values, width=width,
                     title="Self time per phase (s)")


# ----------------------------------------------------------------------
# Flamegraph
# ----------------------------------------------------------------------
def flame_report(spans: Sequence[Span], width: int = 32,
                 title: str = "Trace flamegraph") -> str:
    """Aggregate spans by name path and render an indented tree.

    Each row shows the path's total time as a bar scaled to the root
    total, the time in seconds, its share, and the span count — the
    classic flamegraph collapsed to name paths, readable in a
    terminal.
    """
    spans = _closed(spans)
    if not spans:
        return f"{title}: no spans recorded"
    by_id = {span.span_id: span for span in spans}

    def path_of(span: Span) -> tuple[str, ...]:
        names = [span.name]
        seen = {span.span_id}
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.span_id not in seen:
            names.append(parent.name)
            seen.add(parent.span_id)
            parent = by_id.get(parent.parent_id)
        return tuple(reversed(names))

    totals: dict[tuple[str, ...], float] = {}
    counts: dict[tuple[str, ...], int] = {}
    for span in spans:
        path = path_of(span)
        totals[path] = totals.get(path, 0.0) + span.duration_s
        counts[path] = counts.get(path, 0) + 1
    root_total = sum(duration for path, duration in totals.items()
                     if len(path) == 1
                     and path[0] not in _DETACHED_KINDS) or sum(
        duration for path, duration in totals.items()
        if len(path) == 1) or 1e-12
    label_width = max(len("  " * (len(path) - 1) + path[-1])
                      for path in totals) + 2
    lines = [title]
    for path in sorted(totals):
        share = min(1.0, totals[path] / root_total)
        bar = _FULL * max(1, round(share * width))
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<{label_width}}"
                     f"{bar:<{width + 1}}"
                     f"{totals[path]:>9.4f}s {share * 100:5.1f}% "
                     f"x{counts[path]}")
    return "\n".join(lines)
