"""Live run monitoring: follow a running run's ledger into a snapshot.

``repro.runs`` gave the stack durable *post-hoc* observability — a
finished (or crashed) run replays from disk.  This module closes the
remaining gap: watching a run *while it executes*.  The
:class:`LedgerFollower` reads the run's ``ledger.jsonl`` and
``spans.jsonl`` through the registry's one state cache (each poll
folds only the lines appended since the last one, and a torn
in-flight append is simply retried), folds the events through the
same ``_apply`` the replayer uses (the snapshot therefore *converges
to exactly the post-hoc ``load_run`` state*), and augments them with
the age of the run's heartbeat marker:

* per-cell progress and accuracy-so-far;
* throughput and an ETA from the span-derived per-question latency
  histogram (falling back to observed throughput when tracing is
  off);
* retry / fault counts streamed out of the span log;
* a stall watchdog: a run whose ledger, span log and heartbeat have
  all sat still past the deadline is flagged ``stalled`` — unless a
  spend ceiling stopped it, which reads ``budget-stopped``.

``repro watch <run-id>`` renders the snapshot as an in-place ASCII
dashboard (``--once`` for a single frame, ``--json`` for machines).
The follower never locks or writes anything in the run directory, so
its cost to the run is only filesystem read pressure — the
``bench_watch_overhead`` benchmark gates it at <=5% added wall time.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.obs.cost import call_cost_nanos
from repro.obs.jsonl import fold_jsonl, last_advanced
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram
from repro.obs.tracer import Span
from repro.runs.heartbeat import DEFAULT_STALL_DEADLINE_S
from repro.runs.ledger import RunState, fold_run_ledger
from repro.runs.registry import LedgerVersion, LogFold, RunRegistry

_log = logging.getLogger("repro.obs.live")

#: Width of the dashboard's per-cell progress bars.
BAR_WIDTH = 24


@dataclass(slots=True)
class CellProgress:
    """One sweep cell as the follower currently sees it."""

    cell_id: str
    expected: int
    done: int
    correct: int
    complete: bool

    @property
    def fraction(self) -> float:
        if self.expected <= 0:
            return 1.0 if self.complete else 0.0
        return min(1.0, self.done / self.expected)

    @property
    def accuracy(self) -> float:
        """Accuracy over the questions recorded *so far*."""
        if self.done == 0:
            return 0.0
        return self.correct / self.done

    def to_dict(self) -> dict[str, object]:
        return {
            "cell": self.cell_id,
            "expected": self.expected,
            "done": self.done,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "complete": self.complete,
        }


@dataclass(slots=True)
class RunProgress:
    """One follower snapshot of a (possibly still running) run."""

    run_id: str
    status: str        # running | stalled | budget-stopped | finished
    attempts: int
    finished: bool
    cells_planned: int
    cells_started: int
    cells_done: int
    questions_done: int
    questions_planned: int            # estimated for unstarted cells
    correct: int
    retries: int
    faults: int
    spans: int
    elapsed_s: float
    throughput: float                 # questions / wall second so far
    eta_s: float | None               # None once settled / no basis
    latency_p50_s: float
    latency_p99_s: float
    heartbeat_age_s: float | None     # None when no heartbeat exists
    progress_age_s: float | None      # since the ledger last advanced
    stall_deadline_s: float
    #: Token/cost accounting over the records streamed so far —
    #: priced from the record token counts, so the totals are live
    #: long before the run-finished stats snapshot exists (and 0 on
    #: ledgers that predate cost metering).
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_nanos: int = 0
    #: Budget-exhausted payload once a spend ceiling stopped the run.
    budget: dict | None = None
    cells: list[CellProgress] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        """Accuracy over every question recorded so far."""
        if self.questions_done == 0:
            return 0.0
        return self.correct / self.questions_done

    @property
    def settled(self) -> bool:
        """Nothing more is written until a resume: the run finished or
        a budget stopped it."""
        return self.status in ("finished", "budget-stopped")

    @property
    def fraction(self) -> float:
        if self.questions_planned <= 0:
            return 1.0 if self.finished else 0.0
        return min(1.0, self.questions_done / self.questions_planned)

    @property
    def cost_usd(self) -> float:
        return self.cost_nanos / 1e9

    def to_dict(self) -> dict[str, object]:
        """Every field in order, a derived property after its field."""
        payload = {name: getattr(self, name) for name in _PROGRESS_KEYS}
        payload["cells"] = [cell.to_dict() for cell in self.cells]
        return payload


#: Properties :meth:`RunProgress.to_dict` writes after a field.
_DERIVED = {"correct": ("accuracy",), "cost_nanos": ("cost_usd",)}
_PROGRESS_KEYS = tuple(key for f in fields(RunProgress)
                       for key in (f.name, *_DERIVED.get(f.name, ())))


@dataclass(slots=True)
class SpanTotals:
    """What the follower reads from a run's span log: the finished
    question spans' latencies, the finished retry spans, and the spans
    in all.  ``faults`` counts the finished retry spans that name the
    fault they retry — every retry the engine writes, so retried
    faults of any kind, not only injected ones."""

    latency: Histogram = field(default_factory=lambda: Histogram(
        "question_latency_s", bounds=DEFAULT_BUCKETS))
    retries: int = 0
    faults: int = 0
    spans: int = 0


def fold_span_totals(path: str | Path, base: SpanTotals | None = None,
                     offset: int = 0, start_line: int = 1,
                     follow: bool = False
                     ) -> tuple[SpanTotals, int, int]:
    """The span log's :data:`~repro.runs.registry.LogFold`, into
    :class:`SpanTotals`.  A line that does not decode, or not to a
    span, is skipped (``obs trace`` reads the log strictly)."""
    totals = (SpanTotals() if base is None
              else replace(base, latency=base.latency.copy()))

    def add(payload: dict, _text: str) -> None:
        try:
            span = Span.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return                  # foreign span shape: skip, don't die
        totals.spans += 1
        if span.end_s is not None and span.name == "question":
            totals.latency.observe(span.duration_s)
        elif span.end_s is not None and span.name == "retry":
            totals.retries += 1
            totals.faults += bool(span.attrs.get("fault"))

    _, offset, line = fold_jsonl(path, add, _log, "torn-span-line",
                                 offset=offset, start_line=start_line,
                                 follow=follow)
    return totals, offset, line


class LedgerFollower:
    """Incremental reader of one run's ledger + span log.

    Construct once, call :meth:`poll` repeatedly: each poll reads the
    two logs through :meth:`repro.runs.registry.StateCache.follow`
    (the first takes the cache's versions, each later one folds only
    the lines appended since) and returns a fresh
    :class:`RunProgress`.  Events fold through the replayer's own
    ``_apply``, so after the writer stops the snapshot is exactly what
    ``replay_ledger``/``load_run`` would reconstruct — the
    concurrent-follow tests assert that convergence.  The follower is
    strictly read-only.

    One follower may be shared by many concurrent readers (the serve
    layer fans a single follower out to N SSE subscribers): ``poll``
    serializes under an internal lock, so the versions it holds never
    tear, and every caller sees a snapshot at least as fresh as the
    ledger was when its poll started.
    """

    def __init__(self, run_id: str,
                 registry: RunRegistry | None = None,
                 stall_deadline_s: float | None = None,
                 clock=time.time):
        self.registry = (registry if registry is not None
                         else RunRegistry())
        self.run_id = run_id
        self.stall_deadline_s = (DEFAULT_STALL_DEADLINE_S
                                 if stall_deadline_s is None
                                 else stall_deadline_s)
        self._clock = clock
        self._lock = threading.Lock()
        manifest = self.registry.manifest(run_id)  # raises if unknown
        self._cells_planned = int(manifest.get("cells", 0))
        request = manifest.get("request", {})
        self._workers = max(1, int(request.get("workers", 1)))
        self._created_at = float(manifest.get("created_at", 0.0))
        #: The log versions the last poll read (shared: read-only).
        self.ledger: LedgerVersion | None = None
        self.spans: LedgerVersion | None = None

    def _follow(self, path: Path, last: LedgerVersion | None,
                fold: LogFold, empty: object) -> LedgerVersion:
        try:
            return self.registry.state_cache.follow(path, last, fold)
        except FileNotFoundError:           # nothing written yet
            return LedgerVersion(path, None, empty)

    def poll(self) -> RunProgress:
        """Fold everything appended since the last poll and snapshot
        the run.  Safe to call from many threads."""
        with self._lock:
            return self._poll_locked()

    def _poll_locked(self) -> RunProgress:
        self.ledger = self._follow(
            self.registry.ledger_path(self.run_id), self.ledger,
            fold_run_ledger, RunState(run_id=self.run_id))
        self.spans = self._follow(
            self.registry.spans_path(self.run_id), self.spans,
            fold_span_totals, SpanTotals())
        state, spans = self.ledger.state, self.spans.state
        now = self._clock()

        cells: list[CellProgress] = []
        questions_done = 0
        correct = 0
        expected_started = 0
        prompt_tokens = 0
        completion_tokens = 0
        cost_nanos = 0
        for cell_id, cell_state in state.cells.items():
            done = len(cell_state.records)
            cell_correct, cell_prompt, cell_completion = cell_state.sums
            cells.append(CellProgress(
                cell_id=cell_id, expected=cell_state.expected_n,
                done=done, correct=cell_correct,
                complete=cell_state.complete))
            questions_done += done
            correct += cell_correct
            expected_started += cell_state.expected_n
            prompt_tokens += cell_prompt
            completion_tokens += cell_completion
            # Per-token pricing is linear, so pricing the cell's token
            # sums equals summing per-record costs — one lookup per
            # cell instead of one per record.
            cost_nanos += call_cost_nanos(
                cell_id.split("|", 1)[0], cell_prompt,
                cell_completion)

        cells_started = len(cells)
        cells_done = sum(1 for cell in cells if cell.complete)
        # Unstarted cells are estimated at the mean size of the
        # started ones — the planner's cells are near-uniform.
        remaining_cells = max(0, self._cells_planned - cells_started)
        mean_expected = (expected_started / cells_started
                         if cells_started else 0)
        questions_planned = int(round(
            expected_started + remaining_cells * mean_expected))

        started = state.started_ts or self._created_at or now
        settled = state.sealed
        end = state.ended_ts if settled else now
        elapsed = max(0.0, (end or now) - started)
        throughput = (questions_done / elapsed if elapsed > 0 else 0.0)

        eta: float | None = None
        if not settled:
            remaining = max(0, questions_planned - questions_done)
            if spans.latency.count > 0:
                eta = (remaining * spans.latency.mean
                       / self._workers)
            elif throughput > 0:
                eta = remaining / throughput

        beat_ts = last_advanced(self.registry.heartbeat_path(self.run_id))
        heartbeat_age = now - beat_ts if beat_ts is not None else None
        progress_ts = self.registry.progress_ts(self.run_id)
        progress_age = (now - progress_ts
                        if progress_ts is not None else None)

        if state.finished:
            status = "finished"
        elif state.budget_stopped:
            status = "budget-stopped"
        else:
            # Stalled only when *neither* the ledger nor the
            # heartbeat advances within the deadline.  No pid check
            # here: the watcher may not share a host with the run.
            ages = [age for age in (heartbeat_age, progress_age)
                    if age is not None]
            fresh = min(ages) if ages else now - started
            status = ("stalled" if fresh > self.stall_deadline_s
                      else "running")

        return RunProgress(
            run_id=self.run_id, status=status,
            attempts=state.attempts,
            finished=state.finished,
            cells_planned=self._cells_planned,
            cells_started=cells_started, cells_done=cells_done,
            questions_done=questions_done,
            questions_planned=questions_planned, correct=correct,
            retries=spans.retries, faults=spans.faults,
            spans=spans.spans, elapsed_s=elapsed,
            throughput=throughput, eta_s=eta,
            latency_p50_s=spans.latency.quantile(0.50),
            latency_p99_s=spans.latency.quantile(0.99),
            heartbeat_age_s=heartbeat_age,
            progress_age_s=progress_age,
            stall_deadline_s=self.stall_deadline_s,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            cost_nanos=cost_nanos,
            budget=state.budget,
            cells=sorted(cells, key=lambda cell: cell.cell_id))


# ----------------------------------------------------------------------
# ASCII dashboard
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int = BAR_WIDTH) -> str:
    filled = int(round(min(1.0, max(0.0, fraction)) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _age(seconds: float | None) -> str:
    if seconds is None:
        return "never"
    return f"{seconds:.1f}s ago"


def _eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def render_dashboard(progress: RunProgress) -> str:
    """The ``repro watch`` frame: header, totals, per-cell bars."""
    lines = [
        (f"run {progress.run_id} [{progress.status}] "
         f"attempt {max(1, progress.attempts)} — "
         f"{progress.cells_done}/{progress.cells_planned} cells, "
         f"{progress.questions_done}/{progress.questions_planned} "
         f"questions ({progress.fraction * 100:.1f}%)"),
        (f"accuracy {progress.accuracy:.3f} · "
         f"{progress.throughput:.1f} q/s · "
         f"p50 {progress.latency_p50_s * 1e3:.1f}ms · "
         f"p99 {progress.latency_p99_s * 1e3:.1f}ms · "
         f"retries {progress.retries} · faults {progress.faults} · "
         f"cost ${progress.cost_usd:.4f} · "
         f"eta {_eta(progress.eta_s)}"),
        (f"heartbeat {_age(progress.heartbeat_age_s)} · "
         f"ledger {_age(progress.progress_age_s)} · "
         f"stall deadline {progress.stall_deadline_s:.0f}s"),
    ]
    if progress.status == "stalled":
        lines.append("!! stalled: neither ledger nor heartbeat "
                     "advanced within the deadline")
    if progress.budget:
        lines.append("!! budget exhausted: the run stopped at a cell "
                     "boundary — `repro runs resume` completes it")
    width = max((len(cell.cell_id) for cell in progress.cells),
                default=0)
    for cell in progress.cells:
        marker = ("done" if cell.complete
                  else f"{cell.fraction * 100:3.0f}%")
        lines.append(
            f"{cell.cell_id.ljust(width)} {_bar(cell.fraction)} "
            f"{cell.done}/{cell.expected} acc {cell.accuracy:.3f} "
            f"{marker}")
    if not progress.cells:
        lines.append("(no cells recorded yet)")
    return "\n".join(lines)


def watch_run(run_id: str, registry: RunRegistry | None = None,
              interval_s: float = 1.0,
              stall_deadline_s: float | None = None,
              clock=time.time,
              render=render_dashboard,
              emit=None,
              until_finished: bool = True,
              evaluator=None) -> RunProgress:
    """Poll + render in place until the run settles (finishes or
    stops on its budget), or forever.

    ``emit`` receives each rendered frame (defaults to printing with
    an ANSI home+clear prefix so the dashboard redraws in place);
    returns the final snapshot.  ``evaluator`` is an optional
    :class:`repro.obs.alerts.AlertEvaluator`: each snapshot is fed
    through it and any firing rules are prepended to the frame as an
    alert banner (transitions are logged by the evaluator itself).
    """
    follower = LedgerFollower(run_id, registry=registry,
                              stall_deadline_s=stall_deadline_s,
                              clock=clock)

    def _print(frame: str) -> None:  # pragma: no cover - terminal io
        print("\x1b[H\x1b[2J" + frame, flush=True)

    emit = emit if emit is not None else _print
    while True:
        progress = follower.poll()
        frame = render(progress)
        if evaluator is not None:
            evaluator.observe(progress)
            banner = evaluator.banner()
            if banner:
                frame = banner + "\n" + frame
        emit(frame)
        if until_finished and progress.settled:
            return progress
        time.sleep(interval_s)
